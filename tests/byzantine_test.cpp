// Active Byzantine adversary: seeded corruption plans, dealer equivocation
// and corrupted zero-sharings attributed by hyperinvertible verification,
// wrong shares healed by robust (Berlekamp-Welch) decoding with the liars
// accused, withholding punished by the strike machinery, and the
// armed-vs-unarmed differential that proves the honest path is byte-identical
// when no plan is armed.
//
// Layered like the protocol itself: the Reference* tests pin the algebra
// (pss layer, single process), the Cluster tests pin the message-passing
// dispute machinery end to end.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "field/primes.h"
#include "obs/registry.h"
#include "pisces/byzantine.h"
#include "pisces/pisces.h"
#include "pss/recovery.h"
#include "pss/refresh.h"

namespace pisces {
namespace {

using field::FpCtx;
using field::FpElem;

// ---------------------------------------------------------------------------
// Reference (pss-layer) tests: n=13, t=2, l=3, r=2. d = t+l = 5; the
// recovery masked-share decoding radius with n-r = 11 survivors is
// (11 - 5 - 1)/2 = 2 = t, so exactly-t liars is the worst decodable case.
// ---------------------------------------------------------------------------
class ByzantineReferenceTest : public ::testing::Test {
 protected:
  ByzantineReferenceTest()
      : ctx_(std::make_shared<const FpCtx>(field::StandardPrimeBe(256))),
        rng_(0xB12u) {
    params_.n = 13;
    params_.t = 2;
    params_.l = 3;
    params_.r = 2;
    params_.field_bits = 256;
    params_.Validate();
    shamir_ = std::make_unique<pss::PackedShamir>(ctx_, params_);
  }

  std::vector<FpElem> RandomBlock() {
    std::vector<FpElem> s;
    for (std::size_t j = 0; j < params_.l; ++j) s.push_back(ctx_->Random(rng_));
    return s;
  }

  // Deals `blocks` random blocks; fills secrets_ and by-party share matrix.
  std::vector<std::vector<FpElem>> DealBlocks(std::size_t blocks) {
    std::vector<std::vector<FpElem>> by_party(params_.n,
                                              std::vector<FpElem>(blocks));
    secrets_.clear();
    for (std::size_t b = 0; b < blocks; ++b) {
      secrets_.push_back(RandomBlock());
      auto shares = shamir_->ShareBlock(secrets_[b], rng_);
      for (std::size_t i = 0; i < params_.n; ++i) by_party[i][b] = shares[i];
    }
    return by_party;
  }

  bool SameShares(const std::vector<std::vector<FpElem>>& a,
                  const std::vector<std::vector<FpElem>>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t k = 0; k < a[i].size(); ++k) {
        if (!ctx_->Eq(a[i][k], b[i][k])) return false;
      }
    }
    return true;
  }

  std::shared_ptr<const FpCtx> ctx_;
  Rng rng_;
  pss::Params params_;
  std::unique_ptr<pss::PackedShamir> shamir_;
  std::vector<std::vector<FpElem>> secrets_;
};

TEST_F(ByzantineReferenceTest, EquivocatingDealerAttributedSharesUntouched) {
  auto by_party = DealBlocks(4);
  const auto before = by_party;
  const std::uint32_t cheater = 4;
  ByzantineActor actor(cheater, ByzantineStrategy::kEquivocate, 0xE1, *ctx_);
  auto attributed =
      pss::ReferenceRefreshDetect(*shamir_, by_party, rng_, cheater, actor);
  ASSERT_EQ(attributed.size(), 1u)
      << "exactly the equivocating dealer must be attributed";
  EXPECT_EQ(attributed[0], cheater);
  // A failed round must not half-apply: the sharing is untouched.
  EXPECT_TRUE(SameShares(before, by_party));
}

TEST_F(ByzantineReferenceTest, CorruptZeroSharingAttributedSharesUntouched) {
  auto by_party = DealBlocks(4);
  const auto before = by_party;
  const std::uint32_t cheater = 9;
  // kCorruptDeal produces a CONSISTENT degree-<=d dealing that fails only the
  // vanishing condition -- the subtler cheat, invisible to degree checks.
  ByzantineActor actor(cheater, ByzantineStrategy::kCorruptDeal, 0xC0, *ctx_);
  auto attributed =
      pss::ReferenceRefreshDetect(*shamir_, by_party, rng_, cheater, actor);
  ASSERT_EQ(attributed.size(), 1u);
  EXPECT_EQ(attributed[0], cheater);
  EXPECT_TRUE(SameShares(before, by_party));
}

TEST_F(ByzantineReferenceTest, DealerSeamInactiveForNonDealerStrategies) {
  // kWrongShare / kWithhold act at the send sites, not the dealing seam:
  // through the seam they are no-ops and the round verifies clean, refreshes
  // every share, and preserves every secret.
  auto by_party = DealBlocks(3);
  const auto before = by_party;
  ByzantineActor actor(2, ByzantineStrategy::kWithhold, 0x77, *ctx_);
  auto attributed =
      pss::ReferenceRefreshDetect(*shamir_, by_party, rng_, 2, actor);
  EXPECT_TRUE(attributed.empty());
  EXPECT_FALSE(SameShares(before, by_party)) << "refresh must rerandomize";

  std::vector<std::uint32_t> parties(params_.n);
  for (std::uint32_t i = 0; i < params_.n; ++i) parties[i] = i;
  for (std::size_t b = 0; b < 3; ++b) {
    std::vector<FpElem> shares;
    for (std::size_t i = 0; i < params_.n; ++i) shares.push_back(by_party[i][b]);
    auto rec = shamir_->ReconstructBlock(parties, shares);
    for (std::size_t j = 0; j < params_.l; ++j) {
      EXPECT_TRUE(ctx_->Eq(rec[j], secrets_[b][j]));
    }
  }
}

TEST_F(ByzantineReferenceTest, RobustRecoveryAccusesExactlyTLiars) {
  auto by_party = DealBlocks(3);
  const auto truth = by_party;
  std::vector<std::uint32_t> reboot = {0, 6};
  for (auto tgt : reboot) by_party[tgt].assign(3, ctx_->Zero());
  // Exactly t = 2 lying survivors: the worst case inside the radius.
  std::vector<std::uint32_t> liars = {3, 11};
  auto accused =
      pss::ReferenceRecoverRobust(*shamir_, by_party, reboot, rng_, liars);
  std::sort(accused.begin(), accused.end());
  ASSERT_EQ(accused, liars) << "robust decode must name exactly the liars";
  // Recovered shares are bit-correct despite the lies.
  for (auto tgt : reboot) {
    for (std::size_t b = 0; b < 3; ++b) {
      EXPECT_TRUE(ctx_->Eq(by_party[tgt][b], truth[tgt][b]));
    }
  }
}

TEST_F(ByzantineReferenceTest, RobustReconstructReportsCorruptedIndices) {
  auto secrets = RandomBlock();
  auto shares = shamir_->ShareBlock(secrets, rng_);
  std::vector<std::uint32_t> parties(params_.n);
  for (std::uint32_t i = 0; i < params_.n; ++i) parties[i] = i;
  // Client-side radius is (n - d - 1)/2 = 3 >= t; corrupt exactly t shares.
  shares[1] = ctx_->Add(shares[1], ctx_->One());
  shares[7] = ctx_->Add(shares[7], ctx_->One());
  std::vector<std::size_t> corrupted;
  auto rec = shamir_->RobustReconstructBlock(parties, shares, &corrupted);
  ASSERT_TRUE(rec.has_value());
  for (std::size_t j = 0; j < params_.l; ++j) {
    EXPECT_TRUE(ctx_->Eq((*rec)[j], secrets[j]));
  }
  EXPECT_EQ(corrupted, (std::vector<std::size_t>{1, 7}))
      << "the corruption report must name the tampered share positions";
}

// ---------------------------------------------------------------------------
// Plan drawing: deterministic and always within the absorbable envelope.
// ---------------------------------------------------------------------------
TEST(ByzantinePlanTest, DrawIsDeterministicPerSeed) {
  pss::Params p;
  p.n = 10;
  p.t = 2;
  p.l = 1;
  p.r = 2;
  p.field_bits = 256;
  p.Validate();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto a = DrawByzantinePlan(seed, p);
    const auto b = DrawByzantinePlan(seed, p);
    EXPECT_EQ(a.seed, seed);
    EXPECT_EQ(a.hosts, b.hosts) << "seed " << seed;
  }
  EXPECT_NE(DrawByzantinePlan(1, p).hosts, DrawByzantinePlan(2, p).hosts);
}

TEST(ByzantinePlanTest, DrawStaysWithinCorruptionAndDecodingBounds) {
  pss::Params p;
  p.n = 10;
  p.t = 2;
  p.l = 1;
  p.r = 2;
  p.field_bits = 256;
  p.Validate();
  const std::size_t radius = (p.n - p.r - p.degree() - 1) / 2;
  bool saw_corrupt = false;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const auto plan = DrawByzantinePlan(seed, p);
    EXPECT_LE(plan.hosts.size(), p.t) << "seed " << seed;
    std::size_t wrong_share = 0;
    for (const auto& [host, strategy] : plan.hosts) {
      EXPECT_LT(host, p.n);
      EXPECT_NE(strategy, ByzantineStrategy::kHonest);
      if (strategy == ByzantineStrategy::kWrongShare) ++wrong_share;
    }
    EXPECT_LE(wrong_share, radius)
        << "wrong-share hosts must fit the masked-share decoding radius";
    saw_corrupt |= plan.Armed();
  }
  EXPECT_TRUE(saw_corrupt);
}

// ---------------------------------------------------------------------------
// Cluster (message-passing) tests: n=10, t=2, l=1, r=2. d = 3; the client
// decoding radius is (10-3-1)/2 = 3 >= t and the recovery masked-share
// radius with 8 survivors is (8-3-1)/2 = 2 >= t.
// ---------------------------------------------------------------------------
ClusterConfig ByzConfig(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.params.n = 10;
  cfg.params.t = 2;
  cfg.params.l = 1;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = seed;
  return cfg;
}

ByzantinePlan OnePlan(std::uint64_t seed,
                      std::initializer_list<std::pair<std::uint32_t,
                                                      ByzantineStrategy>>
                          hosts) {
  ByzantinePlan plan;
  plan.seed = seed;
  for (const auto& [h, s] : hosts) plan.hosts[h] = s;
  return plan;
}

TEST(ByzantineCluster, EquivocatingDealerAttributedAndExcluded) {
  Cluster cluster(ByzConfig(101));
  Rng rng(1);
  const Bytes file = rng.RandomBytes(500);
  cluster.Upload(1, file);

  cluster.ArmByzantine(OnePlan(0xE9, {{3, ByzantineStrategy::kEquivocate}}));
  const obs::Snapshot before = obs::TakeSnapshot();
  WindowReport report;
  EXPECT_TRUE(cluster.hypervisor().RefreshAllFiles(&report));
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  cluster.DisarmByzantine();

  EXPECT_EQ(cluster.hypervisor().excluded_dealers().count(3), 1u)
      << "the equivocating dealer must be attributed and excluded";
  EXPECT_GE(obs::Value(delta, "byz.equivocations"), 1u);
  EXPECT_GE(obs::Value(delta, "byz.dealers_attributed"), 1u);
  EXPECT_GE(obs::Value(delta, "byz.vss_check_failures"), 1u);
  EXPECT_GE(report.refresh_retries, 1u);
  // The retried round succeeded without the cheater; data intact.
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(ByzantineCluster, CorruptZeroSharingDetectedAndExcluded) {
  Cluster cluster(ByzConfig(102));
  Rng rng(2);
  const Bytes file = rng.RandomBytes(500);
  cluster.Upload(1, file);

  cluster.ArmByzantine(OnePlan(0xC9, {{6, ByzantineStrategy::kCorruptDeal}}));
  const obs::Snapshot before = obs::TakeSnapshot();
  WindowReport report;
  EXPECT_TRUE(cluster.hypervisor().RefreshAllFiles(&report));
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  cluster.DisarmByzantine();

  EXPECT_EQ(cluster.hypervisor().excluded_dealers().count(6), 1u)
      << "a consistent-but-nonvanishing dealing must still be attributed";
  EXPECT_GE(obs::Value(delta, "byz.deals_tampered"), 1u);
  EXPECT_GE(obs::Value(delta, "byz.dealers_attributed"), 1u);
  // Applying the corrupted zero-sharing would have shifted the secrets; the
  // round was instead rejected and re-run, so the plaintext is unchanged.
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(ByzantineCluster, WrongSharesToClientHealedByRobustDownload) {
  Cluster cluster(ByzConfig(103));
  Rng rng(3);
  const Bytes file = rng.RandomBytes(700);
  cluster.Upload(1, file);

  // Exactly t = 2 hosts serve perturbed shares; the client decoding radius
  // is 3, so the download must heal through them -- and report both.
  cluster.ArmByzantine(OnePlan(0x59, {{2, ByzantineStrategy::kWrongShare},
                                      {8, ByzantineStrategy::kWrongShare}}));
  const obs::Snapshot before = obs::TakeSnapshot();
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  cluster.DisarmByzantine();

  EXPECT_GE(obs::Value(delta, "byz.shares_tampered"), 1u);
  EXPECT_GE(obs::Value(delta, "byz.client_robust_fallbacks"), 1u);
  EXPECT_GE(obs::Value(delta, "byz.client_shares_corrected"), 2u)
      << "both liars' shares must be corrected (and counted)";
  // Honest again: the plain fast path serves the same bytes.
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(ByzantineCluster, WrongMaskedSharesAccusedAndRecoveryCompletes) {
  Cluster cluster(ByzConfig(104));
  Rng rng(4);
  const Bytes file = rng.RandomBytes(500);
  cluster.Upload(1, file);

  // Host 5 serves perturbed masked shares during recovery of {0, 1}. One
  // liar among 8 survivors is inside the masked-share radius (2): the
  // targets decode through it and accuse the sender.
  cluster.ArmByzantine(OnePlan(0xA9, {{5, ByzantineStrategy::kWrongShare}}));
  const obs::Snapshot before = obs::TakeSnapshot();
  std::uint32_t batch[] = {0, 1};
  WindowReport report;
  EXPECT_TRUE(cluster.hypervisor().RebootAndRecover(batch, &report));
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  cluster.DisarmByzantine();

  EXPECT_EQ(cluster.hypervisor().suspected_hosts().count(5), 1u)
      << "the lying survivor must be barred from the survivor role";
  EXPECT_GE(obs::Value(delta, "byz.recovery_inconsistent"), 1u);
  EXPECT_GE(obs::Value(delta, "byz.recovery_shares_corrected"), 1u);
  EXPECT_GE(obs::Value(delta, "byz.survivors_suspected"), 1u);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
  // The recovered targets hold working shares again.
  EXPECT_TRUE(cluster.host(0).store().Has(1));
  EXPECT_TRUE(cluster.host(1).store().Has(1));
}

TEST(ByzantineCluster, WithholdingDealerStruckOutAndRefreshCompletes) {
  Cluster cluster(ByzConfig(105));
  Rng rng(5);
  const Bytes file = rng.RandomBytes(500);
  cluster.Upload(1, file);

  // Host 7 silently withholds every refresh dealing. Each wedged round is
  // one strike; after two the dealer is excluded and the round completes
  // from the remaining nine.
  cluster.ArmByzantine(OnePlan(0x79, {{7, ByzantineStrategy::kWithhold}}));
  const obs::Snapshot before = obs::TakeSnapshot();
  WindowReport report;
  EXPECT_TRUE(cluster.hypervisor().RefreshAllFiles(&report));
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  cluster.DisarmByzantine();

  EXPECT_GE(obs::Value(delta, "byz.messages_withheld"), 2u);
  EXPECT_EQ(cluster.hypervisor().excluded_dealers().count(7), 1u)
      << "two withheld dealings must strike the dealer out";
  EXPECT_GE(report.refresh_retries, 2u);
  EXPECT_GE(report.timeouts_fired, 1u);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(ByzantineCluster, WithholdingSurvivorSuspectedAndRecoveryCompletes) {
  Cluster cluster(ByzConfig(106));
  Rng rng(6);
  const Bytes file = rng.RandomBytes(500);
  cluster.Upload(1, file);

  // Host 4 withholds its recovery masked shares: every session toward the
  // rebooting targets wedges on it. Two strikes bar it from the survivor
  // role; the retry completes from the remaining survivors.
  cluster.ArmByzantine(OnePlan(0x49, {{4, ByzantineStrategy::kWithhold}}));
  const obs::Snapshot before = obs::TakeSnapshot();
  std::uint32_t batch[] = {0, 1};
  WindowReport report;
  const bool ok = cluster.hypervisor().RebootAndRecover(batch, &report);
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  cluster.DisarmByzantine();

  EXPECT_TRUE(ok);
  EXPECT_GE(obs::Value(delta, "byz.messages_withheld"), 1u);
  EXPECT_EQ(cluster.hypervisor().suspected_hosts().count(4), 1u)
      << "a silent survivor must be struck out of the survivor role";
  EXPECT_GE(obs::Value(delta, "byz.survivors_suspected"), 1u);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(ByzantineCluster, WithholdingSurvivorOfThreeTargetChunkSuspectedAlone) {
  // n = 10, t = 2, l = 1 with a reboot batch of r = 3: one recovery round
  // masks all three targets. Host 4 withholds its mask dealing and its
  // masked shares, so each attempt wedges on it; the per-(file, target)
  // strike rule marks it after two attempts and no honest survivor.
  ClusterConfig cfg = ByzConfig(109);
  cfg.params.r = 3;
  Cluster cluster(cfg);
  Rng rng(9);
  const Bytes file = rng.RandomBytes(700);
  cluster.Upload(1, file);

  cluster.ArmByzantine(OnePlan(0x4A, {{4, ByzantineStrategy::kWithhold}}));
  std::uint32_t batch[] = {0, 1, 2};
  WindowReport report;
  const bool ok = cluster.hypervisor().RebootAndRecover(batch, &report);
  cluster.DisarmByzantine();

  EXPECT_TRUE(ok);
  EXPECT_EQ(report.recovery_retries, 2u);
  EXPECT_EQ(cluster.hypervisor().suspected_hosts(),
            (std::set<std::uint32_t>{4}));
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
  for (std::uint32_t id : batch) EXPECT_TRUE(cluster.host(id).store().Has(1));
}

TEST(ByzantineCluster, SuspectsClearedByReboot) {
  Cluster cluster(ByzConfig(107));
  Rng rng(7);
  cluster.Upload(1, rng.RandomBytes(300));

  cluster.ArmByzantine(OnePlan(0xB9, {{5, ByzantineStrategy::kWrongShare}}));
  std::uint32_t batch[] = {0, 1};
  EXPECT_TRUE(cluster.hypervisor().RebootAndRecover(batch, nullptr));
  cluster.DisarmByzantine();
  ASSERT_EQ(cluster.hypervisor().suspected_hosts().count(5), 1u);

  // A full update window reboots every host; the fresh image is trusted
  // again (same contract as the dealer-exclusion record).
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_TRUE(cluster.hypervisor().suspected_hosts().empty());
}

TEST(ByzantineCluster, RebootGuardCountsOnlyTheSurvivorsRecoveryUses) {
  // n = 10, t = 2, l = 1: the recovery quorum is 5. Forged accusations make
  // hosts 5-9 suspects, and suspects never serve as recovery survivors. With
  // r = 1, rebooting any of hosts 0-4 would leave its recovery 4 survivors:
  // the guard must defer those reboots instead of wiping the host. Each
  // suspect's own reboot still has survivors 0-4 and clears its suspicion.
  ClusterConfig cfg = ByzConfig(110);
  cfg.params.r = 1;
  Cluster cluster(cfg);
  Rng rng(10);
  const Bytes file = rng.RandomBytes(500);
  cluster.Upload(1, file);

  net::Message accusation;
  accusation.from = 0;
  accusation.to = net::kHypervisorId;
  accusation.type = net::MsgType::kPhaseDone;
  accusation.file_id = 1;
  accusation.row = 1;  // recovery report
  ByteWriter w;
  w.U8(1);
  w.U32(5);
  for (std::uint32_t id = 5; id < 10; ++id) w.U32(id);
  accusation.payload = w.Take();
  cluster.hypervisor().HandleMessage(accusation);
  ASSERT_EQ(cluster.hypervisor().suspected_hosts(),
            (std::set<std::uint32_t>{5, 6, 7, 8, 9}));

  const WindowReport report = cluster.RunUpdateWindow();
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.failures.empty());
  EXPECT_EQ(report.reboots_deferred, 5u);
  EXPECT_EQ(report.reboots, 5u);
  EXPECT_TRUE(cluster.hypervisor().suspected_hosts().empty());
  EXPECT_TRUE(cluster.hypervisor().stale_hosts().empty());
  for (std::uint32_t id = 0; id < 10; ++id) {
    EXPECT_TRUE(cluster.host(id).store().Has(1)) << "host " << id;
  }
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);

  const WindowReport next = cluster.RunUpdateWindow();
  EXPECT_TRUE(next.ok);
  EXPECT_EQ(next.reboots, 10u);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(ByzantineCluster, ArmedEmptyPlanIsByteIdenticalToUnarmed) {
  // The engine's injection points are null-checked pointers: arming an EMPTY
  // plan must leave every protocol byte identical to a never-armed cluster.
  // Two clusters with the same seed are deterministic replicas; we compare
  // traffic totals, window reports, byz counters and the stored shares.
  Cluster unarmed(ByzConfig(108));
  Cluster armed(ByzConfig(108));
  Rng rng(8);
  const Bytes file = rng.RandomBytes(600);
  unarmed.Upload(1, file);
  armed.Upload(1, file);

  armed.ArmByzantine(ByzantinePlan{});  // armed, but nobody cheats
  ASSERT_NE(armed.byzantine_engine(), nullptr);
  const obs::Snapshot before = obs::TakeSnapshot();
  const WindowReport ru = unarmed.RunUpdateWindow();
  const WindowReport ra = armed.RunUpdateWindow();
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());

  EXPECT_TRUE(ru.ok);
  EXPECT_TRUE(ra.ok);
  EXPECT_EQ(ru.sweeps_refresh, ra.sweeps_refresh);
  EXPECT_EQ(ru.sweeps_recovery, ra.sweeps_recovery);
  EXPECT_EQ(ru.reboots, ra.reboots);
  EXPECT_EQ(ru.files_refreshed, ra.files_refreshed);
  EXPECT_EQ(ru.refresh_retries, ra.refresh_retries);
  EXPECT_EQ(ru.recovery_retries, ra.recovery_retries);

  // No byzantine action was ever taken (counters unregistered or zero).
  EXPECT_EQ(obs::Value(delta, "byz.deals_tampered"), 0u);
  EXPECT_EQ(obs::Value(delta, "byz.shares_tampered"), 0u);
  EXPECT_EQ(obs::Value(delta, "byz.messages_withheld"), 0u);

  // Traffic is identical message for message, byte for byte.
  const HostMetrics tu = unarmed.TotalMetrics();
  const HostMetrics ta = armed.TotalMetrics();
  EXPECT_EQ(tu.rerandomize.bytes_sent, ta.rerandomize.bytes_sent);
  EXPECT_EQ(tu.rerandomize.msgs_sent, ta.rerandomize.msgs_sent);
  EXPECT_EQ(tu.recover.bytes_sent, ta.recover.bytes_sent);
  EXPECT_EQ(tu.recover.msgs_sent, ta.recover.msgs_sent);

  // The refreshed sharings themselves are element-identical: same seed, same
  // draws, no byzantine perturbation anywhere in the pipeline.
  const auto& ctx = unarmed.ctx();
  for (std::size_t i = 0; i < 10; ++i) {
    const auto su = unarmed.host(i).store().Decode(1);
    const auto sa = armed.host(i).store().Decode(1);
    ASSERT_EQ(su.size(), sa.size());
    for (std::size_t b = 0; b < su.size(); ++b) {
      EXPECT_TRUE(ctx.Eq(su[b], sa[b])) << "host " << i << " block " << b;
    }
  }
  EXPECT_EQ(unarmed.Download(pisces::ReadSpec::Classic(1)), armed.Download(pisces::ReadSpec::Classic(1)));
}

TEST(ByzantineCluster, MixedPlanFullWindowKeepsAllInvariants) {
  // One window with a dealer-side cheater AND a wrong-share host active at
  // once, plus a passive spy reading t hosts: the integration case the seed
  // sweep runs 250 times. Kept to one window here so the default test lane
  // stays fast.
  Cluster cluster(ByzConfig(109));
  Rng rng(9);
  const Bytes file = rng.RandomBytes(800);
  cluster.Upload(1, file);
  Adversary spy(cluster);
  spy.Corrupt(3);
  spy.Corrupt(5);

  cluster.ArmByzantine(OnePlan(0xD9, {{3, ByzantineStrategy::kEquivocate},
                                      {5, ByzantineStrategy::kWrongShare}}));
  const obs::Snapshot before = obs::TakeSnapshot();
  const WindowReport report = cluster.RunUpdateWindow();
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  cluster.DisarmByzantine();
  spy.ObserveWindow();

  // Liveness.
  EXPECT_TRUE(report.ok);
  // Safety.
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
  // Privacy: t captured hosts reveal nothing, in-period or across periods.
  EXPECT_FALSE(spy.ExceedsPrivacyThreshold(1));
  EXPECT_FALSE(spy.AttemptReconstruction(1).has_value());
  EXPECT_FALSE(spy.AttemptMixedReconstruction(1).has_value());
  // Detection: the dealer-side cheater was attributed within the window.
  EXPECT_GE(obs::Value(delta, "byz.dealers_attributed"), 1u);
}

}  // namespace
}  // namespace pisces
