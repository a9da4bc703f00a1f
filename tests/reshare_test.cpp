// Resharing to a new group (dynamic-group extension): the ReferenceReshare
// oracle, the decomposed contribution/verify API, and the differential suite
// pinning Hypervisor::Reshare against the oracle (docs/resharding.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/task_pool.h"
#include "field/primes.h"
#include "net/net_obs.h"
#include "obs/registry.h"
#include "pisces/cluster.h"
#include "pss/reshare.h"

namespace pisces::pss {
namespace {

using field::FpCtx;
using field::FpElem;

class ReshareTest : public ::testing::Test {
 protected:
  ReshareTest()
      : ctx_(std::make_shared<const FpCtx>(field::StandardPrimeBe(256))),
        rng_(41) {}

  PackedShamir Make(std::size_t n, std::size_t t, std::size_t l) {
    Params p;
    p.n = n;
    p.t = t;
    p.l = l;
    p.field_bits = 256;
    return PackedShamir(ctx_, p);
  }

  // shares_by_party[i][blk] for `blocks` random blocks; returns secrets too.
  std::pair<std::vector<std::vector<FpElem>>, std::vector<std::vector<FpElem>>>
  ShareBlocks(const PackedShamir& scheme, std::size_t blocks) {
    const Params& p = scheme.params();
    std::vector<std::vector<FpElem>> by_party(p.n,
                                              std::vector<FpElem>(blocks));
    std::vector<std::vector<FpElem>> secrets(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t j = 0; j < p.l; ++j) {
        secrets[b].push_back(ctx_->Random(rng_));
      }
      auto sh = scheme.ShareBlock(secrets[b], rng_);
      for (std::size_t i = 0; i < p.n; ++i) by_party[i][b] = sh[i];
    }
    return {std::move(by_party), std::move(secrets)};
  }

  void ExpectSecrets(const PackedShamir& scheme,
                     const std::vector<std::vector<FpElem>>& by_party,
                     const std::vector<std::vector<FpElem>>& secrets) {
    const Params& p = scheme.params();
    std::vector<std::uint32_t> parties;
    for (std::uint32_t i = 0; i < p.n; ++i) parties.push_back(i);
    for (std::size_t b = 0; b < secrets.size(); ++b) {
      std::vector<FpElem> sh;
      for (std::size_t i = 0; i < p.n; ++i) sh.push_back(by_party[i][b]);
      ASSERT_TRUE(math::PointsOnLowDegree(*ctx_,
                                          scheme.points().AlphasOf(parties),
                                          sh, scheme.params().degree()))
          << "block " << b;
      auto rec = scheme.ReconstructBlock(parties, sh);
      for (std::size_t j = 0; j < p.l; ++j) {
        EXPECT_TRUE(ctx_->Eq(rec[j], secrets[b][j])) << b << "," << j;
      }
    }
  }

  // ReshareContribution from an element share vector.
  std::vector<Bytes> Contribute(const ResharePublic& pub, std::size_t ordinal,
                                const std::vector<FpElem>& own) {
    return ReshareContribution(pub, ordinal,
                               field::SerializeElems(*ctx_, own), rng_);
  }
  // Contribution rows as elements, [rho][blk], and back.
  std::vector<std::vector<FpElem>> Elems(const std::vector<Bytes>& rows) {
    std::vector<std::vector<FpElem>> out;
    for (const Bytes& row : rows) {
      out.push_back(field::DeserializeElems(*ctx_, row));
    }
    return out;
  }
  std::vector<Bytes> Rows(const std::vector<std::vector<FpElem>>& elems) {
    std::vector<Bytes> out;
    for (const auto& row : elems) {
      out.push_back(field::SerializeElems(*ctx_, row));
    }
    return out;
  }

  std::shared_ptr<const FpCtx> ctx_;
  Rng rng_;
};

TEST_F(ReshareTest, GrowTheGroup) {
  PackedShamir from = Make(8, 1, 2);
  PackedShamir to = Make(13, 3, 2);
  auto [old_shares, secrets] = ShareBlocks(from, 4);
  auto new_shares = ReferenceReshare(from, to, old_shares, rng_);
  ASSERT_EQ(new_shares.size(), 13u);
  ExpectSecrets(to, new_shares, secrets);
}

TEST_F(ReshareTest, ShrinkTheGroup) {
  PackedShamir from = Make(13, 3, 2);
  PackedShamir to = Make(8, 1, 2);
  auto [old_shares, secrets] = ShareBlocks(from, 3);
  auto new_shares = ReferenceReshare(from, to, old_shares, rng_);
  ExpectSecrets(to, new_shares, secrets);
}

TEST_F(ReshareTest, SameShapeStillRerandomizes) {
  PackedShamir from = Make(10, 2, 2);
  PackedShamir to = Make(10, 2, 2);
  auto [old_shares, secrets] = ShareBlocks(from, 3);
  auto new_shares = ReferenceReshare(from, to, old_shares, rng_);
  ExpectSecrets(to, new_shares, secrets);
  // Every share changed: resharing implies rerandomization.
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t b = 0; b < 3; ++b) {
      EXPECT_FALSE(ctx_->Eq(new_shares[i][b], old_shares[i][b]));
    }
  }
}

TEST_F(ReshareTest, RaiseThreshold) {
  PackedShamir from = Make(13, 2, 3);
  PackedShamir to = Make(13, 3, 3);
  auto [old_shares, secrets] = ShareBlocks(from, 2);
  auto new_shares = ReferenceReshare(from, to, old_shares, rng_);
  ExpectSecrets(to, new_shares, secrets);
  // New sharing really has the new (higher) degree: t_new shares plus the
  // secrets leave randomness -- spot check that d_new+1 shares are needed by
  // failing reconstruction from d_old+1 < d_new+1 shares.
  std::vector<std::uint32_t> few;
  std::vector<FpElem> sh;
  for (std::uint32_t i = 0; i <= from.params().degree(); ++i) {
    few.push_back(i);
    sh.push_back(new_shares[i][0]);
  }
  // Interpolating with too few points must NOT yield the secrets (whp).
  auto wrong = math::LagrangeEval(
      *ctx_, to.points().AlphasOf(few),
      sh, to.points().beta(0));
  EXPECT_FALSE(ctx_->Eq(wrong, secrets[0][0]));
}

TEST_F(ReshareTest, PackingMismatchRejected) {
  PackedShamir from = Make(8, 1, 2);
  PackedShamir to = Make(13, 2, 3);
  auto [old_shares, secrets] = ShareBlocks(from, 1);
  EXPECT_THROW(ReferenceReshare(from, to, old_shares, rng_), InvalidArgument);
}

TEST_F(ReshareTest, ContributionIsMaskedPerContributor) {
  // The value one old party sends is uniform without the others: two runs
  // with different mask randomness differ even for identical shares.
  PackedShamir from = Make(8, 1, 2);
  PackedShamir to = Make(8, 1, 2);
  auto [old_shares, secrets] = ShareBlocks(from, 1);
  Rng rng_a(1), rng_b(2);
  auto a = ReferenceReshare(from, to, old_shares, rng_a);
  auto b = ReferenceReshare(from, to, old_shares, rng_b);
  EXPECT_FALSE(ctx_->Eq(a[0][0], b[0][0]));
  ExpectSecrets(to, a, secrets);
  ExpectSecrets(to, b, secrets);
}

// ---- decomposed execution-path API ----------------------------------------

TEST_F(ReshareTest, ContributionsVerifyAndCompose) {
  PackedShamir from = Make(8, 1, 2);
  PackedShamir to = Make(13, 3, 2);
  auto [old_shares, secrets] = ShareBlocks(from, 3);

  std::vector<std::uint32_t> contributors;
  for (std::uint32_t i = 0; i <= from.params().degree(); ++i) {
    contributors.push_back(i);
  }
  ResharePublic pub = MakeResharePublic(from, to, contributors);

  std::vector<Bytes> acc;
  for (std::size_t ord = 0; ord < contributors.size(); ++ord) {
    auto c = Contribute(pub, ord, old_shares[contributors[ord]]);
    ASSERT_TRUE(VerifyReshareContribution(pub, ord, c)) << "ordinal " << ord;
    AccumulateReshare(*ctx_, acc, c);
  }
  ExpectSecrets(to, Elems(acc), secrets);
}

TEST_F(ReshareTest, VerifierRejectsPerturbedContribution) {
  PackedShamir from = Make(8, 1, 2);
  PackedShamir to = Make(10, 2, 2);
  auto [old_shares, secrets] = ShareBlocks(from, 2);
  std::vector<std::uint32_t> contributors;
  for (std::uint32_t i = 0; i <= from.params().degree(); ++i) {
    contributors.push_back(i);
  }
  ResharePublic pub = MakeResharePublic(from, to, contributors);
  auto c = Contribute(pub, 0, old_shares[0]);
  ASSERT_TRUE(VerifyReshareContribution(pub, 0, c));

  // Equivocation analog: one recipient's evaluation is off the polynomial.
  auto bad = Elems(c);
  bad[3][1] = ctx_->Add(bad[3][1], ctx_->One());
  EXPECT_FALSE(VerifyReshareContribution(pub, 0, Rows(bad)));

  // Random garbage of the right shape.
  auto noise = Elems(c);
  for (auto& row : noise) {
    for (auto& e : row) e = ctx_->Random(rng_);
  }
  EXPECT_FALSE(VerifyReshareContribution(pub, 0, Rows(noise)));

  // Wrong shape is rejected outright, never indexed out of bounds.
  auto short_rows = c;
  short_rows.pop_back();
  EXPECT_FALSE(VerifyReshareContribution(pub, 0, short_rows));

  // A row one byte short.
  auto ragged = c;
  ragged[2].pop_back();
  EXPECT_FALSE(VerifyReshareContribution(pub, 0, ragged));

  // An element equal to p, which is not a field element, in a block that is
  // otherwise all zeros: read as a residue it would be 0, and pass.
  auto wide = c;
  const std::size_t eb = ctx_->elem_bytes();
  for (Bytes& row : wide) std::fill_n(row.begin() + eb, eb, 0);
  ASSERT_TRUE(VerifyReshareContribution(pub, 0, wide));
  const Bytes p_be = ctx_->ModulusBytes();
  std::copy(p_be.rbegin(), p_be.rend(), wide[4].begin() + eb);
  EXPECT_FALSE(VerifyReshareContribution(pub, 0, wide));
}

TEST_F(ReshareTest, VerifierRejectsConsistentLowDegreeShiftForPackedBlocks) {
  // The corrupt-deal analog: a degree-respecting additive shift that changes
  // the dealt value. The column degree check passes; the beta-consistency
  // cross-check catches it because l >= 2 couples the shifted evaluations.
  // For l == 1 this freedom is genuinely unverifiable without commitments --
  // which is why every reshare drill runs l >= 2 (docs/resharding.md).
  PackedShamir from = Make(10, 2, 2);
  PackedShamir to = Make(10, 2, 2);
  auto [old_shares, secrets] = ShareBlocks(from, 1);
  std::vector<std::uint32_t> contributors;
  for (std::uint32_t i = 0; i <= from.params().degree(); ++i) {
    contributors.push_back(i);
  }
  ResharePublic pub = MakeResharePublic(from, to, contributors);
  auto c = Contribute(pub, 0, old_shares[0]);
  ASSERT_TRUE(VerifyReshareContribution(pub, 0, c));

  // Shift the whole column by a constant: still degree <= d', but the
  // implied evaluations at the betas no longer share the contributor's
  // secret-proportionality.
  auto shifted = Elems(c);
  for (auto& row : shifted) row[0] = ctx_->Add(row[0], ctx_->One());
  EXPECT_FALSE(VerifyReshareContribution(pub, 0, Rows(shifted)));
}

TEST_F(ReshareTest, OracleAllStandardPrimeSizes) {
  for (std::size_t bits : {256u, 512u, 1024u, 2048u}) {
    auto ctx = std::make_shared<const FpCtx>(field::StandardPrimeBe(bits));
    Params fp;
    fp.n = 8;
    fp.t = 1;
    fp.l = 2;
    fp.field_bits = bits;
    Params tp = fp;
    tp.n = 10;
    tp.t = 2;
    PackedShamir from(ctx, fp);
    PackedShamir to(ctx, tp);

    Rng rng(bits);
    std::vector<FpElem> secret{ctx->Random(rng), ctx->Random(rng)};
    auto block = from.ShareBlock(secret, rng);
    std::vector<std::vector<FpElem>> by_party(fp.n);
    for (std::size_t i = 0; i < fp.n; ++i) by_party[i] = {block[i]};

    auto reshared = ReferenceReshare(from, to, by_party, rng);
    std::vector<std::uint32_t> parties;
    std::vector<FpElem> sh;
    for (std::uint32_t i = 0; i < tp.n; ++i) {
      parties.push_back(i);
      sh.push_back(reshared[i][0]);
    }
    ASSERT_TRUE(math::PointsOnLowDegree(*ctx, to.points().AlphasOf(parties),
                                        sh, tp.degree()))
        << bits << "-bit";
    auto rec = to.ReconstructBlock(parties, sh);
    for (std::size_t j = 0; j < tp.l; ++j) {
      EXPECT_TRUE(ctx->Eq(rec[j], secret[j])) << bits << "-bit, secret " << j;
    }
  }
}

}  // namespace
}  // namespace pisces::pss

// ---- differential: cluster-driven reshare vs the oracle --------------------

namespace pisces {
namespace {

using field::FpElem;

ClusterConfig ReshareClusterConfig(std::size_t n, std::size_t t,
                                   std::uint64_t seed, std::size_t bits = 256) {
  ClusterConfig cfg;
  cfg.params.n = n;
  cfg.params.t = t;
  cfg.params.l = 2;  // l >= 2: reshare verification needs packed blocks
  cfg.params.field_bits = bits;
  cfg.seed = seed;
  return cfg;
}

Bytes DeterministicFile(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  return rng.RandomBytes(size);
}

// Per-party share snapshot of every file on the first `n` hosts.
std::map<std::uint64_t, std::vector<std::vector<FpElem>>> SnapshotShares(
    Cluster& cluster, std::size_t n) {
  std::map<std::uint64_t, std::vector<std::vector<FpElem>>> out;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint64_t id : cluster.host(i).store().FileIds()) {
      auto& slot = out[id];
      if (slot.size() < n) slot.resize(n);
      slot[i] = cluster.host(i).store().Decode(id);
    }
  }
  return out;
}

// Reconstructs every block's secrets from a full per-party share snapshot.
std::vector<std::vector<FpElem>> SecretsOf(
    const pss::PackedShamir& scheme,
    const std::vector<std::vector<FpElem>>& by_party) {
  const std::size_t blocks = by_party.at(0).size();
  std::vector<std::uint32_t> parties;
  for (std::uint32_t i = 0; i < scheme.params().n; ++i) parties.push_back(i);
  std::vector<std::vector<FpElem>> secrets;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<FpElem> sh;
    for (std::uint32_t i : parties) sh.push_back(by_party[i][b]);
    secrets.push_back(scheme.ReconstructBlock(parties, sh));
  }
  return secrets;
}

class ReshareClusterTest : public ::testing::Test {
 protected:
  // Uploads `files` deterministic files and returns their download images.
  std::map<std::uint64_t, Bytes> Seed(Cluster& cluster, std::size_t files) {
    std::map<std::uint64_t, Bytes> images;
    for (std::uint64_t id = 1; id <= files; ++id) {
      Bytes data = DeterministicFile(400 + 97 * id, id);
      cluster.Upload(id, data);
      images[id] = std::move(data);
    }
    return images;
  }

  // Bit-identical downloads against the recorded images.
  void ExpectDownloads(Cluster& cluster,
                       const std::map<std::uint64_t, Bytes>& images) {
    for (const auto& [id, data] : images) {
      EXPECT_EQ(cluster.Download(ReadSpec::Classic(id)), data)
          << "file " << id;
    }
  }
};

TEST_F(ReshareClusterTest, GrowMatchesOracleWithoutReconstruction) {
  Cluster cluster(ReshareClusterConfig(8, 1, 77));
  auto images = Seed(cluster, 3);

  const pss::PackedShamir from(cluster.ctx_ptr(), cluster.config().params);
  auto before = SnapshotShares(cluster, 8);

  pss::Params to = cluster.config().params;
  to.n = 13;
  to.t = 3;
  const obs::Snapshot snap = obs::TakeSnapshot();
  ReshareReport report = cluster.Reshare(to);
  const obs::Snapshot delta = obs::Delta(snap, obs::TakeSnapshot());

  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.files, 3u);
  EXPECT_EQ(report.hosts_added, 5u);
  EXPECT_EQ(report.contributions_rejected, 0u);

  // The no-reconstruction invariant, asserted two ways: the obs counters saw
  // one migration and zero full-file reconstructions, and not one byte of
  // reconstruct-request or recovery masked-share traffic moved.
  EXPECT_EQ(obs::Value(delta, "reshare.migrations"), 1u);
  EXPECT_EQ(obs::Value(delta, "reshare.files"), 3u);
  EXPECT_EQ(obs::Value(delta, std::string("net.bytes_sent.") +
                                  net::MsgTypeName(
                                      net::MsgType::kReconstructRequest)),
            0u);
  EXPECT_EQ(obs::Value(delta, std::string("net.bytes_sent.") +
                                  net::MsgTypeName(net::MsgType::kMaskedShare)),
            0u);

  // Differential against the oracle: the new sharing holds exactly the
  // secrets the old one held (ReferenceReshare is the spec of "same secrets,
  // new group"), and the files decode bit-identically.
  const pss::PackedShamir to_scheme(cluster.ctx_ptr(), to);
  auto after = SnapshotShares(cluster, 13);
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [id, old_shares] : before) {
    auto oracle_secrets = SecretsOf(from, old_shares);
    auto live_secrets = SecretsOf(to_scheme, after.at(id));
    ASSERT_EQ(live_secrets.size(), oracle_secrets.size()) << "file " << id;
    for (std::size_t b = 0; b < oracle_secrets.size(); ++b) {
      for (std::size_t j = 0; j < oracle_secrets[b].size(); ++j) {
        EXPECT_TRUE(
            cluster.ctx().Eq(live_secrets[b][j], oracle_secrets[b][j]))
            << "file " << id << " block " << b << " secret " << j;
      }
    }
  }
  ExpectDownloads(cluster, images);

  // The grown fleet is a fully functional PSS group: refresh + reboot run.
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  ExpectDownloads(cluster, images);
}

TEST_F(ReshareClusterTest, ShrinkKeepsEverySecretAndDownload) {
  Cluster cluster(ReshareClusterConfig(13, 3, 78));
  auto images = Seed(cluster, 2);
  const pss::PackedShamir from(cluster.ctx_ptr(), cluster.config().params);
  auto before = SnapshotShares(cluster, 13);

  pss::Params to = cluster.config().params;
  to.n = 8;
  to.t = 1;
  ReshareReport report = cluster.Reshare(to);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.hosts_retired, 5u);

  const pss::PackedShamir to_scheme(cluster.ctx_ptr(), to);
  auto after = SnapshotShares(cluster, 8);
  for (const auto& [id, old_shares] : before) {
    auto oracle_secrets = SecretsOf(from, old_shares);
    auto live_secrets = SecretsOf(to_scheme, after.at(id));
    for (std::size_t b = 0; b < oracle_secrets.size(); ++b) {
      for (std::size_t j = 0; j < oracle_secrets[b].size(); ++j) {
        EXPECT_TRUE(
            cluster.ctx().Eq(live_secrets[b][j], oracle_secrets[b][j]));
      }
    }
  }
  ExpectDownloads(cluster, images);
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  ExpectDownloads(cluster, images);
}

TEST_F(ReshareClusterTest, DegenerateReshareRerandomizesInPlace) {
  Cluster cluster(ReshareClusterConfig(10, 2, 79));
  auto images = Seed(cluster, 2);
  auto before = SnapshotShares(cluster, 10);

  // Same shape: a pure redistribution round (the autoscaler's re-provision
  // primitive). Every share must change; every secret and byte must not.
  ReshareReport report = cluster.Reshare(cluster.config().params);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.hosts_added, 0u);
  EXPECT_EQ(report.hosts_retired, 0u);

  auto after = SnapshotShares(cluster, 10);
  for (const auto& [id, old_shares] : before) {
    for (std::size_t i = 0; i < old_shares.size(); ++i) {
      for (std::size_t b = 0; b < old_shares[i].size(); ++b) {
        EXPECT_FALSE(cluster.ctx().Eq(after.at(id)[i][b], old_shares[i][b]))
            << "share unchanged: file " << id << " host " << i;
      }
    }
  }
  ExpectDownloads(cluster, images);
}

TEST_F(ReshareClusterTest, AllStandardPrimeSizes) {
  for (std::size_t bits : {256u, 512u, 1024u, 2048u}) {
    Cluster cluster(ReshareClusterConfig(8, 1, 80 + bits, bits));
    auto images = Seed(cluster, 1);
    pss::Params to = cluster.config().params;
    to.n = 10;
    to.t = 2;
    EXPECT_TRUE(cluster.Reshare(to).ok) << bits << "-bit";
    ExpectDownloads(cluster, images);
  }
}

TEST_F(ReshareClusterTest, PoolSizeBitIdentity) {
  // The migrated share material must be a pure function of the seed: pool
  // width is a wall-clock knob, never a value knob (the determinism contract
  // of common/task_pool.h), including across a live reshare.
  auto run = [&](std::size_t threads) {
    SetGlobalPoolThreads(threads);
    Cluster cluster(ReshareClusterConfig(8, 1, 81));
    Seed(cluster, 2);
    pss::Params to = cluster.config().params;
    to.n = 12;
    to.t = 2;
    EXPECT_TRUE(cluster.Reshare(to).ok);
    std::map<std::uint64_t, std::vector<std::vector<Bytes>>> image;
    for (const auto& [id, shares] : SnapshotShares(cluster, 12)) {
      auto& file_image = image[id];
      for (const auto& host_shares : shares) {
        file_image.push_back({});
        for (const FpElem& e : host_shares) {
          file_image.back().push_back(cluster.ctx().ToBytes(e));
        }
      }
    }
    return image;
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto eight = run(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST_F(ReshareClusterTest, EquivocatingContributorExcludedAndRetried) {
  Cluster cluster(ReshareClusterConfig(10, 2, 82));
  auto images = Seed(cluster, 2);

  ByzantinePlan plan;
  plan.seed = 5;
  plan.hosts[2] = ByzantineStrategy::kEquivocate;
  cluster.ArmByzantine(plan);

  pss::Params to = cluster.config().params;
  to.n = 12;
  ReshareReport report = cluster.Reshare(to);
  cluster.DisarmByzantine();

  // The tampered contribution failed public verification; the offender was
  // excluded and the file's round re-ran with honest contributors. The
  // report names the exclusion.
  EXPECT_TRUE(report.ok);
  EXPECT_GE(report.contributions_rejected, 1u);
  EXPECT_GE(report.retries, 1u);
  EXPECT_TRUE(std::any_of(
      report.failures.begin(), report.failures.end(),
      [](const std::string& line) {
        return line.starts_with("host 2 excluded: corrupt reshare");
      }));
  ExpectDownloads(cluster, images);
}

TEST_F(ReshareClusterTest, SilentContributorToleratedViaRetry) {
  Cluster cluster(ReshareClusterConfig(10, 2, 83));
  auto images = Seed(cluster, 1);

  ByzantinePlan plan;
  plan.seed = 6;
  plan.hosts[1] = ByzantineStrategy::kWithhold;
  cluster.ArmByzantine(plan);

  const std::set<std::uint32_t> before =
      cluster.hypervisor().excluded_dealers();
  ReshareReport report = cluster.Reshare(cluster.config().params);
  cluster.DisarmByzantine();

  EXPECT_TRUE(report.ok);
  EXPECT_GE(report.contributions_withheld, 1u);
  // One line per newly excluded contributor, none for anybody else.
  for (std::uint32_t id = 0; id < 10; ++id) {
    const bool newly = cluster.hypervisor().excluded_dealers().count(id) != 0 &&
                       before.count(id) == 0;
    EXPECT_EQ(std::count(report.failures.begin(), report.failures.end(),
                         "host " + std::to_string(id) +
                             " excluded: silent reshare contributor"),
              newly ? 1 : 0)
        << "host " << id;
  }
  ExpectDownloads(cluster, images);
}

TEST_F(ReshareClusterTest, MismatchedPackingOrFieldRefused) {
  Cluster cluster(ReshareClusterConfig(8, 1, 84));
  Seed(cluster, 1);
  pss::Params bad_l = cluster.config().params;
  bad_l.n = 13;
  bad_l.t = 2;
  bad_l.l = 3;
  EXPECT_THROW(cluster.Reshare(bad_l), Error);
  pss::Params bad_field = cluster.config().params;
  bad_field.field_bits = 512;
  EXPECT_THROW(cluster.Reshare(bad_field), Error);
}

}  // namespace
}  // namespace pisces
