// Direct host state-machine tests: boot/shutdown semantics, cert handling,
// duplicate and out-of-order protocol messages, session lifecycle -- driven
// through a hand-built SimNet without the full Cluster facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "field/primes.h"
#include "pisces/host.h"

namespace pisces {
namespace {

// Collects everything addressed to an endpoint (plays the hypervisor).
class Collector : public net::MessageHandler {
 public:
  void HandleMessage(const net::Message& msg) override {
    messages.push_back(msg);
  }
  std::vector<net::Message> messages;
};

pss::Params SmallParams() {
  pss::Params p;
  p.n = 5;
  p.t = 1;
  p.l = 1;
  p.r = 1;
  p.field_bits = 256;
  return p;
}

class HostHarness {
 public:
  explicit HostHarness(pss::Params params = SmallParams())
      : params_(params), rng_(71), ca_(crypto::SchnorrGroup::Default(), rng_) {
    ctx_ = std::make_shared<const field::FpCtx>(field::StandardPrimeBe(256));
    for (std::uint32_t i = 0; i < params_.n; ++i) {
      endpoints_.push_back(net_.AddEndpoint(i));
      HostConfig hc;
      hc.id = i;
      hc.params = params_;
      hc.ctx = ctx_;
      hc.encrypt_links = false;  // these tests poke at plaintext protocol
      hosts_.push_back(std::make_unique<Host>(
          hc, *endpoints_.back(), crypto::SchnorrGroup::Default(),
          ca_.public_key()));
      sync_.Register(i, endpoints_.back(), hosts_.back().get());
      peers_.push_back(i);
    }
    hyper_ep_ = net_.AddEndpoint(net::kHypervisorId);
    sync_.Register(net::kHypervisorId, hyper_ep_, &collector_);
    BootBatch(peers_);
    sync_.RunToQuiescence();
  }

  // Boots `ids` the way the hypervisor does: fresh keys under one signed
  // snapshot, which every other host receives as kHostCert.
  void BootBatch(const std::vector<std::uint32_t>& ids) {
    std::vector<crypto::HostCert> batch;
    std::vector<Bytes> sks;
    for (std::uint32_t id : ids) {
      auto [cert, sk] = ca_.IssueHostKey(id, ++epoch_, rng_);
      certs_[id] = cert;
      batch.push_back(std::move(cert));
      sks.push_back(std::move(sk));
    }
    const crypto::CertSnapshot snap =
        ca_.IssueSnapshot(certs_, std::move(batch), rng_);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      net_.SetOffline(ids[i], false);
      hosts_[ids[i]]->Boot(std::move(sks[i]), certs_, snap);
    }
    for (std::uint32_t peer : peers_) {
      if (std::find(ids.begin(), ids.end(), peer) != ids.end()) continue;
      net::Message m;
      m.from = net::kHypervisorId;
      m.to = peer;
      m.type = net::MsgType::kHostCert;
      m.payload = snap.Serialize();
      hyper_ep_->Send(std::move(m));
    }
  }

  void InstallFile(std::uint64_t file_id, std::size_t blocks) {
    Rng rng(9);
    pss::PackedShamir shamir(ctx_, params_);
    FileMeta meta;
    meta.file_id = file_id;
    meta.raw_size = blocks;
    meta.num_elems = blocks;
    meta.num_blocks = blocks;
    metas_[file_id] = meta;
    std::vector<std::vector<field::FpElem>> per_host(
        params_.n, std::vector<field::FpElem>(blocks));
    for (std::size_t b = 0; b < blocks; ++b) {
      std::vector<field::FpElem> secrets;
      for (std::size_t j = 0; j < params_.l; ++j) {
        secrets.push_back(ctx_->Random(rng));
      }
      auto shares = shamir.ShareBlock(secrets, rng);
      for (std::size_t i = 0; i < params_.n; ++i) per_host[i][b] = shares[i];
    }
    for (std::size_t i = 0; i < params_.n; ++i) {
      hosts_[i]->store().Put(meta, field::SerializeElems(*ctx_, per_host[i]));
    }
  }

  // Sends kStartRefresh to every host, naming all of them as participants
  // (the payload the hypervisor sends). An explicit `payload` overrides it.
  void StartRefresh(std::uint64_t file_id, std::uint32_t epoch,
                    std::optional<Bytes> payload = std::nullopt) {
    std::vector<std::uint32_t> all(params_.n);
    for (std::uint32_t i = 0; i < params_.n; ++i) all[i] = i;
    StartRefreshAt(all, file_id, epoch, payload);
  }

  // Same, but the command reaches only the hosts in `to`.
  void StartRefreshAt(const std::vector<std::uint32_t>& to,
                      std::uint64_t file_id, std::uint32_t epoch,
                      std::optional<Bytes> payload = std::nullopt) {
    if (!payload) {
      ByteWriter w;
      w.U32(params_.n);
      for (std::uint32_t i = 0; i < params_.n; ++i) w.U32(i);
      payload = w.Take();
    }
    for (std::uint32_t i : to) {
      net::Message m;
      m.from = net::kHypervisorId;
      m.to = i;
      m.type = net::MsgType::kStartRefresh;
      m.file_id = file_id;
      m.epoch = epoch;
      m.payload = *payload;
      hyper_ep_->Send(std::move(m));
    }
  }

  // Secure reboot of `ids`: wiped, fresh keys, certs delivered.
  void Reboot(const std::vector<std::uint32_t>& ids) {
    for (std::uint32_t id : ids) hosts_[id]->Shutdown();
    BootBatch(ids);
    sync_.RunToQuiescence();
  }

  // Sends kStartRecovery of `file_id` toward `targets` to every host, naming
  // all other hosts as survivors (the payload the hypervisor sends).
  void StartRecovery(std::uint64_t file_id, std::uint32_t epoch,
                     const std::vector<std::uint32_t>& targets) {
    std::vector<std::uint32_t> survivors;
    for (std::uint32_t i = 0; i < params_.n; ++i) {
      if (std::find(targets.begin(), targets.end(), i) == targets.end()) {
        survivors.push_back(i);
      }
    }
    ByteWriter w;
    w.Blob(metas_.at(file_id).Serialize());
    w.U32(static_cast<std::uint32_t>(targets.size()));
    for (std::uint32_t id : targets) w.U32(id);
    w.U32(static_cast<std::uint32_t>(survivors.size()));
    for (std::uint32_t id : survivors) w.U32(id);
    const Bytes payload = w.Take();
    for (std::uint32_t i = 0; i < params_.n; ++i) {
      net::Message m;
      m.from = net::kHypervisorId;
      m.to = i;
      m.type = net::MsgType::kStartRecovery;
      m.file_id = file_id;
      m.epoch = epoch;
      m.payload = payload;
      hyper_ep_->Send(std::move(m));
    }
  }

  std::size_t DonesAtHypervisor() {
    std::size_t count = 0;
    for (const auto& m : collector_.messages) {
      if (m.type == net::MsgType::kPhaseDone && !m.payload.empty() &&
          m.payload[0] == 1) {
        ++count;
      }
    }
    collector_.messages.clear();
    return count;
  }

  pss::Params params_;
  std::shared_ptr<const field::FpCtx> ctx_;
  Rng rng_;
  crypto::CertAuthority ca_;
  net::SimNet net_;
  net::SyncNetwork sync_{net_};
  std::vector<net::SimEndpoint*> endpoints_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::uint32_t> peers_;
  net::SimEndpoint* hyper_ep_ = nullptr;
  Collector collector_;
  crypto::CertDirectory certs_;
  std::map<std::uint64_t, FileMeta> metas_;
  std::uint32_t epoch_ = 0;
};

TEST(HostDirect, RefreshCompletesAndReports) {
  HostHarness h;
  h.InstallFile(1, 3);
  h.StartRefresh(1, 50);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
  for (auto& host : h.hosts_) EXPECT_FALSE(host->HasActiveSessions());
}

TEST(HostDirect, EmptyStartRefreshIsDropped) {
  // The participant list is mandatory: an empty payload is malformed, starts
  // no session, and reports nothing. It does not burn the start-once key
  // either, so the well-formed command that follows still runs.
  HostHarness h;
  h.InstallFile(1, 3);
  h.StartRefresh(1, 50, Bytes{});
  h.sync_.RunToQuiescence();
  for (const auto& m : h.collector_.messages) {
    EXPECT_NE(m.type, net::MsgType::kPhaseDone) << m.Describe();
  }
  for (auto& host : h.hosts_) EXPECT_FALSE(host->HasActiveSessions());
  h.StartRefresh(1, 50);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
}

TEST(HostDirect, OfflineHostIgnoresMessages) {
  HostHarness h;
  h.InstallFile(1, 2);
  h.hosts_[2]->Shutdown();
  EXPECT_FALSE(h.hosts_[2]->online());
  net::Message m;
  m.from = net::kHypervisorId;
  m.to = 2;
  m.type = net::MsgType::kStartRefresh;
  m.file_id = 1;
  m.epoch = 60;
  h.hosts_[2]->HandleMessage(m);  // delivered directly, host offline
  EXPECT_FALSE(h.hosts_[2]->HasActiveSessions());
}

TEST(HostDirect, ShutdownWipesEverything) {
  HostHarness h;
  h.InstallFile(1, 2);
  EXPECT_TRUE(h.hosts_[0]->store().Has(1));
  h.hosts_[0]->Shutdown();
  EXPECT_FALSE(h.hosts_[0]->store().Has(1));
  EXPECT_EQ(h.hosts_[0]->store().SecondaryBytes(), 0u);
}

TEST(HostDirect, BootRejectsForeignCert) {
  HostHarness h;
  Rng rng(5);
  auto [cert, sk] = h.ca_.IssueHostKey(/*host_id=*/3, 9, rng);
  crypto::CertDirectory dir = h.certs_;
  dir[3] = cert;
  const crypto::CertSnapshot snap = h.ca_.IssueSnapshot(dir, {cert}, rng);
  // Booting host 0 from a snapshot that lists only host 3's cert must fail.
  EXPECT_THROW(h.hosts_[0]->Boot(sk, dir, snap), InvalidArgument);
}

TEST(HostDirect, StaleCertDoesNotDowngrade) {
  HostHarness h;
  Rng rng(6);
  auto [old_cert, sk1] = h.ca_.IssueHostKey(1, 1, rng);
  auto [new_cert, sk2] = h.ca_.IssueHostKey(1, 50, rng);
  const crypto::CertSnapshot older =
      h.ca_.IssueSnapshot(h.certs_, {old_cert}, rng);
  const crypto::CertSnapshot newer =
      h.ca_.IssueSnapshot(h.certs_, {new_cert}, rng);
  auto deliver = [&](const crypto::CertSnapshot& snap) {
    net::Message m;
    m.from = net::kHypervisorId;
    m.to = 0;
    m.type = net::MsgType::kHostCert;
    m.payload = snap.Serialize();
    h.hosts_[0]->HandleMessage(m);
  };
  deliver(newer);
  deliver(older);  // ignored: older seq (and older epoch)
  ASSERT_NE(h.hosts_[0]->PeerCert(1), nullptr);
  EXPECT_EQ(h.hosts_[0]->PeerCert(1)->epoch, 50u);
}

TEST(HostDirect, DuplicateDealsAreIdempotent) {
  HostHarness h;
  h.InstallFile(1, 2);
  // Capture one deal in flight and replay it after delivery.
  std::optional<net::Message> captured;
  h.net_.SetTap([&](const net::Message& m) {
    if (!captured && m.type == net::MsgType::kDeal && m.to == 4) captured = m;
  });
  h.StartRefresh(1, 70);
  h.sync_.RunToQuiescence();
  h.net_.SetTap(nullptr);
  ASSERT_TRUE(captured.has_value());
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
  // Replaying the deal after the session completed: buffered as pending (the
  // session is gone), then discarded on the next session's replay sweep.
  h.hosts_[4]->HandleMessage(*captured);
  EXPECT_FALSE(h.hosts_[4]->HasActiveSessions());
  // A fresh refresh still works.
  h.StartRefresh(1, 71);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
}

TEST(HostDirect, ForgedVerdictsAreRejected) {
  // Only a check row's verifier may send its verdict. With n = 5 and t = 1
  // there are two check rows, verified by hosts 0 and 1. Host 4 holds only
  // its self-deal when host 0 sends verdicts for rows it does not verify;
  // accepting them would complete host 4's round before its transform.
  HostHarness h;
  h.InstallFile(1, 3);
  h.StartRefreshAt({4}, 1, 50);
  h.sync_.RunToQuiescence();
  ASSERT_TRUE(h.hosts_[4]->HasActiveSessions());
  for (std::uint32_t row : {7u, 8u, 1u}) {
    net::Message forged;
    forged.from = 0;
    forged.to = 4;
    forged.type = net::MsgType::kVerdict;
    forged.file_id = 1;
    forged.epoch = 50;
    forged.row = row;
    forged.payload = Bytes{1};
    h.hosts_[4]->HandleMessage(forged);
  }
  EXPECT_TRUE(h.hosts_[4]->HasActiveSessions());
  EXPECT_EQ(h.DonesAtHypervisor(), 0u);
  // The honest round still completes everywhere (host 4 ignores the
  // duplicate start).
  h.StartRefresh(1, 50);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
  for (auto& host : h.hosts_) EXPECT_FALSE(host->HasActiveSessions());
}

TEST(HostDirect, MalformedBufferedDealDoesNotDropOthers) {
  // A malformed deal (empty payload) reaches host 4 before its session
  // exists and is buffered. Hosts 0-3 start first, so their genuine deals
  // queue behind it. Replaying the queue must drop only the bad message.
  HostHarness h;
  h.InstallFile(1, 3);
  net::Message bad;
  bad.from = 0;
  bad.to = 4;
  bad.type = net::MsgType::kDeal;
  bad.file_id = 1;
  bad.epoch = 50;
  h.hosts_[4]->HandleMessage(bad);
  h.StartRefreshAt({0, 1, 2, 3}, 1, 50);
  h.sync_.RunToQuiescence();
  h.StartRefreshAt({4}, 1, 50);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
  for (auto& host : h.hosts_) EXPECT_FALSE(host->HasActiveSessions());
}

// The serving shape n = 8, t = 1, l = 2 with a reboot batch of r = 2.
pss::Params TwoTargetParams() {
  pss::Params p;
  p.n = 8;
  p.t = 1;
  p.l = 2;
  p.r = 2;
  p.field_bits = 256;
  return p;
}

TEST(HostDirect, RecoveryChunkRunsOneVssRound) {
  // One VSS round masks both targets: S survivors exchange S(S-1) deals,
  // 2t(S-1) check shares and 2t(S-1) verdicts, then each ships one masked
  // share per target.
  HostHarness h(TwoTargetParams());
  h.InstallFile(1, 5);
  const std::vector<std::uint32_t> targets = {5, 2};
  std::map<std::uint32_t, std::vector<field::FpElem>> truth;
  for (std::uint32_t id : targets) {
    truth[id] = h.hosts_[id]->store().Decode(1);
  }
  h.Reboot(targets);
  std::map<net::MsgType, std::size_t> counts;
  h.net_.SetTap([&](const net::Message& m) { counts[m.type] += 1; });
  h.StartRecovery(1, 60, targets);
  h.sync_.RunToQuiescence();
  h.net_.SetTap(nullptr);

  const std::size_t S = h.params_.n - targets.size();
  const std::size_t rows = h.params_.check_rows();
  EXPECT_EQ(counts[net::MsgType::kDeal], S * (S - 1));
  EXPECT_EQ(counts[net::MsgType::kCheckShare], rows * (S - 1));
  EXPECT_EQ(counts[net::MsgType::kVerdict], rows * (S - 1));
  EXPECT_EQ(counts[net::MsgType::kMaskedShare], targets.size() * S);
  EXPECT_EQ(h.DonesAtHypervisor(), targets.size());
  for (std::uint32_t id : targets) {
    EXPECT_EQ(h.hosts_[id]->store().Decode(1), truth[id]) << "target " << id;
  }
  for (auto& host : h.hosts_) EXPECT_FALSE(host->HasActiveSessions());
}

TEST(HostDirect, RecoveryMessagesOfOneTargetLayoutAreDropped) {
  // A kDeal or kCheckShare sized for one target's groups (G elements, not
  // r * G) fails the group-count check and is dropped; the genuine messages
  // behind it complete the round.
  HostHarness h(TwoTargetParams());
  h.InstallFile(1, 5);
  const std::vector<std::uint32_t> targets = {2, 5};
  const std::vector<field::FpElem> truth = h.hosts_[2]->store().Decode(1);
  h.Reboot(targets);
  const std::size_t groups =
      pss::RecoveryPlan::For(5, h.params_, targets).groups;
  net::Message deal;
  deal.from = 0;
  deal.to = 3;
  deal.type = net::MsgType::kDeal;
  deal.file_id = 1;
  deal.epoch = 61;
  deal.payload = field::SerializeElems(
      *h.ctx_, std::vector<field::FpElem>(groups, h.ctx_->Zero()));
  h.hosts_[3]->HandleMessage(deal);
  net::Message check = deal;  // row 0 is verified by survivor 0
  check.from = 3;
  check.to = 0;
  check.type = net::MsgType::kCheckShare;
  check.row = 0;
  h.hosts_[0]->HandleMessage(check);
  h.StartRecovery(1, 61, targets);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), targets.size());
  EXPECT_EQ(h.hosts_[2]->store().Decode(1), truth);
  for (auto& host : h.hosts_) EXPECT_FALSE(host->HasActiveSessions());
}

// Element payloads of `count` elements, malformed each way a receiver must
// catch: ragged, one element short, and an element equal to p.
std::vector<Bytes> MalformedPayloads(const field::FpCtx& ctx,
                                     std::size_t count) {
  const Bytes good = field::SerializeElems(
      ctx, std::vector<field::FpElem>(count, ctx.One()));
  Bytes ragged = good;
  ragged.pop_back();
  const Bytes short_by_one(good.begin(), good.end() - ctx.elem_bytes());
  Bytes not_below_p = good;
  for (std::size_t i = 0; i < ctx.limbs(); ++i) {
    StoreLe64(ctx.modulus()[i], not_below_p.data() + 8 * i);
  }
  return {ragged, short_by_one, not_below_p};
}

// The l secrets of every block, reconstructed from the first d+1 hosts.
std::vector<std::vector<field::FpElem>> Secrets(HostHarness& h,
                                                std::uint64_t file_id) {
  const pss::PackedShamir shamir(h.ctx_, h.params_);
  std::vector<std::uint32_t> parties;
  std::vector<std::vector<field::FpElem>> rows;
  for (std::uint32_t i = 0; i <= h.params_.degree(); ++i) {
    parties.push_back(i);
    rows.push_back(h.hosts_[i]->store().Decode(file_id));
  }
  std::vector<std::vector<field::FpElem>> by_block(rows[0].size());
  for (std::size_t b = 0; b < by_block.size(); ++b) {
    for (const auto& row : rows) by_block[b].push_back(row[b]);
  }
  return shamir.ReconstructBlocks(parties, by_block);
}

TEST(HostDirect, MalformedRefreshPayloadsAreDropped) {
  // Deal and CheckShare payloads that are malformed reach hosts 4 and 0
  // before the round starts and are buffered; replaying them drops each
  // (DropIfMalformed), so no session keeps one in place of the honest
  // message, and the round refreshes every share without moving a secret.
  HostHarness h;
  h.InstallFile(1, 3);
  const auto secrets = Secrets(h, 1);
  std::vector<std::vector<field::FpElem>> before;
  for (auto& host : h.hosts_) before.push_back(host->store().Decode(1));
  const std::size_t groups =
      pss::MakeRefreshBatch(pss::PackedShamir(h.ctx_, h.params_), 3).groups();
  for (const Bytes& payload : MalformedPayloads(*h.ctx_, groups)) {
    net::Message deal;
    deal.from = 0;
    deal.to = 4;
    deal.type = net::MsgType::kDeal;
    deal.file_id = 1;
    deal.epoch = 50;
    deal.payload = payload;
    h.hosts_[4]->HandleMessage(deal);
    net::Message check = deal;  // row 0 is verified by host 0
    check.from = 3;
    check.to = 0;
    check.type = net::MsgType::kCheckShare;
    check.row = 0;
    h.hosts_[0]->HandleMessage(check);
  }
  h.StartRefresh(1, 50);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
  for (std::size_t i = 0; i < h.hosts_.size(); ++i) {
    EXPECT_FALSE(h.hosts_[i]->HasActiveSessions());
    EXPECT_EQ(h.hosts_[i]->verdicts_rejected(), 0u);
    EXPECT_NE(h.hosts_[i]->store().Decode(1), before[i]) << "host " << i;
  }
  EXPECT_EQ(Secrets(h, 1), secrets);
}

TEST(HostDirect, MalformedMaskedSharesAreDropped) {
  // The same for a recovery target: malformed MaskedShare payloads from
  // survivor 0 are dropped, and its honest one rebuilds the target's shares.
  HostHarness h(TwoTargetParams());
  h.InstallFile(1, 5);
  const std::vector<std::uint32_t> targets = {2, 5};
  const std::vector<field::FpElem> truth = h.hosts_[2]->store().Decode(1);
  h.Reboot(targets);
  for (const Bytes& payload : MalformedPayloads(*h.ctx_, 5)) {
    net::Message masked;
    masked.from = 0;
    masked.to = 2;
    masked.type = net::MsgType::kMaskedShare;
    masked.file_id = 1;
    masked.epoch = 61;
    masked.row = 2;
    masked.payload = payload;
    h.hosts_[2]->HandleMessage(masked);
  }
  h.StartRecovery(1, 61, targets);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), targets.size());
  EXPECT_EQ(h.hosts_[2]->store().Decode(1), truth);
  for (auto& host : h.hosts_) EXPECT_FALSE(host->HasActiveSessions());
}

TEST(HostDirect, RefreshOfAFileReplacedMidRoundIsDropped) {
  // Host 0's file 1 is replaced by a shorter one while its refresh round is
  // in flight. Adding the round's zero-shares would run past the new bytes,
  // so host 0 drops the completion and keeps the new file as it is.
  HostHarness h;
  h.InstallFile(1, 3);
  h.StartRefreshAt({0, 1, 2, 3}, 1, 50);
  h.sync_.RunToQuiescence();
  FileMeta shorter = h.metas_.at(1);
  shorter.num_blocks = 2;
  shorter.num_elems = 2;
  const Bytes replaced = field::SerializeElems(
      *h.ctx_, std::vector<field::FpElem>(2, h.ctx_->One()));
  h.hosts_[0]->store().Put(shorter, replaced);
  h.StartRefreshAt({4}, 1, 50);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n - 1);
  EXPECT_TRUE(std::ranges::equal(h.hosts_[0]->store().AtRest(1), replaced));
}

TEST(HostDirect, RefreshForUnknownFileReportsDone) {
  HostHarness h;  // no file installed
  h.StartRefresh(99, 80);
  h.sync_.RunToQuiescence();
  EXPECT_EQ(h.DonesAtHypervisor(), h.params_.n);
}

TEST(HostDirect, MetricsBucketsFill) {
  HostHarness h;
  h.InstallFile(1, 4);
  h.StartRefresh(1, 90);
  h.sync_.RunToQuiescence();
  const HostMetrics& m = h.hosts_[0]->metrics();
  EXPECT_GT(m.rerandomize.cpu_ns, 0u);
  EXPECT_GT(m.rerandomize.bytes_sent, 0u);
  EXPECT_GT(m.rerandomize.msgs_sent, 0u);
  EXPECT_EQ(m.serve.msgs_sent, 0u);  // no client traffic in this test
}

}  // namespace
}  // namespace pisces
