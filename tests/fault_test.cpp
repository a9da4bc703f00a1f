// Fault injection: corrupt dealers caught by hyperinvertible verification,
// tampered channel traffic dropped, stuck sessions detected (bounded-delay
// timeout path), malformed messages survived.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "pisces/pisces.h"

namespace pisces {
namespace {

ClusterConfig Config() {
  ClusterConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = 31;
  return cfg;
}

TEST(Fault, TamperedDealIsRejectedByChannelAuth) {
  // Flipping bytes of an encrypted kDeal makes the HMAC fail; the host drops
  // the message and the first refresh round times out. The hypervisor then
  // RETRIES, the tamperer is one-shot, and the second round completes: the
  // window no longer aborts on a transient fault.
  Cluster cluster(Config());
  Rng rng(1);
  Bytes file = rng.RandomBytes(400);
  cluster.Upload(1, file);

  bool tampered = false;
  cluster.net().SetMutator([&](net::Message& m) {
    if (!tampered && m.type == net::MsgType::kDeal && m.from == 2) {
      m.payload[m.payload.size() / 2] ^= 0x55;
      tampered = true;
    }
    return true;
  });
  WindowReport report;
  EXPECT_TRUE(cluster.hypervisor().RefreshAllFiles(&report));
  cluster.net().SetMutator(nullptr);
  EXPECT_TRUE(tampered);
  EXPECT_GE(report.refresh_retries, 1u);
  EXPECT_GE(report.timeouts_fired, 1u);
  // A single dropped dealing is one strike, not an exclusion.
  EXPECT_TRUE(cluster.hypervisor().excluded_dealers().empty());
  // Shares were consistently updated: the file still downloads.
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
  // And the next (untampered) window is clean.
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Fault, CorruptDealerCaughtWithPlaintextLinks) {
  // With encryption off, a corrupted payload reaches the VSS layer itself:
  // the check-row verification rejects the round, the hypervisor attributes
  // the inconsistent dealing columns to dealer 3, EXCLUDES it, and completes
  // the refresh from the remaining 7 dealers.
  ClusterConfig cfg = Config();
  cfg.encrypt_links = false;
  Cluster cluster(cfg);
  Rng rng(2);
  Bytes file = rng.RandomBytes(400);
  cluster.Upload(1, file);

  const std::size_t elem = cluster.ctx().elem_bytes();
  cluster.net().SetMutator([&](net::Message& m) {
    if (m.type == net::MsgType::kDeal && m.from == 3 &&
        m.payload.size() >= elem) {
      m.payload[3] ^= 0x01;  // corrupt dealer 3's polynomial evaluations
    }
    return true;
  });
  WindowReport report;
  EXPECT_TRUE(cluster.hypervisor().RefreshAllFiles(&report));
  cluster.net().SetMutator(nullptr);
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < cfg.params.n; ++i) {
    rejected += cluster.host(i).verdicts_rejected();
  }
  EXPECT_GT(rejected, 0u) << "verification should have caught the dealer";
  EXPECT_EQ(cluster.hypervisor().excluded_dealers().count(3), 1u)
      << "the corrupt dealer should have been attributed and excluded";
  EXPECT_GE(report.refresh_retries, 1u);
  // Host 3 missed the retried round and was resynced from the fresh quorum.
  EXPECT_TRUE(cluster.hypervisor().stale_hosts().empty());
  // Data survives the whole episode.
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Fault, CorruptMaskedShareHealedByRobustDecodeAndSenderSuspected) {
  ClusterConfig cfg = Config();
  cfg.encrypt_links = false;
  Cluster cluster(cfg);
  Rng rng(3);
  Bytes file = rng.RandomBytes(400);
  cluster.Upload(1, file);

  cluster.net().SetMutator([&](net::Message& m) {
    if (m.type == net::MsgType::kMaskedShare && m.from == 4 &&
        !m.payload.empty()) {
      m.payload[1] ^= 0x80;
    }
    return true;
  });
  std::uint32_t batch[] = {0};
  WindowReport report;
  bool ok = cluster.hypervisor().RebootAndRecover(batch, &report);
  cluster.net().SetMutator(nullptr);
  // One wrong masked share among 7 survivors is within the Berlekamp-Welch
  // radius (7 - d - 1)/2 = 1: the target decodes through it, recovery
  // completes, and the dispute machinery bars the sender from the survivor
  // role (either accused by the robust decode or struck out for the share
  // never deserializing, depending on where the flipped bit lands).
  EXPECT_TRUE(ok);
  EXPECT_EQ(cluster.hypervisor().suspected_hosts().count(4), 1u);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
  // The recovered target holds a working share again: the file survives even
  // with the suspect barred and the original survivors minus one.
  EXPECT_TRUE(cluster.host(0).store().Has(1));
}

TEST(Fault, DroppedVerdictsLeaveStuckSessionsThatAreDetected) {
  ClusterConfig cfg = Config();
  Cluster cluster(cfg);
  Rng rng(4);
  cluster.Upload(1, rng.RandomBytes(300));

  // Drop every verdict: refresh sessions can never complete. Quiescence then
  // plays the bounded-delay timeout and the hypervisor aborts/report.
  cluster.net().SetMutator([](net::Message& m) {
    return m.type != net::MsgType::kVerdict;
  });
  EXPECT_FALSE(cluster.RefreshAllFiles());
  cluster.net().SetMutator(nullptr);
  for (std::size_t i = 0; i < cfg.params.n; ++i) {
    EXPECT_FALSE(cluster.host(i).HasActiveSessions()) << i;
  }
  // System recovers fully afterwards.
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
}

TEST(Fault, PartialApplyResyncKeepsTheRefreshFailureLines) {
  // One refresh over two files. File 1 partially applies: host 7 never sees
  // its verdicts, so it is marked stale and resynced through recovery. File
  // 2 cannot launch: five of its eight holders lost their shares, leaving
  // three, below the quorum of four. The resync must add its lines to the
  // refresh's, not replace them: the report names file 2's refresh failure.
  Cluster cluster(Config());
  Rng rng(7);
  const Bytes file = rng.RandomBytes(400);
  cluster.Upload(1, file);
  cluster.Upload(2, rng.RandomBytes(300));
  for (std::uint32_t id = 0; id < 5; ++id) cluster.host(id).store().Delete(2);

  // Only the refresh round's verdicts: the resync's recovery runs clean.
  std::optional<std::uint32_t> refresh_seq;
  cluster.net().SetMutator([&](net::Message& m) {
    if (m.type == net::MsgType::kStartRefresh && !refresh_seq) {
      refresh_seq = m.epoch;
    }
    return !(m.type == net::MsgType::kVerdict && m.to == 7 &&
             m.file_id == 1 && m.epoch == refresh_seq);
  });
  WindowReport report;
  EXPECT_FALSE(cluster.hypervisor().RefreshAllFiles(&report));
  cluster.net().SetMutator(nullptr);

  EXPECT_FALSE(report.ok);
  EXPECT_NE(std::find(report.failures.begin(), report.failures.end(),
                      "file 2: not enough holders to rerandomize"),
            report.failures.end());
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Fault, GarbageMessagesAreSurvived) {
  Cluster cluster(Config());
  Rng rng(5);
  Bytes file = rng.RandomBytes(200);
  cluster.Upload(1, file);

  // Inject junk of every type at a host; nothing should crash or wedge.
  auto* ep = cluster.net().AddEndpoint(9999);
  for (std::uint8_t t = 0; t <= 11; ++t) {
    net::Message junk;
    junk.from = 9999;
    junk.to = 3;
    junk.type = static_cast<net::MsgType>(t);
    junk.file_id = 1;
    junk.payload = rng.RandomBytes(33);
    ep->Send(std::move(junk));
  }
  cluster.sync().RunToQuiescence();
  // The junk sender has no session/certs; host should have dropped it all.
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

// A snapshot signed by a foreign CA, listing newer-epoch certs for the given
// ids and a seq far past the genuine one -- it would shadow every genuine
// snapshot after it if an endpoint accepted it.
crypto::CertSnapshot ForeignSnapshot(crypto::CertAuthority& evil_ca, Rng& rng,
                                     std::uint64_t min_seq,
                                     const std::vector<std::uint32_t>& ids,
                                     std::uint32_t epoch) {
  std::vector<crypto::HostCert> certs;
  for (std::uint32_t id : ids) {
    certs.push_back(evil_ca.IssueHostKey(id, epoch, rng).first);
  }
  crypto::CertSnapshot snap;
  do {  // walk the foreign CA's counter past min_seq
    snap = evil_ca.IssueSnapshot({}, certs, rng);
  } while (snap.seq <= min_seq);
  return snap;
}

net::Message SnapshotMessage(std::uint32_t from, std::uint32_t to,
                             const crypto::CertSnapshot& snap) {
  net::Message m;
  m.from = from;
  m.to = to;
  m.type = net::MsgType::kHostCert;
  m.payload = snap.Serialize();
  return m;
}

TEST(Fault, ForgedCertRejected) {
  Cluster cluster(Config());
  // An adversary-made CA signs a snapshot with a cert for host 2; peers
  // must reject it, whoever claims to send it.
  Rng rng(6);
  crypto::CertAuthority evil_ca(crypto::SchnorrGroup::Default(), rng);
  const crypto::CertSnapshot evil =
      ForeignSnapshot(evil_ca, rng, 10, {2}, 99);
  const crypto::HostCert genuine = *cluster.host(3).PeerCert(2);
  // Claiming the hypervisor's id gets it to the signature check, which
  // refuses it (the host drops the message with a warning).
  cluster.host(3).HandleMessage(
      SnapshotMessage(net::kHypervisorId, 3, evil));
  EXPECT_EQ(cluster.host(3).PeerCert(2)->Serialize(), genuine.Serialize());

  auto* ep = cluster.net().AddEndpoint(8888);
  ep->Send(SnapshotMessage(8888, 3, evil));
  cluster.sync().RunToQuiescence();
  EXPECT_EQ(cluster.host(3).PeerCert(2)->Serialize(), genuine.Serialize());
  // Host 3 still talks to the genuine host 2 (window succeeds end-to-end).
  Bytes file = Rng(7).RandomBytes(150);
  cluster.Upload(4, file);
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(4)), file);
}

TEST(Fault, ForgedCertOnRebootBroadcastRejected) {
  // ForgedCertRejected above forges outside any reboot. Here the forgery
  // rides a genuine reboot: just before a batch's snapshot reaches a
  // victim, a foreign-CA snapshot claiming the hypervisor's id lands there
  // first, listing the batch's hosts at later epochs under a far later seq.
  // An endpoint that installed it would hold the wrong keys and drop every
  // genuine snapshot after it as stale.
  Cluster cluster(Config());
  const Bytes file = Rng(9).RandomBytes(300);
  cluster.Upload(5, file);

  Rng rng(10);
  crypto::CertAuthority evil_ca(crypto::SchnorrGroup::Default(), rng);
  // The client first, then host 0: it reboots in the first batch and not
  // again this window, so nothing reprovisions it after the forgery lands.
  const std::vector<std::uint32_t> victims = {net::kClientId, 0};
  std::vector<std::uint32_t> forged_ids;
  cluster.net().SetMutator([&](net::Message& m) {
    if (m.type != net::MsgType::kHostCert ||
        forged_ids.size() == victims.size() ||
        m.to != victims[forged_ids.size()]) {
      return true;
    }
    const auto genuine = crypto::CertSnapshot::Deserialize(m.payload);
    std::vector<std::uint32_t> ids;
    for (const auto& cert : genuine.certs) ids.push_back(cert.host_id);
    const crypto::CertSnapshot forged =
        ForeignSnapshot(evil_ca, rng, genuine.seq + 100, ids,
                        genuine.certs.front().epoch + 100);
    const net::Message forgery = SnapshotMessage(net::kHypervisorId, m.to,
                                                 forged);
    if (m.to == net::kClientId) {
      cluster.client().HandleMessage(forgery);
    } else {
      cluster.host(m.to).HandleMessage(forgery);
    }
    forged_ids.push_back(ids.front());
    return true;
  });
  const WindowReport report = cluster.RunUpdateWindow();
  cluster.net().SetMutator(nullptr);
  ASSERT_EQ(forged_ids.size(), victims.size());
  EXPECT_TRUE(report.ok);

  const auto& directory = cluster.hypervisor().directory();
  const crypto::HostCert* at_client =
      cluster.client().PeerCert(forged_ids[0]);
  ASSERT_NE(at_client, nullptr);
  EXPECT_TRUE(at_client->Serialize() ==
              directory.at(forged_ids[0]).Serialize());
  const crypto::HostCert* at_host = cluster.host(0).PeerCert(forged_ids[1]);
  ASSERT_NE(at_host, nullptr);
  EXPECT_TRUE(at_host->Serialize() == directory.at(forged_ids[1]).Serialize());
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(5)), file);
}

TEST(Fault, AbortStuckSessionsReportsDescriptions) {
  Cluster cluster(Config());
  Rng rng(8);
  cluster.Upload(1, rng.RandomBytes(100));
  cluster.net().SetMutator([](net::Message& m) {
    return m.type != net::MsgType::kCheckShare;  // wedge verification
  });
  cluster.RefreshAllFiles();  // returns false; sessions were aborted inside
  cluster.net().SetMutator(nullptr);
  // AbortStuckSessions was already called by the hypervisor; calling again
  // reports nothing.
  EXPECT_TRUE(cluster.host(0).AbortStuckSessions().empty());
}

}  // namespace
}  // namespace pisces
