// Full-system integration tests: upload, proactive update windows (refresh +
// scheduled reboots + recovery), download, multiple files, deployments,
// schedules, metrics.
#include <gtest/gtest.h>

#include <map>

#include "obs/trace.h"
#include "pisces/pisces.h"
#include "trace_util.h"

namespace pisces {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = 11;
  return cfg;
}

TEST(Cluster, UploadDownloadRoundTrip) {
  Cluster cluster(SmallConfig());
  Rng rng(1);
  Bytes file = rng.RandomBytes(2000);
  FileMeta meta = cluster.Upload(1, file);
  EXPECT_EQ(meta.raw_size, 2000u);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, UpdateWindowPreservesFileAndRotatesShares) {
  Cluster cluster(SmallConfig());
  Rng rng(2);
  Bytes file = rng.RandomBytes(3000);
  cluster.Upload(5, file);

  auto before = cluster.host(3).store().Decode(5);

  WindowReport report = cluster.RunUpdateWindow();
  EXPECT_TRUE(report.ok) << (report.failures.empty() ? ""
                                                     : report.failures[0]);
  EXPECT_EQ(report.reboots, 8u);  // complete schedule
  EXPECT_GT(report.rerandomize_total.cpu_ns, 0u);
  EXPECT_GT(report.recover_total.bytes_sent, 0u);

  auto after = cluster.host(3).store().Decode(5);
  EXPECT_NE(before, after);

  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(5)), file);
}

TEST(Cluster, MultipleWindowsMultipleFiles) {
  Cluster cluster(SmallConfig());
  Rng rng(3);
  Bytes f1 = rng.RandomBytes(1500);
  Bytes f2 = rng.RandomBytes(64);
  Bytes f3 = rng.RandomBytes(9000);
  cluster.Upload(1, f1);
  cluster.Upload(2, f2);
  cluster.Upload(3, f3);
  for (int w = 0; w < 3; ++w) {
    WindowReport report = cluster.RunUpdateWindow();
    ASSERT_TRUE(report.ok) << "window " << w;
  }
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), f1);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(2)), f2);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(3)), f3);
}

TEST(Cluster, DeleteRemovesShares) {
  Cluster cluster(SmallConfig());
  Rng rng(4);
  Bytes file = rng.RandomBytes(100);
  cluster.Upload(9, file);
  cluster.Delete(9);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(cluster.host(i).store().Has(9));
  }
  EXPECT_THROW(cluster.Download(pisces::ReadSpec::Classic(9)), Error);
}

TEST(Cluster, EmptyFileAndTinyFile) {
  Cluster cluster(SmallConfig());
  Bytes empty;
  cluster.Upload(1, empty);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), empty);
  Bytes one{0x42};
  cluster.Upload(2, one);
  cluster.RunUpdateWindow();
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), empty);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(2)), one);
}

TEST(Cluster, RandomizedScheduleWorks) {
  ClusterConfig cfg = SmallConfig();
  cfg.schedule = "randomized";
  Cluster cluster(cfg);
  Rng rng(6);
  Bytes file = rng.RandomBytes(500);
  cluster.Upload(1, file);
  WindowReport report = cluster.RunUpdateWindow();
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, PlaintextLinksModeWorks) {
  ClusterConfig cfg = SmallConfig();
  cfg.encrypt_links = false;
  Cluster cluster(cfg);
  Rng rng(7);
  Bytes file = rng.RandomBytes(700);
  cluster.Upload(1, file);
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, EncryptionActuallyHidesPayloads) {
  // With encrypted links, a network observer (the tap) never sees the raw
  // share bytes that the host stores.
  ClusterConfig cfg = SmallConfig();
  Cluster cluster(cfg);
  Rng rng(8);
  Bytes file = rng.RandomBytes(300);

  std::vector<Bytes> observed;
  cluster.net().SetTap([&](const net::Message& m) {
    if (m.type == net::MsgType::kSetShares) observed.push_back(m.payload);
  });
  cluster.Upload(1, file);
  cluster.net().SetTap(nullptr);
  ASSERT_EQ(observed.size(), 8u);

  auto shares = cluster.host(0).store().Decode(1);
  Bytes raw = field::SerializeElems(cluster.ctx(), shares);
  for (const Bytes& payload : observed) {
    // Raw share material must not appear inside any observed payload.
    auto it = std::search(payload.begin(), payload.end(), raw.begin(),
                          raw.begin() + 32);
    EXPECT_EQ(it, payload.end());
  }
}

TEST(Cluster, MetricsAccumulateAndReset) {
  Cluster cluster(SmallConfig());
  Rng rng(9);
  cluster.Upload(1, rng.RandomBytes(1000));
  cluster.ResetMetrics();
  cluster.RunUpdateWindow();
  HostMetrics total = cluster.TotalMetrics();
  EXPECT_GT(total.rerandomize.cpu_ns, 0u);
  EXPECT_GT(total.rerandomize.bytes_sent, 0u);
  EXPECT_GT(total.recover.cpu_ns, 0u);
  cluster.ResetMetrics();
  total = cluster.TotalMetrics();
  EXPECT_EQ(total.rerandomize.cpu_ns, 0u);
}

TEST(Cluster, RefreshOnlyKeepsFileIntact) {
  Cluster cluster(SmallConfig());
  Rng rng(10);
  Bytes file = rng.RandomBytes(2048);
  cluster.Upload(1, file);
  EXPECT_TRUE(cluster.RefreshAllFiles());
  EXPECT_TRUE(cluster.RefreshAllFiles());  // idempotent across epochs
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, DeploymentMismatchRejected) {
  ClusterConfig cfg = SmallConfig();
  cfg.deployment = Deployment::MultiCloud(9, 3);  // n mismatch (8 != 9)
  EXPECT_THROW(Cluster cluster(cfg), InvalidArgument);
}

TEST(Cluster, MultiCloudDeploymentRuns) {
  ClusterConfig cfg = SmallConfig();
  cfg.deployment = Deployment::MultiCloud(8, 4);
  Cluster cluster(cfg);
  Rng rng(12);
  Bytes file = rng.RandomBytes(400);
  cluster.Upload(1, file);
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
  EXPECT_EQ(cluster.deployment().MinProvidersToBreach(cfg.params.t), 1u);
}

TEST(Cluster, DownloadSurvivesOfflineMinority) {
  // n=8, d=t+l=3: any d+1=4 responses suffice; take 3 hosts offline.
  Cluster cluster(SmallConfig());
  Rng rng(13);
  Bytes file = rng.RandomBytes(800);
  cluster.Upload(1, file);
  cluster.net().SetOffline(2, true);
  cluster.net().SetOffline(5, true);
  cluster.net().SetOffline(7, true);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, DownloadFailsBelowThreshold) {
  Cluster cluster(SmallConfig());
  Rng rng(14);
  cluster.Upload(1, rng.RandomBytes(100));
  for (std::uint32_t i = 0; i < 5; ++i) cluster.net().SetOffline(i, true);
  // Only 3 hosts respond < d+1 = 4.
  EXPECT_THROW(cluster.Download(pisces::ReadSpec::Classic(1)), Error);
}

TEST(Cluster, WorkerPoolProducesSameResults) {
  ClusterConfig cfg = SmallConfig();
  cfg.params.b = 3;
  Cluster cluster(cfg);
  Rng rng(15);
  Bytes file = rng.RandomBytes(1200);
  cluster.Upload(1, file);
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

TEST(Cluster, HostCertsRotateOnReboot) {
  Cluster cluster(SmallConfig());
  std::uint32_t epoch_before = cluster.host(0).epoch();
  cluster.RunUpdateWindow();
  EXPECT_GT(cluster.host(0).epoch(), epoch_before);
}

// A kHostCert snapshot is public traffic, so anyone can replay one. One the
// endpoint already holds must leave the live channels alone: a re-derived
// channel restarts its nonce counter, and the peer drops the next frame as
// a replay (after the sender reused a ChaCha20 nonce).
TEST(Cluster, ReplayedCertKeepsLiveChannels) {
  Cluster cluster(SmallConfig());
  Rng rng(13);
  const Bytes f1 = rng.RandomBytes(500);
  cluster.Upload(1, f1);
  std::vector<net::Message> seen;
  cluster.net().SetMutator([&](net::Message& m) {
    if (m.type == net::MsgType::kHostCert) seen.push_back(m);
    return true;
  });
  ASSERT_TRUE(cluster.RunUpdateWindow().ok);
  cluster.net().SetMutator(nullptr);
  ASSERT_FALSE(seen.empty());
  const std::uint64_t retries = cluster.client().retries();

  for (net::Message m : seen) {  // every snapshot of the window, replayed
    m.to = net::kClientId;
    cluster.client().HandleMessage(m);
    m.to = 0;
    cluster.host(0).HandleMessage(m);
  }

  const Bytes f2 = rng.RandomBytes(500);
  cluster.Upload(2, f2);
  EXPECT_EQ(cluster.client().retries(), retries);
  const WindowReport report = cluster.RunUpdateWindow();
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.refresh_retries, 0u);
  EXPECT_EQ(report.deals_excluded, 0u);
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(2)), f2);
}

// One signed snapshot per reboot batch: each booted host, each survivor and
// the client check one CA signature per batch, and nobody checks a cert on
// its own.
TEST(Cluster, WindowChecksOneSnapshotSignaturePerEndpointPerBatch) {
  Cluster cluster(SmallConfig());
  cluster.Upload(1, Rng(14).RandomBytes(300));
  obs::ResetTrace();
  obs::EnableTracing("");
  const WindowReport report = cluster.RunUpdateWindow();
  obs::DisableTracing();
  ASSERT_TRUE(report.ok);
  std::map<std::string, std::size_t> spans;
  for (const auto& e : test::ParseTraceEvents(obs::TraceToJson())) {
    if (e.cat == "crypto") ++spans[e.name];
  }
  obs::ResetTrace();
  const std::size_t n = 8, r = 2, batches = n / r;
  EXPECT_EQ(spans["crypto.verify_cert"], 0u);
  // Per batch: r booted hosts, n - r survivors and the client.
  EXPECT_EQ(spans["crypto.verify_snapshot"], batches * (r + (n - r) + 1));
  EXPECT_EQ(spans["crypto.verify_snapshot"], 36u);
  EXPECT_EQ(spans["crypto.sign_snapshot"], batches);
  EXPECT_EQ(spans["crypto.sign"], n);
}

// Only the hypervisor publishes snapshots: genuine ones relayed by anyone
// else are dropped unread, and the same bytes from the hypervisor land.
TEST(Cluster, SnapshotFromNonHypervisorIsDropped) {
  Cluster cluster(SmallConfig());
  const Bytes file = Rng(15).RandomBytes(400);
  cluster.Upload(1, file);
  // Withhold every snapshot of this window from the client.
  std::vector<net::Message> withheld;
  cluster.net().SetMutator([&](net::Message& m) {
    if (m.type != net::MsgType::kHostCert || m.to != net::kClientId) {
      return true;
    }
    withheld.push_back(m);
    return false;
  });
  ASSERT_TRUE(cluster.RunUpdateWindow().ok);
  cluster.net().SetMutator(nullptr);
  ASSERT_EQ(withheld.size(), 4u);  // one per batch
  const auto& directory = cluster.hypervisor().directory();
  auto client_current = [&] {
    for (std::uint32_t id = 0; id < 8; ++id) {
      const crypto::HostCert* held = cluster.client().PeerCert(id);
      if (held == nullptr ||
          held->Serialize() != directory.at(id).Serialize()) {
        return false;
      }
    }
    return true;
  };
  ASSERT_FALSE(client_current());

  for (net::Message relayed : withheld) {
    relayed.from = 0;
    cluster.client().HandleMessage(relayed);
    cluster.host(1).HandleMessage(relayed);  // a host drops it as well
  }
  EXPECT_FALSE(client_current());

  for (const net::Message& m : withheld) cluster.client().HandleMessage(m);
  EXPECT_TRUE(client_current());
  EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(1)), file);
}

// Hot paths never multiply two plain elements (each such product costs two
// kernel calls; field.plain_muls counts them). On a warm cluster an upload
// and both read paths make none, and a window makes exactly one per Schnorr
// signature it issues: s = k + x*e in the certificate of each rebooted host
// and in the snapshot of each reboot batch.
TEST(PlainMulGuard, WarmPathsMakeNoPlainProducts) {
  Cluster cluster(SmallConfig());
  Rng rng(22);
  const Bytes f1 = rng.RandomBytes(3000), f2 = rng.RandomBytes(2500);
  cluster.Upload(1, f1);
  ASSERT_EQ(cluster.Download(ReadSpec::Classic(1)), f1);
  ASSERT_EQ(cluster.Download(ReadSpec::Staircase(1)), f1);
  ASSERT_TRUE(cluster.RunUpdateWindow().ok);

  auto plain_muls = [] { return field::GetKernelStats().plain_muls; };
  std::uint64_t before = plain_muls();
  cluster.Upload(2, f2);
  EXPECT_EQ(plain_muls() - before, 0u) << "upload";
  before = plain_muls();
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(2)), f2);
  EXPECT_EQ(plain_muls() - before, 0u) << "classic download";
  before = plain_muls();
  EXPECT_EQ(cluster.Download(ReadSpec::Staircase(2)), f2);
  EXPECT_EQ(plain_muls() - before, 0u) << "staircase download";

  before = plain_muls();
  const WindowReport report = cluster.RunUpdateWindow();
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.reboots, 8u);
  const std::size_t batches = report.reboots / cluster.config().params.r;
  EXPECT_EQ(plain_muls() - before, report.reboots + batches)
      << "one per signature: a cert per reboot, a snapshot per batch";
}

}  // namespace
}  // namespace pisces
