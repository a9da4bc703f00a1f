// Chaos drill: twenty proactive update windows under a seeded schedule of
// drops, duplication, reordering, delivery jitter, and up to t mid-window
// crashes -- while a mobile adversary corrupts t fresh hosts every period.
//
// Windows are allowed to report transient failures (a crashed dealer stalls
// a round until the retry excludes it); what the drill forbids is
//   1. data loss: every stored file downloads bit-exactly in every window;
//   2. privacy loss: the adversary never captures more than t same-period
//      shares, and its real reconstruction attack keeps failing;
//   3. nondeterminism: re-running the identical configuration reproduces the
//      fault trace (every counter and byte total) exactly.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "net/sim_transport.h"
#include "pisces/adversary.h"
#include "pisces/pisces.h"

namespace pisces {
namespace {

constexpr std::uint32_t kWindows = 20;

ClusterConfig Config() {
  ClusterConfig cfg;
  cfg.params.n = 10;
  cfg.params.t = 2;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = 97;
  return cfg;
}

// Everything observable about one drill run. Two runs of the same seeds must
// produce identical digests, down to the last dropped message.
struct Digest {
  std::vector<std::uint64_t> nums;
  bool operator==(const Digest&) const = default;
};

Digest RunDrill() {
  ClusterConfig cfg = Config();
  Cluster cluster(cfg);
  const std::uint32_t n = static_cast<std::uint32_t>(cfg.params.n);
  const std::size_t t = cfg.params.t;

  Rng data_rng(11);
  std::map<std::uint64_t, Bytes> files;
  files[1] = data_rng.RandomBytes(353);
  files[2] = data_rng.RandomBytes(96);
  for (const auto& [id, data] : files) cluster.Upload(id, data);

  Adversary adv(cluster);
  adv.Corrupt(1);
  adv.Corrupt(6);

  Digest digest;
  for (std::uint32_t w = 0; w < kWindows; ++w) {
    // Rates are calibrated to the protocol's round-level retry: a refresh
    // round is all-to-all (~hundreds of messages), so per-message loss has
    // to stay well below 1% for ANY round to complete -- the drill stresses
    // the retry/exclusion/resync machinery, not an impossible channel.
    // Duplication is free chaos: encrypted links reject the replayed copy.
    net::FaultPlan plan;
    plan.seed = 5000 + w;
    plan.all_links.drop_prob = 0.001;
    plan.all_links.dup_prob = 0.02;
    plan.all_links.reorder_prob = 0.001;
    plan.all_links.delay_jitter = 1;
    if (w % 4 == 1) {
      // f = 2 <= t crash triggers: one host dies early in the window, a
      // second one later. Both are revived by the window's reboot schedule.
      plan.crash_after[w % n] = 30;
      plan.crash_after[(w + 5) % n] = 200;
    }
    cluster.net().SetFaultPlan(plan);

    WindowReport report = cluster.hypervisor().RunUpdateWindow();
    // A window that is not ok says why.
    EXPECT_TRUE(report.ok || !report.failures.empty()) << "window " << w;
    digest.nums.push_back(report.ok ? 1 : 0);
    digest.nums.push_back(report.refresh_retries);
    digest.nums.push_back(report.recovery_retries);
    digest.nums.push_back(report.deals_excluded);
    digest.nums.push_back(report.timeouts_fired);
    digest.nums.push_back(report.reboots_deferred);
    digest.nums.push_back(report.sweeps_refresh + report.sweeps_recovery);

    // 1. Data: bit-exact downloads, with the fault plan still active (the
    //    client's retry + robust-decode path is part of what is drilled).
    for (const auto& [id, data] : files) {
      EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(id)), data)
          << "window " << w << " corrupted file " << id;
    }

    // 2. Privacy: the reboots expelled the adversary; it corrupts t fresh
    //    hosts for the next period and must stay below the threshold.
    adv.ObserveWindow();
    for (const auto& [id, data] : files) {
      EXPECT_LE(adv.MaxSamePeriodShares(id), t) << "window " << w;
      EXPECT_FALSE(adv.ExceedsPrivacyThreshold(id)) << "window " << w;
      EXPECT_EQ(adv.AttemptReconstruction(id), std::nullopt) << "window " << w;
    }
    adv.Corrupt(w % n);
    adv.Corrupt((w + 4) % n);
  }

  // A clean window after the storm: no faults, everything must come back.
  cluster.net().ClearFaults();
  WindowReport calm = cluster.hypervisor().RunUpdateWindow();
  EXPECT_TRUE(calm.ok) << "fault-free window after the drill must succeed";
  EXPECT_TRUE(cluster.hypervisor().stale_hosts().empty());
  for (const auto& [id, data] : files) EXPECT_EQ(cluster.Download(pisces::ReadSpec::Classic(id)), data);

  // 3. Determinism material: the full per-endpoint fault trace.
  for (std::uint32_t id = 0; id < n; ++id) {
    const auto& st = cluster.net().StatsFor(id);
    digest.nums.insert(digest.nums.end(),
                       {st.msgs_sent, st.bytes_sent, st.msgs_dropped,
                        st.msgs_duplicated, st.msgs_delayed,
                        st.msgs_reordered, st.crashes});
  }
  const auto& client_stats = cluster.net().StatsFor(net::kClientId);
  digest.nums.push_back(client_stats.msgs_sent);
  digest.nums.push_back(client_stats.msgs_dropped);
  digest.nums.push_back(cluster.net().TotalMessages());
  digest.nums.push_back(cluster.net().TotalBytes());
  digest.nums.push_back(cluster.net().TotalDropped());
  digest.nums.push_back(cluster.client().retries());

  // The schedule must actually have hurt: faults of every flavor fired.
  std::uint64_t crashes = 0;
  for (std::uint32_t id = 0; id < n; ++id) {
    crashes += cluster.net().StatsFor(id).crashes;
  }
  EXPECT_GT(crashes, 0u) << "crash triggers never fired";
  EXPECT_GT(cluster.net().TotalDropped(), 0u);

  return digest;
}

TEST(Chaos, TwentyWindowsSurviveAndReproduce) {
  Digest first = RunDrill();
  Digest second = RunDrill();
  EXPECT_EQ(first, second)
      << "identical seeds must reproduce the identical fault trace";
}

}  // namespace
}  // namespace pisces
