// The Hypervisor's robustness policy over real sockets: n=7 HostProcesses on
// loopback AsyncTcpEndpoints, driven by a wire Cluster (a Hypervisor over a
// WireFleet, and the stock client). Every host is pumped on the test thread
// from the Cluster's tick, so arming a Host with a ByzantineActor is
// race-free -- the reactor threads only move bytes.
//
// Dealer exclusion lasts until the host's next secure reboot, and a window
// reboots every host on the schedule; the exclusion checks therefore sample
// excluded_dealers() at every tick of the window.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "obs/registry.h"
#include "pisces/byzantine.h"
#include "pisces/cluster.h"
#include "pisces/host_process.h"
#include "test_ports.h"

namespace pisces {
namespace {

// Each case takes 10 ports (n + 2 = 9) of the suite's block.
std::uint16_t BasePort() {
  return test::BasePort(test::PortSuite::kWireFleet);
}

class WireHarness {
 public:
  explicit WireHarness(std::uint16_t base_port)
      : cfg_(Config(base_port)),
        hosts_(Hosts(cfg_)),
        cluster_(cfg_, [this] { Tick(); }) {}

  Cluster& cluster() { return cluster_; }
  Hypervisor& hv() { return cluster_.hypervisor(); }
  Host& host(std::uint32_t i) { return *hosts_[i]->host(); }
  // A halted host is no longer pumped: a hung process, as the fleet sees it.
  void HaltProcess(std::uint32_t i) { halted_.insert(i); }
  // A host that drops its kHaltHost and kBootHost but answers everything
  // else: it keeps its old image, key and shares across a "reboot".
  void IgnoreReboots(std::uint32_t i) { ignores_reboots_.insert(i); }
  void OnTick(std::function<void()> f) { on_tick_ = std::move(f); }

  bool Upload(std::uint64_t id, const Bytes& data) {
    cluster_.Upload(id, data);
    return cluster_.client().UploadAcks(id) == cfg_.n;
  }

  Bytes Download(std::uint64_t id) {
    return cluster_.Download(ReadSpec::Classic(id));
  }

 private:
  static MpConfig Config(std::uint16_t base_port) {
    MpConfig cfg;
    cfg.n = 7;
    cfg.t = 1;
    cfg.l = 2;  // d = 3, recovery quorum 4
    cfg.r = 1;
    cfg.base_port = base_port;
    cfg.seed = 0x3F1E;
    cfg.heartbeat_ms = 50;
    cfg.deadline_ms = 1000;
    return cfg;
  }
  static std::vector<std::unique_ptr<HostProcess>> Hosts(const MpConfig& cfg) {
    std::vector<std::unique_ptr<HostProcess>> hosts;
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      hosts.push_back(std::make_unique<HostProcess>(cfg, i));
    }
    return hosts;
  }

  // Drains every live host until a full pass finds nothing to do.
  void Tick() {
    for (bool busy = true; busy;) {
      busy = false;
      for (std::uint32_t i = 0; i < cfg_.n; ++i) {
        if (halted_.count(i) != 0) continue;
        while (auto msg = hosts_[i]->endpoint().Receive()) {
          busy = true;
          if (ignores_reboots_.count(i) != 0 &&
              (msg->type == net::MsgType::kHaltHost ||
               msg->type == net::MsgType::kBootHost)) {
            continue;
          }
          hosts_[i]->HandleMessage(*msg);
        }
      }
    }
    if (on_tick_) on_tick_();
  }

  // Construction order: the hosts listen before the Cluster boots them, and
  // everything its tick reads outlives it.
  MpConfig cfg_;
  std::vector<std::unique_ptr<HostProcess>> hosts_;
  std::set<std::uint32_t> halted_;
  std::set<std::uint32_t> ignores_reboots_;
  std::function<void()> on_tick_;
  Cluster cluster_;
};

TEST(WireFleet, CorruptDealerAttributedAndExcluded) {
  WireHarness h(BasePort());
  const Bytes file = Rng(21).RandomBytes(1500);
  ASSERT_TRUE(h.Upload(1, file));

  ByzantineActor actor(3, ByzantineStrategy::kCorruptDeal, 0xC3,
                       h.host(3).shamir().ctx());
  h.host(3).ArmByzantine(&actor);
  bool excluded = false;
  h.OnTick([&] { excluded |= h.hv().excluded_dealers().count(3) != 0; });
  const obs::Snapshot before = obs::TakeSnapshot();
  const WindowReport report = h.hv().RunUpdateWindow();
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  h.OnTick(nullptr);
  h.host(3).ArmByzantine(nullptr);

  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(excluded) << "the corrupt dealer must be attributed from the "
                           "archived columns the hosts reported";
  EXPECT_GE(obs::Value(delta, "byz.dealers_attributed"), 1u);
  EXPECT_GE(report.refresh_retries, 1u);
  EXPECT_EQ(report.reboots, 7u);
  EXPECT_EQ(h.Download(1), file);
  // The striped path on its own (no classic fallback), 5 of 7 contacted.
  EXPECT_EQ(h.cluster().Download(
                ReadSpec::Staircase(1, 5, ReadFallback::kFail)),
            file);
}

TEST(WireFleet, WithholdingDealerStruckOut) {
  WireHarness h(static_cast<std::uint16_t>(BasePort() + 10));
  const Bytes file = Rng(22).RandomBytes(1500);
  ASSERT_TRUE(h.Upload(1, file));

  ByzantineActor actor(5, ByzantineStrategy::kWithhold, 0x75,
                       h.host(5).shamir().ctx());
  h.host(5).ArmByzantine(&actor);
  bool excluded = false;
  h.OnTick([&] { excluded |= h.hv().excluded_dealers().count(5) != 0; });
  const WindowReport report = h.hv().RunUpdateWindow();
  h.OnTick(nullptr);
  h.host(5).ArmByzantine(nullptr);

  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(excluded) << "two withheld dealings must strike the dealer out";
  EXPECT_GE(report.refresh_retries, 2u);
  EXPECT_EQ(h.Download(1), file);
}

TEST(WireFleet, UnackedRebootKeepsDealerExcluded) {
  WireHarness h(static_cast<std::uint16_t>(BasePort() + 40));
  const Bytes file = Rng(25).RandomBytes(1500);
  ASSERT_TRUE(h.Upload(1, file));

  // Host 3 deals corrupt zero-sharings and ignores its scheduled halt and
  // boot, so the window's reboot never replaces its image.
  ByzantineActor actor(3, ByzantineStrategy::kCorruptDeal, 0xC4,
                       h.host(3).shamir().ctx());
  h.host(3).ArmByzantine(&actor);
  h.IgnoreReboots(3);
  const WindowReport report = h.hv().RunUpdateWindow();
  // It then answers a survey: online, with its old shares.
  const auto view = h.hv().Survey();
  h.host(3).ArmByzantine(nullptr);

  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reboots, 6u);
  EXPECT_NE(std::find(report.failures.begin(), report.failures.end(),
                      "host 3 did not acknowledge its boot"),
            report.failures.end());
  ASSERT_EQ(view.count(3), 1u);
  EXPECT_EQ(view.at(3), std::vector<std::uint64_t>{1});
  EXPECT_EQ(h.hv().excluded_dealers().count(3), 1u)
      << "a boot the host never acknowledged must not clear its exclusion";
}

TEST(WireFleet, DurabilityGuardDefersRebootsBelowQuorum) {
  WireHarness h(static_cast<std::uint16_t>(BasePort() + 20));
  const Bytes file = Rng(23).RandomBytes(1500);
  ASSERT_TRUE(h.Upload(1, file));

  // Three hosts hang: the four live holders are exactly the recovery
  // quorum, so wiping any of them would lose the file.
  for (std::uint32_t i : {4u, 5u, 6u}) h.HaltProcess(i);
  const WindowReport report = h.hv().RunUpdateWindow();

  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.reboots_deferred, 4u);
  EXPECT_EQ(report.reboots, 0u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(h.host(i).store().Has(1)) << "live host " << i << " wiped";
  }
  EXPECT_EQ(h.Download(1), file);
}

TEST(WireFleet, ReshareRefusedAndFleetUntouched) {
  WireHarness h(static_cast<std::uint16_t>(BasePort() + 30));
  const Bytes file = Rng(24).RandomBytes(800);
  ASSERT_TRUE(h.Upload(1, file));
  std::vector<std::uint32_t> epochs;
  for (std::uint32_t i = 0; i < 7; ++i) epochs.push_back(h.host(i).epoch());

  // No delete ack exists on the wire: a wire Cluster refuses to delete.
  EXPECT_THROW(h.cluster().Delete(1), Error);
  pss::Params to = h.hv().params();
  to.n = 8;
  ReshareReport rep;
  EXPECT_FALSE(h.hv().Reshare(to, &rep));
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.failures.size(), 1u);
  EXPECT_EQ(h.hv().n(), 7u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    EXPECT_EQ(h.host(i).epoch(), epochs[i]);
    EXPECT_TRUE(h.host(i).store().Has(1));
  }
  EXPECT_EQ(h.Download(1), file);
}

// The deployment config every wire fleet is built from: one file describes
// the whole fleet, so it must round-trip exactly and reject what it cannot
// honour instead of defaulting silently.
TEST(MpConfig, FormatParseRoundTripAndRejections) {
  MpConfig cfg;
  cfg.n = 10;
  cfg.t = 2;
  cfg.l = 2;
  cfg.r = 1;
  cfg.base_port = 47000;
  cfg.seed = 99;
  cfg.encrypt = false;
  cfg.heartbeat_ms = 75;
  cfg.deadline_ms = 1234;
  cfg.restart_backoff_ms = 9;
  cfg.run_dir = "runs";
  cfg.hostd = "bin/pisces_hostd";
  const MpConfig back = MpConfig::Parse(cfg.Format());
  EXPECT_EQ(back.Format(), cfg.Format());
  EXPECT_EQ(back.HostPort(3), 47003);
  EXPECT_EQ(back.HypervisorPort(), 47010);
  EXPECT_EQ(back.ClientPort(), 47011);
  EXPECT_EQ(back.PidPath(2), "runs/host2.pid");
  EXPECT_EQ(back.LogPath(2), "runs/host2.log");
  EXPECT_THROW(back.HostPort(10), InvalidArgument);

  const MpConfig sparse = MpConfig::Parse("  n = 7   # hosts\n\n# note\nt=1\n");
  EXPECT_EQ(sparse.n, 7u);
  EXPECT_EQ(sparse.t, 1u);
  for (const char* bad :
       {"bogus = 1\n", "n\n", "n =\n", "n = 7x\n", "n = seven\n",
        "base_port = 70000\n", "n = 4\n", "heartbeat_ms = 0\n",
        "deadline_ms = 0\n", "base_port = 65530\n"}) {
    EXPECT_THROW(MpConfig::Parse(bad), InvalidArgument) << bad;
  }

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pisces-mpconfig-" + std::to_string(::getpid()) + ".conf"))
          .string();
  cfg.Save(path);
  EXPECT_EQ(MpConfig::Load(path).Format(), cfg.Format());
  std::remove(path.c_str());
  EXPECT_THROW(MpConfig::Load(path), InvalidArgument);
}

}  // namespace
}  // namespace pisces
