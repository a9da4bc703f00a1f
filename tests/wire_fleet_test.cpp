// The Hypervisor's robustness policy over real sockets: n=7 HostProcesses on
// loopback AsyncTcpEndpoints, driven through a WireFleet. Every host is
// pumped on the test thread from the fleet's tick, so arming a Host with a
// ByzantineActor is race-free -- the reactor threads only move bytes.
//
// Dealer exclusion lasts until the host's next secure reboot, and a window
// reboots every host on the schedule; the exclusion checks therefore sample
// excluded_dealers() at every tick of the window.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "field/primes.h"
#include "obs/registry.h"
#include "pisces/byzantine.h"
#include "pisces/client.h"
#include "pisces/hypervisor.h"
#include "pisces/wire_fleet.h"

namespace pisces {
namespace {

std::uint16_t BasePort() {
  // Offset +300 keeps clear of async_tcp_test.cpp (+100) and
  // transport_conformance_test.cpp (+200) in the same binary; each case
  // takes a block of 10 (n + 2 = 9 ports).
  return static_cast<std::uint16_t>(40300 + (::getpid() % 1900) * 10);
}

class WireHarness {
 public:
  explicit WireHarness(std::uint16_t base_port) {
    cfg_.n = 7;
    cfg_.t = 1;
    cfg_.l = 2;  // d = 3, recovery quorum 4
    cfg_.r = 1;
    cfg_.base_port = base_port;
    cfg_.seed = 0x3F1E;
    cfg_.heartbeat_ms = 50;
    cfg_.deadline_ms = 1000;
    for (std::uint32_t i = 0; i < cfg_.n; ++i) {
      hosts_.push_back(std::make_unique<HostProcess>(cfg_, i));
    }
    hyper_ep_ = MakeEndpoint(net::kHypervisorId, cfg_.HypervisorPort());
    client_ep_ = MakeEndpoint(net::kClientId, cfg_.ClientPort());
    for (std::uint32_t i = 0; i < cfg_.n; ++i) {
      hyper_ep_->AddPeer(i, cfg_.HostPort(i));
      client_ep_->AddPeer(i, cfg_.HostPort(i));
    }
    auto fleet = std::make_unique<WireFleet>(cfg_, *hyper_ep_);
    fleet_ = fleet.get();
    fleet_->SetTick([this] { Tick(); });
    const auto ctx = std::make_shared<const field::FpCtx>(
        field::StandardPrimeBe(cfg_.field_bits));
    HypervisorConfig hc;
    hc.params = cfg_.ToParams();
    hc.ctx = ctx;
    hc.seed = cfg_.seed;
    hv_ = std::make_unique<Hypervisor>(hc, std::move(fleet),
                                       crypto::SchnorrGroup::Default());
    auto [cert, sk] = hv_->EnrollExternal(net::kClientId);
    ClientConfig cc;
    cc.params = hv_->params();
    cc.ctx = ctx;
    client_ = std::make_unique<Client>(cc, *client_ep_,
                                       crypto::SchnorrGroup::Default(),
                                       hv_->ca_public_key(), cert, sk);
    for (const auto& [id, c] : hv_->directory()) {
      if (id != net::kClientId) client_->InstallPeerCert(c);
    }
  }

  Hypervisor& hv() { return *hv_; }
  Host& host(std::uint32_t i) { return *hosts_[i]->host(); }
  // A halted host is no longer pumped: a hung process, as the fleet sees it.
  void HaltProcess(std::uint32_t i) { halted_.insert(i); }
  // A host that drops its kHaltHost and kBootHost but answers everything
  // else: it keeps its old image, key and shares across a "reboot".
  void IgnoreReboots(std::uint32_t i) { ignores_reboots_.insert(i); }
  void OnTick(std::function<void()> f) { on_tick_ = std::move(f); }

  bool Upload(std::uint64_t id, const Bytes& data) {
    client_->BeginUpload(id, data);
    const bool ok =
        PumpUntil([&] { return client_->UploadAcks(id) == cfg_.n; });
    client_->FinishUpload(id);
    return ok;
  }

  std::optional<Bytes> Download(std::uint64_t id) {
    // Reboot cert broadcasts queued while the window ran must be installed
    // before the request is sealed.
    while (auto msg = client_ep_->Receive()) client_->HandleMessage(*msg);
    std::optional<Bytes> out;
    client_->BeginDownload(ReadSpec::Classic(id));
    PumpUntil([&] {
      if (client_->ResponsesFor(id) >= hv_->params().degree() + 1) {
        out = client_->TryAssemble(id);
      }
      return out.has_value();
    });
    return out;
  }

 private:
  std::unique_ptr<net::AsyncTcpEndpoint> MakeEndpoint(std::uint32_t id,
                                                      std::uint16_t port) {
    net::AsyncTcpOptions o;
    o.id = id;
    o.listen_port = port;
    o.seed = cfg_.seed ^ id;
    o.heartbeat_interval_ms = cfg_.heartbeat_ms;
    return std::make_unique<net::AsyncTcpEndpoint>(o);
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

  template <typename Done>
  bool PumpUntil(Done done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      Tick();
      if (auto msg = client_ep_->ReceiveWait(5)) client_->HandleMessage(*msg);
    }
    return true;
  }

  MpConfig cfg_;
  std::vector<std::unique_ptr<HostProcess>> hosts_;
  std::unique_ptr<net::AsyncTcpEndpoint> hyper_ep_;
  std::unique_ptr<net::AsyncTcpEndpoint> client_ep_;
  WireFleet* fleet_ = nullptr;  // owned by hv_
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<Client> client_;
  std::set<std::uint32_t> halted_;
  std::set<std::uint32_t> ignores_reboots_;
  std::function<void()> on_tick_;
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
