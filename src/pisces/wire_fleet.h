// The FleetControl of a process-per-host deployment: pisces_hostd processes
// (HostProcess) driven over the control message types (docs/deployment.md).
// Every wait carries the bounded-delay deadline (MpConfig::deadline_ms,
// expiries counted as net.deadline_expiries). A host that misses one turns
// silent -- treated as crashed, no longer waited for -- until it is heard
// from again, e.g. by the announcement a crash-restarted hostd repeats.
// Inspection answers come from one kStatusRequest/kStatusReport survey per
// settled round; a silent host answers with its last known state. Resharing
// and per-host metrics (zero) stay in-process.
//
// Only the Hypervisor drives the fleet (its FleetControl side is private):
// it opens every operation with a fresh survey, so no caller reads a view
// that client uploads have made stale. Hypervisor::Survey() is the
// operator's view.
#pragma once

#include <functional>

#include "net/async_tcp.h"
#include "pisces/fleet.h"
#include "pisces/host_process.h"
#include "pisces/mp_config.h"

namespace pisces {

class WireFleet final : public FleetControl {
 public:
  // Listens on the config's hypervisor port.
  explicit WireFleet(MpConfig cfg);

  // Runs inside every wait: the launcher polls its supervisor here so
  // restarts happen while the hypervisor blocks; tests pump their hosts.
  void SetTick(std::function<void()> tick) { tick_ = std::move(tick); }
  // Test seam: fires once, when the next refresh round starts settling
  // (dealings in flight, nothing applied) -- the drill SIGKILLs hosts here.
  void SetMidWindowHook(std::function<void()> hook) {
    mid_window_hook_ = std::move(hook);
  }
  std::uint64_t deadline_expiries() const { return deadline_expiries_; }

 private:
  // ---- FleetControl, reached only through the Hypervisor ----
  void Attach(const Bytes& ca_pk, net::MessageHandler* sink) override {
    ca_pk_ = ca_pk;
    sink_ = sink;
  }
  std::size_t slots() const override { return cfg_.n; }
  void BeginOperation() override { surveyed_ = false; }
  bool Boot(std::uint32_t id, Bytes sk, const CertDirectory& directory,
            const crypto::CertSnapshot& snap) override;
  void Halt(std::uint32_t id) override;
  // Hosts get an acked push; an external (the client) a plain send, which
  // the next settle gives time to land.
  void Publish(const crypto::CertSnapshot& snap,
               std::span<const std::uint32_t> to) override;
  void Send(net::Message msg) override;
  std::uint64_t Settle(std::uint32_t seq, const Completions& expect) override;
  void AbortStuck(std::vector<std::string>& aborted) override;
  bool Online(std::uint32_t id) override { return View(id).online; }
  bool Reachable(std::uint32_t id) override;
  std::vector<std::uint64_t> HeldFiles(std::uint32_t id) override;
  const FileMeta* Held(std::uint32_t id, std::uint64_t file) override;
  std::vector<Host::StuckRefresh> StuckRefresh(std::uint32_t id) override {
    return View(id).stuck_refresh;
  }
  std::vector<Host::StuckRecovery> StuckRecovery(std::uint32_t id) override {
    return View(id).stuck_recovery;
  }
  bool HasActiveSessions(std::uint32_t id) override {
    return View(id).active_sessions;
  }
  std::optional<Host::FailedRefresh> TakeFailedRefresh(
      std::uint32_t id, std::uint64_t file, std::uint32_t seq) override;
  HostMetrics Metrics() override { return {}; }

  // Next message before the absolute `deadline_ms` (ticking meanwhile), or
  // nullopt once it passed.
  std::optional<net::Message> ReceiveBy(std::uint64_t deadline_ms);
  // Any message un-silences its sender; kPhaseDone goes to the sink and an
  // announcement resets the sender's view.
  void Absorb(const net::Message& msg);
  // Sends `proto` (row = a fresh token) to every host in `ids` and waits one
  // deadline for the `reply`-typed answers of the non-silent ones; hosts
  // that miss it turn silent. Returns the answers by host.
  std::map<std::uint32_t, net::Message> Call(
      std::span<const std::uint32_t> ids, net::Message proto,
      net::MsgType reply);
  // Host `id`'s surveyed state (surveys the fleet first when stale).
  const HostStatus& View(std::uint32_t id);

  MpConfig cfg_;
  std::shared_ptr<const field::FpCtx> ctx_;
  std::unique_ptr<net::AsyncTcpEndpoint> ep_;
  Bytes ca_pk_;
  net::MessageHandler* sink_ = nullptr;
  std::function<void()> tick_;
  std::function<void()> mid_window_hook_;
  std::vector<std::uint32_t> all_;        // 0..n-1
  std::vector<HostStatus> view_;          // last known state per host
  std::vector<bool> answered_;            // answered the current survey
  bool surveyed_ = false;
  std::set<std::uint32_t> silent_;
  std::uint32_t round_seq_ = 0;           // seq of the last settled round
  bool refresh_launched_ = false;         // kStartRefresh sent, not settled
  bool pushed_external_ = false;          // unacked snapshot sent, not settled
  std::uint32_t next_token_ = 1;
  std::uint64_t deadline_expiries_ = 0;
};

}  // namespace pisces
