// One storage host as an operating-system process: the Host state machine
// wrapped with a wire control plane (docs/deployment.md). The hypervisor
// lives in another process, so HostProcess owns the async TCP endpoint and
// the Host, serves the control message types (see net/message.h) through
// the Host's privileged methods, and forwards everything else to the Host.
//
// Control messages are only honored from the hypervisor endpoint id; the boot
// payload carries the CA public key (trust-on-first-boot over the loopback
// management link, the deployment doc spells out the threat model).
//
// A freshly exec'd hostd owns no key material and announces itself by
// repeating kStatusReport(online=false) to the hypervisor until booted --
// that announcement is how the hypervisor's WireFleet learns a host
// crash-restarted and lost its state before the schedule reboots it.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/ca.h"
#include "net/async_tcp.h"
#include "pisces/host.h"
#include "pisces/mp_config.h"

namespace pisces {

// kBootHost payload: everything a fresh host needs to rejoin the network.
struct BootMaterial {
  Bytes ca_pk;
  Bytes sk;
  crypto::CertDirectory directory;  // every cert, this host's and the client's
  crypto::CertSnapshot snapshot;    // the boot batch's, listing this host

  Bytes Serialize() const;
  static BootMaterial Deserialize(std::span<const std::uint8_t> data);
};

// kStatusReport payload: one host's state as the hypervisor's WireFleet
// sees it. `row` of the carrying message echoes the row of the request it
// answers (0 for unsolicited announcements). Every ack carries it; only the
// answer to a kStatusRequest -- the end-of-round survey, one round trip per
// host -- hands over archives.
struct HostStatus {
  bool online = false;
  bool active_sessions = false;
  std::vector<FileMeta> files;  // held files, ascending id
  std::vector<Host::StuckRefresh> stuck_refresh;
  std::vector<Host::StuckRecovery> stuck_recovery;
  // Archived dealing columns of this host's failed refresh sessions for the
  // surveyed round (handed over, so each archive travels once). Columns are
  // in kStartRefresh participant order; the list itself is not sent.
  std::map<std::uint64_t, Host::FailedRefresh> failed_refresh;

  Bytes Serialize() const;
  // `ctx` checks the archived elements (each below p).
  static HostStatus Deserialize(std::span<const std::uint8_t> data,
                                const field::FpCtx& ctx);
};

class HostProcess {
 public:
  HostProcess(MpConfig cfg, std::uint32_t id);

  // Serves until Stop() (callable from any thread) or process death
  // (deployment). Announces "needs boot" every announce interval while not
  // booted.
  void Serve();
  void Stop() { running_ = false; }

  // One service step, factored out so tests can drive it synchronously.
  void HandleMessage(const net::Message& msg);

  net::AsyncTcpEndpoint& endpoint() { return *endpoint_; }
  Host* host() { return host_.get(); }

 private:
  void OnBootHost(const net::Message& msg);
  void OnHaltHost(const net::Message& msg);
  // Reports status to the hypervisor, handing over the archives of round
  // `survey_seq` when given.
  void SendStatus(std::uint32_t echo_row,
                  std::optional<std::uint32_t> survey_seq = std::nullopt);

  MpConfig cfg_;
  std::uint32_t id_;
  std::shared_ptr<const field::FpCtx> ctx_;
  std::unique_ptr<net::AsyncTcpEndpoint> endpoint_;
  std::unique_ptr<Host> host_;
  Bytes ca_pk_;  // learned at first boot
  std::atomic<bool> running_{true};
};

// Entry point for the pisces_hostd binary.
int RunHostProcess(const std::string& config_path, std::uint32_t id);

}  // namespace pisces
