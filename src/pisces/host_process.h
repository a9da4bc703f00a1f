// One storage host as an operating-system process: the Host state machine
// wrapped with a wire control plane (docs/deployment.md).
//
// In-process clusters drive Host lifecycle through direct privileged calls
// (Boot/Shutdown, the paper's Fig 4 management channel). A process-per-host
// deployment cannot: the hypervisor lives in another process. HostProcess is
// the adapter -- it owns the async TCP endpoint and the Host, services the
// control message types (kBootHost/kHaltHost/kStatusRequest/kAbortStuck) by
// calling the privileged methods, and forwards everything else to the Host.
//
// Control messages are only honored from the hypervisor endpoint id; the boot
// payload carries the CA public key (trust-on-first-boot over the loopback
// management link, the deployment doc spells out the threat model).
//
// A freshly exec'd hostd owns no key material and announces itself by
// repeating kStatusReport(online=false) to the hypervisor until booted --
// that announcement is what lets the coordinator detect a crash-restarted
// host and put it through the secure-reboot + recovery path.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "crypto/ca.h"
#include "net/async_tcp.h"
#include "pisces/host.h"
#include "pisces/mp_config.h"

namespace pisces {

// kBootHost payload: everything a fresh host needs to rejoin the network.
struct BootMaterial {
  Bytes ca_pk;
  std::uint32_t epoch = 0;
  crypto::HostCert cert;
  Bytes sk;
  std::vector<std::uint32_t> peers;
  std::vector<crypto::HostCert> directory;  // peer certs (client included)

  Bytes Serialize() const;
  static BootMaterial Deserialize(std::span<const std::uint8_t> data);
};

// kStatusReport payload. `row` of the carrying message echoes the row of the
// request it answers (0 for unsolicited announcements).
struct HostStatus {
  bool online = false;
  std::uint32_t epoch = 0;
  std::vector<std::uint64_t> files;

  Bytes Serialize() const;
  static HostStatus Deserialize(std::span<const std::uint8_t> data);
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
  void SendStatus(std::uint32_t echo_row);

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
