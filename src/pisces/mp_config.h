// Deployment configuration for the process-per-host plane (docs/deployment.md).
//
// One config file describes a whole deployment: the PSS parameters, the
// loopback port map, the supervision timing knobs, and where runtime
// artifacts (pid files, per-host logs) land. The launcher (pisces_mp), each
// host daemon (pisces_hostd), and the crash-restart drill all parse the same
// file, so a deployment is reproducible from one artifact.
//
// Format: `key = value` lines, `#` comments, unknown keys rejected (a typo'd
// knob must fail loudly, not silently default).
//
// Port map (all loopback): host i listens on base_port + i, the
// hypervisor on base_port + n, the client on base_port + n + 1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/async_tcp.h"
#include "pss/params.h"

namespace pisces {

struct MpConfig {
  // PSS parameters (pss::Params semantics; validated on parse).
  std::uint32_t n = 7;
  std::uint32_t t = 1;
  std::uint32_t l = 2;
  std::uint32_t r = 1;
  std::uint32_t field_bits = 256;

  std::uint16_t base_port = 46000;
  std::uint64_t seed = 1;       // root seed; derived per process
  bool encrypt = true;          // per-peer channel encryption on the links
  std::uint64_t heartbeat_ms = 100;   // transport supervision interval
  std::uint64_t deadline_ms = 8000;   // per-RPC bounded-delay deadline
  std::uint64_t restart_backoff_ms = 50;  // supervisor restart pacing
  std::string run_dir = "/tmp/pisces-mp";  // pid files, logs
  std::string hostd = "";  // path to the pisces_hostd binary (launcher only)

  static MpConfig Parse(const std::string& text);
  static MpConfig Load(const std::string& path);
  std::string Format() const;
  void Save(const std::string& path) const;

  // Throws InvalidArgument when the parameters are inconsistent.
  void Validate() const;
  pss::Params ToParams() const;

  std::uint16_t HostPort(std::uint32_t host_id) const;
  std::uint16_t HypervisorPort() const;
  std::uint16_t ClientPort() const;
  // The loopback endpoint of participant `id` (a host, net::kHypervisorId or
  // net::kClientId): listening on its port, peered with every other one.
  std::unique_ptr<net::AsyncTcpEndpoint> MakeEndpoint(std::uint32_t id) const;

  // Runtime artifact locations under run_dir.
  std::string PidPath(std::uint32_t host_id) const;
  std::string LogPath(std::uint32_t host_id) const;
};

}  // namespace pisces
