// Synchrony layer over the deterministic fabric.
//
// The paper (SectionIII-C.2, following Katz-Maurer-Tackmann-Zikas) simulates a
// synchronous network over point-to-point links using loosely synchronized
// clocks and bounded message delay. In the simulator that assumption
// materializes as sweep-based delivery: messages sent during sweep k are
// handled in sweep k+1, and a protocol that would take R communication rounds
// completes in R sweeps. Sweep counts therefore feed the latency component of
// modeled wire time, and quiescence-without-completion is exactly the
// bounded-delay timeout that flags unresponsive hosts.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/sim_transport.h"

namespace pisces::net {

// Anything that consumes messages (hosts, the client, the hypervisor).
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void HandleMessage(const Message& msg) = 0;
};

class SyncNetwork {
 public:
  explicit SyncNetwork(SimNet& net) : net_(net) {}

  void Register(std::uint32_t id, Transport* transport,
                MessageHandler* handler);

  struct PumpResult {
    std::uint64_t deliveries = 0;
    // Number of delivery sweeps =~ synchronous communication rounds.
    std::uint64_t sweeps = 0;
  };

  // Delivers messages in sweeps until no endpoint has pending traffic.
  // Throws InternalError if max_sweeps is exceeded (a livelocked protocol is
  // a bug, not a condition to limp through).
  PumpResult RunToQuiescence(std::uint64_t max_sweeps = 1'000'000);

 private:
  struct Entry {
    Transport* transport = nullptr;
    MessageHandler* handler = nullptr;
  };

  SimNet& net_;
  std::vector<std::uint32_t> order_;  // registration order, deterministic
  std::unordered_map<std::uint32_t, Entry> entries_;
};

}  // namespace pisces::net
