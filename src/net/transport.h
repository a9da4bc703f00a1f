// Transport abstraction: a reliable point-to-point channel fabric, the
// paper's SectionIV-B network stack. Two implementations exist:
//
//  * SimEndpoint -- deterministic in-process fabric used by tests and by the
//    experiment harness (it meters every byte);
//  * AsyncTcpEndpoint -- supervised real TCP (net/async_tcp.h), used by the
//    process-per-host deployment and the tcp_cluster example.
#pragma once

#include <optional>

#include "net/message.h"

namespace pisces::net {

class Transport {
 public:
  virtual ~Transport() = default;

  // Enqueues a message for delivery. Reliable and order-preserving per link
  // (the paper assumes TCP). `msg.from` must be this endpoint's id.
  virtual void Send(Message msg) = 0;

  // Next message addressed to this endpoint, or nullopt when none is
  // currently available.
  virtual std::optional<Message> Receive() = 0;

  virtual std::uint32_t id() const = 0;
};

// Simple latency/bandwidth model used to convert metered bytes and protocol
// rounds into modeled wire time (the paper's "sending" time component).
// Defaults follow SectionIV-B: intra-cloud links near the Internet backbone,
// 1 ms one-way latency, 1 Gbps, 1 s bounded-delay timeout.
struct NetworkModel {
  double latency_s = 0.001;
  double bandwidth_bytes_per_s = 125e6;  // 1 Gbps
  double timeout_s = 1.0;

  double TransferTime(std::uint64_t bytes, std::uint64_t rounds) const {
    return static_cast<double>(rounds) * latency_s +
           static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
};

}  // namespace pisces::net
