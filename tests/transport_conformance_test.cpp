// Transport conformance: the same behavioral contract, asserted against
// every substrate the protocol stack can run on.
//
//  * SimEndpoint/SimNet -- the deterministic testing substrate;
//  * AsyncTcpEndpoint   -- the supervised deployment transport.
//
// The contract the host/client/hypervisor layers actually rely on:
//  1. per-link FIFO: messages between a live pair arrive in send order, on a
//     pair and across an all-to-all mesh, for one-byte and 1 MiB payloads;
//  2. timeout semantics: a bounded receive on a silent link returns empty
//     (it never blocks forever and never fabricates a message);
//  3. reconnect-after-restart: after an endpoint crashes and a replacement
//     comes up at the same address, resent traffic eventually flows again
//     (individual in-flight messages MAY be lost -- every protocol layer
//     already tolerates loss, so the suite asserts eventual delivery under
//     resends, not lossless handoff);
//  4. backpressure: a sender outrunning a non-draining receiver stalls
//     (counted) instead of buffering unboundedly, and drains completely once
//     the receiver resumes. Only the async transport implements explicit
//     backpressure (SimNet mailboxes are unbounded by design -- determinism
//     outranks memory bounds in tests), so fabrics advertise the capability.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "net/async_tcp.h"
#include "net/sim_transport.h"
#include "test_ports.h"

namespace pisces::net {
namespace {

std::uint16_t BasePort() {
  return test::BasePort(test::PortSuite::kTransportConformance);
}

Message Make(std::uint32_t from, std::uint32_t to, Bytes payload) {
  Message m;
  m.from = from;
  m.to = to;
  m.type = MsgType::kDeal;
  m.payload = std::move(payload);
  return m;
}

// One fabric = `size` endpoints (ids 1..size) over one substrate; endpoint
// `id` listens on base + id where the substrate has addresses.
class Fabric {
 public:
  virtual ~Fabric() = default;
  virtual const char* name() const = 0;
  virtual void Send(std::uint32_t from, std::uint32_t to, Bytes payload) = 0;
  virtual std::optional<Message> Recv(std::uint32_t at, int timeout_ms) = 0;
  // Crash endpoint `at` and bring a replacement up at the same address.
  virtual void Restart(std::uint32_t at) = 0;
  virtual bool HasBackpressure() const { return false; }
};

class SimFabric : public Fabric {
 public:
  explicit SimFabric(std::uint32_t size) {
    for (std::uint32_t id = 1; id <= size; ++id) {
      eps_.push_back(net_.AddEndpoint(id));
    }
  }
  const char* name() const override { return "sim"; }
  void Send(std::uint32_t from, std::uint32_t to, Bytes payload) override {
    eps_[from - 1]->Send(Make(from, to, std::move(payload)));
  }
  std::optional<Message> Recv(std::uint32_t at, int) override {
    // Delivery is synchronous: an empty mailbox IS the timeout.
    return eps_[at - 1]->Receive();
  }
  void Restart(std::uint32_t at) override {
    // Crash semantics: mailbox purged, replacement starts clean.
    net_.SetOffline(at, true);
    net_.SetOffline(at, false);
  }

 private:
  SimNet net_;
  std::vector<SimEndpoint*> eps_;
};

class AsyncTcpFabric : public Fabric {
 public:
  AsyncTcpFabric(std::uint16_t base, std::uint32_t size,
                 std::size_t send_cap = 32u << 20,
                 std::size_t recv_cap = 64u << 20,
                 std::uint64_t stall_ms = 10'000)
      : base_(base), eps_(size), send_cap_(send_cap), recv_cap_(recv_cap),
        stall_ms_(stall_ms) {
    for (std::uint32_t id = 1; id <= size; ++id) Boot(id);
  }
  const char* name() const override { return "async-tcp"; }
  void Send(std::uint32_t from, std::uint32_t to, Bytes payload) override {
    eps_[from - 1]->Send(Make(from, to, std::move(payload)));
  }
  std::optional<Message> Recv(std::uint32_t at, int timeout_ms) override {
    return eps_[at - 1]->ReceiveWait(timeout_ms);
  }
  void Restart(std::uint32_t at) override {
    eps_[at - 1].reset();
    Boot(at);
  }
  bool HasBackpressure() const override { return true; }
  AsyncTcpEndpoint& ep(std::uint32_t id) { return *eps_[id - 1]; }

 private:
  void Boot(std::uint32_t id) {
    AsyncTcpOptions o;
    o.id = id;
    o.listen_port = static_cast<std::uint16_t>(base_ + id);
    o.seed = 11 + id;
    o.heartbeat_interval_ms = 50;
    o.backoff_max_ms = 100;
    o.send_queue_cap_bytes = send_cap_;
    o.recv_queue_cap_bytes = recv_cap_;
    o.backpressure_stall_ms = stall_ms_;
    eps_[id - 1] = std::make_unique<AsyncTcpEndpoint>(o);
    for (std::uint32_t other = 1; other <= eps_.size(); ++other) {
      if (other != id) {
        eps_[id - 1]->AddPeer(other,
                              static_cast<std::uint16_t>(base_ + other));
      }
    }
  }
  std::uint16_t base_;
  std::vector<std::unique_ptr<AsyncTcpEndpoint>> eps_;
  std::size_t send_cap_, recv_cap_;
  std::uint64_t stall_ms_;
};

// Fabric factories, so each check gets a fresh substrate on fresh ports.
using Factory =
    std::function<std::unique_ptr<Fabric>(std::uint16_t base,
                                          std::uint32_t size)>;
std::vector<Factory> AllFabrics() {
  return {
      [](std::uint16_t, std::uint32_t size) {
        return std::make_unique<SimFabric>(size);
      },
      [](std::uint16_t base, std::uint32_t size) {
        return std::make_unique<AsyncTcpFabric>(base, size);
      },
  };
}

TEST(TransportConformance, PerLinkOrdering) {
  // Inputs: a pair and a 4-endpoint all-to-all mesh. Every directed link
  // carries 30 one-byte frames and then one 1 MiB frame, all sent before
  // anything is received, so links interleave at every receiver.
  constexpr std::uint8_t kSmall = 30;
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::uint16_t base = BasePort();
  for (std::uint32_t size : {2u, 4u}) {
    for (const auto& make : AllFabrics()) {
      auto f = make(base, size);
      base = static_cast<std::uint16_t>(base + size + 1);
      SCOPED_TRACE(std::string(f->name()) + " x" + std::to_string(size));
      for (std::uint32_t from = 1; from <= size; ++from) {
        for (std::uint32_t to = 1; to <= size; ++to) {
          if (from == to) continue;
          for (std::uint8_t i = 0; i < kSmall; ++i) f->Send(from, to, Bytes{i});
          f->Send(from, to, big);
        }
      }
      for (std::uint32_t to = 1; to <= size; ++to) {
        std::map<std::uint32_t, std::size_t> next;  // per-sender position
        for (std::size_t k = 0; k < (kSmall + 1u) * (size - 1); ++k) {
          auto m = f->Recv(to, 5000);
          ASSERT_TRUE(m.has_value()) << "receiver " << to << " frame " << k;
          std::size_t& pos = next[m->from];
          if (pos < kSmall) {
            EXPECT_EQ(m->payload, Bytes{static_cast<std::uint8_t>(pos)});
          } else {
            EXPECT_TRUE(m->payload == big) << "1 MiB frame from " << m->from;
          }
          ++pos;
        }
        EXPECT_EQ(next.size(), size - 1u);  // heard from every peer
        EXPECT_FALSE(f->Recv(to, 50).has_value());  // and nothing more
      }
    }
  }
}

TEST(TransportConformance, TimeoutOnSilentLink) {
  std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 30);
  for (const auto& make : AllFabrics()) {
    auto f = make(base, 2);
    base = static_cast<std::uint16_t>(base + 3);
    SCOPED_TRACE(f->name());
    EXPECT_FALSE(f->Recv(1, 50).has_value());
    EXPECT_FALSE(f->Recv(2, 50).has_value());
  }
}

TEST(TransportConformance, ReconnectAfterRestart) {
  std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 40);
  for (const auto& make : AllFabrics()) {
    auto f = make(base, 2);
    base = static_cast<std::uint16_t>(base + 3);
    SCOPED_TRACE(f->name());

    f->Send(1, 2, Bytes{1});
    ASSERT_TRUE(f->Recv(2, 3000).has_value());

    // Receiver crashes and restarts at the same address. Messages in flight
    // across the crash may be lost; resent traffic must eventually flow.
    f->Restart(2);
    bool delivered = false;
    for (int attempt = 0; attempt < 40 && !delivered; ++attempt) {
      f->Send(1, 2, Bytes{2});
      auto m = f->Recv(2, 250);
      delivered = m.has_value() && m->payload[0] == 2;
    }
    EXPECT_TRUE(delivered) << "no delivery after receiver restart";

    // Sender crashes and restarts: the replacement can reach the peer.
    f->Restart(1);
    delivered = false;
    for (int attempt = 0; attempt < 40 && !delivered; ++attempt) {
      f->Send(1, 2, Bytes{3});
      auto m = f->Recv(2, 250);
      delivered = m.has_value() && m->payload[0] == 3;
    }
    EXPECT_TRUE(delivered) << "no delivery after sender restart";
  }
}

TEST(TransportConformance, BackpressureStallsAndResumes) {
  std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 60);
  // Small user-space queues (256 KiB send, 64 KiB recv) against an 8 MiB
  // burst: with the receiver paused, kernel socket buffers hold at most a
  // few hundred KiB (autotuning only grows them for a *reading* app), so the
  // sender must hit its queue cap and stall. The 30 s stall budget is never
  // reached -- the drainer resumes long before.
  auto f = std::make_unique<AsyncTcpFabric>(base, 2, 256 * 1024, 64 * 1024,
                                            30'000);
  ASSERT_TRUE(f->HasBackpressure());

  constexpr int kCount = 128;
  const Bytes chunk(64 * 1024, 0xCD);
  std::thread drainer([&] {
    // Let the sender hit the wall first, then drain everything.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    for (int i = 0; i < kCount; ++i) {
      auto m = f->Recv(2, 10'000);
      ASSERT_TRUE(m.has_value()) << "lost frame " << i << " under stall";
      EXPECT_EQ(m->payload.size(), chunk.size());
    }
  });
  for (int i = 0; i < kCount; ++i) f->Send(1, 2, chunk);  // stalls mid-burst
  drainer.join();

  EXPECT_GE(f->ep(1).backpressure_stalls(), 1u);  // it did stall...
  EXPECT_EQ(f->ep(1).frames_dropped(), 0u);       // ...but dropped nothing
}

}  // namespace
}  // namespace pisces::net
