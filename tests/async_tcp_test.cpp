// Async TCP transport tests: framing, supervision, backpressure, rejection.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/bytes.h"
#include "net/async_tcp.h"
#include "net/message.h"
#include "test_ports.h"

namespace pisces::net {
namespace {

std::uint16_t BasePort() {
  return test::BasePort(test::PortSuite::kAsyncTcp);
}

AsyncTcpOptions Opts(std::uint32_t id, std::uint16_t port) {
  AsyncTcpOptions o;
  o.id = id;
  o.listen_port = port;
  o.seed = 7 + id;
  o.heartbeat_interval_ms = 50;
  o.backoff_max_ms = 100;  // keep reconnect cycles fast under test
  return o;
}

Message Make(std::uint32_t to, Bytes payload) {
  Message m;
  m.to = to;
  m.type = MsgType::kDeal;
  m.payload = std::move(payload);
  return m;
}

template <typename Cond>
bool WaitFor(Cond cond, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(AsyncTcp, RoundTripAndStats) {
  const std::uint16_t base = BasePort();
  AsyncTcpEndpoint a(Opts(1, base));
  AsyncTcpEndpoint b(Opts(2, static_cast<std::uint16_t>(base + 1)));
  a.AddPeer(2, static_cast<std::uint16_t>(base + 1));
  b.AddPeer(1, base);

  a.Send(Make(2, Bytes{1, 2, 3}));
  auto m = b.ReceiveWait(3000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, 1u);  // Send stamps the sender id
  EXPECT_EQ(m->payload, (Bytes{1, 2, 3}));
  EXPECT_TRUE(WaitFor([&] { return a.StatsFor(2).frames_sent >= 1; }, 2000));
  EXPECT_GT(a.bytes_sent(), 0u);
  EXPECT_GT(a.StatsFor(2).bytes_sent, 0u);
  EXPECT_GE(b.StatsFor(1).frames_received, 1u);
}

TEST(AsyncTcp, PerLinkOrdering) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 2);
  AsyncTcpEndpoint a(Opts(1, base));
  AsyncTcpEndpoint b(Opts(2, static_cast<std::uint16_t>(base + 1)));
  a.AddPeer(2, static_cast<std::uint16_t>(base + 1));
  b.AddPeer(1, base);

  for (std::uint8_t i = 0; i < 100; ++i) a.Send(Make(2, Bytes{i}));
  for (std::uint8_t i = 0; i < 100; ++i) {
    auto m = b.ReceiveWait(3000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload[0], i);  // per-link FIFO survives queueing
  }
}

TEST(AsyncTcp, SelfSendDeliversLocally) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 4);
  AsyncTcpEndpoint a(Opts(1, base));
  a.Send(Make(1, Bytes{9}));
  auto m = a.ReceiveWait(1000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, 1u);
  EXPECT_EQ(m->payload[0], 9);
}

TEST(AsyncTcp, UnknownPeerThrows) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 5);
  AsyncTcpEndpoint a(Opts(1, base));
  EXPECT_THROW(a.Send(Make(99, Bytes{1})), Error);
}

TEST(AsyncTcp, QueuesUntilPeerAppears) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 6);
  AsyncTcpEndpoint a(Opts(1, base));
  const auto peer_port = static_cast<std::uint16_t>(base + 1);
  a.AddPeer(2, peer_port);
  a.Send(Make(2, Bytes{42}));  // nobody is listening yet; must not throw

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  AsyncTcpEndpoint b(Opts(2, peer_port));
  b.AddPeer(1, base);
  auto m = b.ReceiveWait(5000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload[0], 42);
}

TEST(AsyncTcp, ReconnectsAfterPeerRestart) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 8);
  const auto peer_port = static_cast<std::uint16_t>(base + 1);
  AsyncTcpEndpoint a(Opts(1, base));
  a.AddPeer(2, peer_port);

  auto b = std::make_unique<AsyncTcpEndpoint>(Opts(2, peer_port));
  b->AddPeer(1, base);
  a.Send(Make(2, Bytes{1}));
  ASSERT_TRUE(b->ReceiveWait(3000).has_value());

  b.reset();  // peer "crashes"; a's connection dies mid-supervision
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  b = std::make_unique<AsyncTcpEndpoint>(Opts(2, peer_port));  // "restart"
  b->AddPeer(1, base);

  a.Send(Make(2, Bytes{2}));
  auto m = b->ReceiveWait(5000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload[0], 2);
  EXPECT_GE(a.reconnects(), 1u);
  EXPECT_GE(a.StatsFor(2).reconnects, 1u);
}

TEST(AsyncTcp, PeerHealthTracksHeartbeats) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 10);
  AsyncTcpEndpoint a(Opts(1, base));
  auto b = std::make_unique<AsyncTcpEndpoint>(
      Opts(2, static_cast<std::uint16_t>(base + 1)));
  a.AddPeer(2, static_cast<std::uint16_t>(base + 1));
  b->AddPeer(1, base);

  EXPECT_FALSE(a.PeerHealthy(2));  // no traffic yet
  a.Send(Make(2, Bytes{1}));
  ASSERT_TRUE(b->ReceiveWait(3000).has_value());
  // b's heartbeats carry its id back to a over a's inbound connection.
  EXPECT_TRUE(WaitFor([&] { return a.PeerHealthy(2); }, 3000));

  b.reset();  // silence; the supervision window must eventually expire
  EXPECT_TRUE(WaitFor(
      [&] { return !a.PeerHealthy(2) && a.heartbeat_misses() >= 1; }, 5000));
}

TEST(AsyncTcp, BackpressureStallsThenDropsTowardDeadPeer) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 12);
  AsyncTcpOptions o = Opts(1, base);
  o.send_queue_cap_bytes = 4 * 1024;
  o.backpressure_stall_ms = 50;  // short stall budget under test
  AsyncTcpEndpoint a(o);
  a.AddPeer(2, static_cast<std::uint16_t>(base + 1));  // nobody listens

  const Bytes big(2 * 1024, 0xBB);
  for (int i = 0; i < 6; ++i) a.Send(Make(2, big));
  EXPECT_GE(a.backpressure_stalls(), 1u);
  EXPECT_GE(a.frames_dropped(), 1u);
  EXPECT_GE(a.StatsFor(2).frames_dropped, 1u);
}

TEST(AsyncTcp, OversizedLengthPrefixRejectedBeforeAllocation) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 14);
  AsyncTcpEndpoint a(Opts(1, base));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(base);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::uint8_t prefix[4];
  StoreLe32(0xFFFFFFFFu, prefix);  // claims a ~4 GiB frame
  ASSERT_EQ(::send(fd, prefix, sizeof(prefix), MSG_NOSIGNAL), 4);

  // The endpoint must reject the length before allocating and close the
  // connection: the raw socket observes EOF.
  char c;
  ssize_t r = -1;
  EXPECT_TRUE(WaitFor(
      [&] {
        r = ::recv(fd, &c, 1, MSG_DONTWAIT);
        return r == 0;
      },
      3000));
  EXPECT_EQ(r, 0);
  ::close(fd);

  // And the endpoint is still serving: a real message gets through.
  AsyncTcpEndpoint b(Opts(2, static_cast<std::uint16_t>(base + 1)));
  b.AddPeer(1, base);
  b.Send(Make(1, Bytes{7}));
  auto m = a.ReceiveWait(3000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload[0], 7);
}

TEST(AsyncTcp, ReceiveWaitTimesOut) {
  const std::uint16_t base = static_cast<std::uint16_t>(BasePort() + 16);
  AsyncTcpEndpoint a(Opts(1, base));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(a.ReceiveWait(50).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(40));
  EXPECT_FALSE(a.Receive().has_value());
}

}  // namespace
}  // namespace pisces::net
