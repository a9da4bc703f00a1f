// Production-shaped asynchronous TCP transport: one epoll reactor thread per
// endpoint, non-blocking length-framed I/O, bounded queues with end-to-end
// backpressure, and per-peer connection supervision.
//
// This is the only real-network transport, the deployment-plane counterpart
// of the deterministic SimEndpoint (the testing substrate). Both pass the
// same transport-conformance suite; the async endpoint is what pisces_hostd,
// the hypervisor's WireFleet, and the tcp_cluster example run on
// (docs/deployment.md).
//
// Wire format: every frame is a 4-byte little-endian length prefix followed
// by `length` bytes. length >= kWireHeaderSize frames a serialized Message;
// length == kHeartbeatFrameLen frames a heartbeat carrying the sender id;
// anything else is a protocol violation and closes the connection. The
// length prefix is validated against kMaxFrameBytes BEFORE any allocation.
//
// Supervision model (the paper's bounded-delay synchrony, SectionIII-C.2):
//  * every peer that has ever exchanged traffic is supervised: the endpoint
//    heartbeats it each interval and tracks when it was last heard from;
//  * a connect failure or mid-stream disconnect schedules a reconnect with
//    exponential backoff plus seeded jitter (1 ms doubling to a 1 s cap);
//    queued frames survive the reconnect, cut-off partial frames are
//    retransmitted from the frame boundary;
//  * a peer silent past miss_limit heartbeat intervals counts a heartbeat
//    miss and forces a reconnect cycle (half-open connections die here);
//  * per-RPC deadlines live one layer up: callers bound each protocol wait
//    with ReceiveWait(timeout) and count expiries as net.deadline_expiries.
//
// Backpressure (stall, never unbounded-buffer):
//  * per-peer send queues are capped; Send() blocks (a counted stall) while
//    its peer's queue is full, and drops the frame (counted) only after the
//    stall budget expires -- message loss is something every protocol layer
//    already tolerates, an unbounded queue is not;
//  * the receive queue is capped too: past the cap the reactor stops reading
//    (EPOLLIN off), TCP flow control propagates the stall to the sender, and
//    reading resumes once the application drains below the low-water mark.
//
// A peer dying mid-write surfaces as EPIPE/ECONNRESET on the reactor thread
// and is handled as a reconnect; SIGPIPE is ignored process-wide
// (common/socket_util.h) and every blocking syscall retries EINTR.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/event_loop.h"
#include "common/rng.h"
#include "net/transport.h"

namespace pisces::net {

// Heartbeat frames carry exactly the 4-byte sender id.
inline constexpr std::uint32_t kHeartbeatFrameLen = 4;

struct AsyncTcpOptions {
  std::uint32_t id = 0;
  std::uint16_t listen_port = 0;
  std::uint64_t seed = 1;  // reconnect jitter stream
  std::uint64_t heartbeat_interval_ms = 250;
  std::uint32_t heartbeat_miss_limit = 8;
  std::size_t send_queue_cap_bytes = 32u << 20;  // per peer
  std::size_t recv_queue_cap_bytes = 64u << 20;  // whole endpoint
  std::uint64_t backpressure_stall_ms = 10'000;  // Send() stall budget
  std::uint64_t backoff_min_ms = 1;
  std::uint64_t backoff_max_ms = 1'000;
};

class AsyncTcpEndpoint : public Transport {
 public:
  explicit AsyncTcpEndpoint(AsyncTcpOptions opts);
  ~AsyncTcpEndpoint() override;

  AsyncTcpEndpoint(const AsyncTcpEndpoint&) = delete;
  AsyncTcpEndpoint& operator=(const AsyncTcpEndpoint&) = delete;

  // Registers where a peer listens. Must happen before sending to that peer.
  void AddPeer(std::uint32_t peer_id, std::uint16_t port);

  // Thread-safe. Never throws for an unreachable peer: frames queue across
  // reconnects and are dropped (counted) only past the backpressure budget,
  // mirroring the loss semantics every protocol layer already handles.
  void Send(Message msg) override;
  std::optional<Message> Receive() override;
  // Blocks up to timeout_ms for a message (the paper's bounded-delay wait).
  // Does NOT count a deadline expiry -- idle polling is not a missed RPC;
  // callers waiting on a specific response count expiries themselves.
  std::optional<Message> ReceiveWait(int timeout_ms);
  std::uint32_t id() const override { return opts_.id; }

  // Whether `peer` was heard from (message or heartbeat) within the
  // supervision window. Unknown peers are unhealthy.
  bool PeerHealthy(std::uint32_t peer_id) const;

  struct PeerStats {
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t frames_dropped = 0;
  };
  PeerStats StatsFor(std::uint32_t peer_id) const;

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t reconnects() const { return reconnects_; }
  std::uint64_t heartbeat_misses() const { return heartbeat_misses_; }
  std::uint64_t backpressure_stalls() const { return backpressure_stalls_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  struct Peer {
    std::uint16_t port = 0;
    int fd = -1;  // outbound connection (send side)
    enum class State { kDown, kConnecting, kConnected } state = State::kDown;
    std::deque<Bytes> queue;  // framed bytes awaiting write
    std::size_t queue_bytes = 0;
    std::size_t write_off = 0;  // progress into queue.front()
    bool supervised = false;
    bool ever_connected = false;
    std::uint64_t backoff_ms = 0;
    std::uint64_t retry_timer = 0;  // nonzero while a reconnect is scheduled
    std::uint64_t last_heard_ms = 0;
    std::uint64_t last_miss_mark_ms = 0;
    PeerStats stats;
  };

  struct Inbound {
    int fd = -1;
    Bytes buf;  // unparsed stream bytes
  };

  // --- reactor-thread only ---
  void LoopMain();
  void OnListenReady();
  void OnInboundReady(int fd, std::uint32_t events);
  void CloseInbound(int fd);
  void ParseInbound(Inbound& in);
  void StartConnect(std::uint32_t peer_id);
  void OnOutboundReady(std::uint32_t peer_id, std::uint32_t events);
  void DrainSendQueue(std::uint32_t peer_id);
  void CloseOutbound(std::uint32_t peer_id, bool reschedule);
  void ScheduleReconnect(std::uint32_t peer_id);
  void HeartbeatTick();
  void UpdateReadInterest();

  // --- shared helpers ---
  void EnqueueLocked(Peer& p, Bytes frame);  // caller holds mutex_
  Peer& TouchPeerLocked(std::uint32_t peer_id);
  std::uint64_t NowMs() const;

  AsyncTcpOptions opts_;
  EventLoop loop_;
  int listen_fd_ = -1;
  std::thread loop_thread_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;  // guards peers_ map contents + recv queue
  std::condition_variable send_cv_;  // backpressure stall/resume
  std::map<std::uint32_t, Peer> peers_;

  std::condition_variable recv_cv_;
  std::deque<Message> recv_queue_;
  std::size_t recv_queue_bytes_ = 0;
  bool reading_paused_ = false;

  // Reactor-owned: live inbound connections and the jitter stream.
  std::unordered_map<int, Inbound> inbound_;
  Rng jitter_rng_;

  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> heartbeat_misses_{0};
  std::atomic<std::uint64_t> backpressure_stalls_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
};

}  // namespace pisces::net
