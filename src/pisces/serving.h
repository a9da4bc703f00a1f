// Sharded serving plane: the front-end that turns one-protocol clusters into
// a multi-file, multi-user storage service (docs/serving.md).
//
// Four pieces, layered:
//   * ShardRouter      -- deterministic file-id -> shard map (shard_router.h);
//   * session layer    -- many logical client sessions multiplex over one
//                         plane (and, through ServingGateway, over one
//                         persistent transport connection) instead of a
//                         one-shot Client object per operation;
//   * admission control-- per-shard bounded request queues; a full queue
//                         rejects with a retry-after hint instead of
//                         buffering without bound (the same stall-then-shed
//                         discipline as net/async_tcp's send queues);
//   * batch refresh    -- the proactive-window scheduler launches refresh for
//                         a whole shard's file population per batch (one
//                         round-trip structure for F files) instead of one
//                         pump per file; byte-identity with sequential
//                         per-file refresh is a tested contract.
//
// The plane is deterministic given its config seed and the submission order:
// no internal RNG, no wall-clock dependence in any control decision (clocks
// feed latency METRICS only). That is what lets determinism_test.cpp pin
// routing and batched-refresh outputs across task-pool sizes and restarts.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/serving_frame.h"
#include "pisces/cluster.h"
#include "pisces/shard_router.h"

namespace pisces {

struct ServingConfig {
  std::uint32_t shards = 2;
  // Per-shard PSS group shape; every shard runs an independent cluster.
  pss::Params params = pss::Params::Natural(8, 256);
  std::uint64_t seed = 1;
  bool encrypt_links = true;
  std::string schedule = "round-robin";
  // Admission control: at most this many queued requests per shard; the
  // next submit is rejected with a retry-after hint.
  std::size_t admission_capacity = 64;
  // Requests serviced per shard per Poll() call.
  std::size_t max_inflight = 4;
  // Base unit of the reject hint; the hint scales with queue depth.
  std::uint32_t retry_after_ms = 5;
  // Default read policy for download ops. A download frame may override it
  // per-request by carrying a serialized ReadPolicy as its payload (empty
  // payload = this default); see docs/bandwidth.md.
  ReadPolicy read_policy;
};

// One finished request, delivered out of Poll()/Drain() via TakeCompletions.
struct ServingCompletion {
  std::uint64_t session = 0;
  std::uint64_t request = 0;
  net::ServingOp op = net::ServingOp::kPing;
  std::uint64_t file_id = 0;
  net::ServingStatus status = net::ServingStatus::kOk;
  Bytes payload;               // download data / ping echo
  std::uint64_t queue_ns = 0;  // admission -> execution start
  std::uint64_t latency_ns = 0;  // admission -> completion
};

// Deterministic counters mirrored into the obs registry (serving.*).
struct ServingStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t accepted = 0;   // admitted into a queue (or immediate ops)
  std::uint64_t rejected = 0;   // admission control: queue full
  std::uint64_t refused = 0;    // semantic: duplicate/not-found/bad route/...
  std::uint64_t completed = 0;  // accepted requests finished ok
  std::uint64_t failed = 0;     // accepted requests that failed in execution
  std::uint64_t queue_peak = 0;  // deepest any shard queue ever got
  std::uint64_t refresh_batches = 0;
  std::uint64_t refresh_files = 0;
  std::uint64_t reshards = 0;     // completed shard migrations (epoch bumps)
  std::uint64_t stale_epoch = 0;  // requests refused for a stale route epoch
};

class ServingPlane {
 public:
  explicit ServingPlane(ServingConfig cfg);
  ~ServingPlane();

  ServingPlane(const ServingPlane&) = delete;
  ServingPlane& operator=(const ServingPlane&) = delete;

  const ServingConfig& config() const { return cfg_; }

  // --- shard namespace ---
  std::uint32_t shard_count() const { return cfg_.shards; }
  std::uint32_t ShardOf(std::uint64_t file_id) const {
    return router_.ShardOf(file_id);
  }
  Cluster& shard(std::uint32_t i) { return *shards_.at(i); }
  // Live file namespace: id -> owning shard.
  const std::map<std::uint64_t, std::uint32_t>& files() const {
    return files_;
  }
  // Group shape currently serving shard `i` (diverges from cfg_.params once
  // that shard has been resharded).
  const pss::Params& shard_params(std::uint32_t i) const {
    return shard_params_.at(i);
  }

  // --- versioned routing ---
  // Monotone routing-map version. Starts at 1 (0 is the wire's "unversioned"
  // sentinel) and bumps on every completed Reshard, so a frame stamped with
  // an old epoch is refused with kBadRoute instead of landing on a shard
  // whose group shape changed under it.
  std::uint64_t route_epoch() const { return route_epoch_; }
  // Snapshot of the current routing map (pushed to wire clients inside
  // kBadRoute responses; see ServingGateway). The plane migrates shards
  // synchronously inside Reshard(), so an emitted map never shows a shard
  // mid-migration: `migrating` is always 0 here. The wire field exists so an
  // asynchronous cutover can use it without a layout change.
  net::RoutingMap routing_map() const;

  // Live migration of one shard's PSS group to the shape `to` (same packing
  // l and field): drains only that shard's admission queue, reshares every
  // file through Cluster::Reshare (no reconstruction -- docs/resharding.md),
  // then bumps the route epoch. Untouched shards keep their queues and keep
  // serving. Returns false (fleet and epoch untouched) when the migration
  // fails.
  bool Reshard(std::uint32_t shard, const pss::Params& to);

  // --- session layer ---
  std::uint64_t OpenSession();
  bool CloseSession(std::uint64_t session);
  bool SessionOpen(std::uint64_t session) const;

  // --- admission ---
  // Result of offering a request. status == kOk means ACCEPTED: the request
  // is queued (or already completed, for immediate ops) and its outcome
  // arrives as a ServingCompletion. Any other status is a synchronous
  // reject; kRejected carries the backpressure hint.
  struct Admission {
    net::ServingStatus status = net::ServingStatus::kOk;
    std::uint32_t retry_after_ms = 0;
  };
  // In-process convenience: assigns the next per-session request ordinal and
  // routes by the deterministic shard map.
  Admission Submit(std::uint64_t session, net::ServingOp op,
                   std::uint64_t file_id, Bytes payload = {});
  // Wire entry point: validates the frame's shard routing header against the
  // router and its request ordinal against the session's sequence (implicit
  // session open on first use -- the gateway's session lifecycle).
  Admission SubmitFrame(const net::ServingRequestFrame& frame);

  // --- execution ---
  // Services up to max_inflight queued requests per shard, in admission
  // order. Shards execute concurrently on the global task pool (a shard's
  // own batch stays sequential; shards never share a file, so cross-shard
  // work is independent); completions are merged in shard order, so the
  // completion stream is bit-identical to a sequential shard-by-shard poll
  // for any pool size. Returns the number of requests executed.
  std::size_t Poll();
  // Polls until every queue is empty; returns total requests executed.
  std::size_t Drain();
  std::vector<ServingCompletion> TakeCompletions();
  std::size_t QueueDepth(std::uint32_t shard) const {
    return queues_.at(shard).size();
  }
  std::size_t TotalQueued() const;

  // --- proactive plane ---
  // Batched refresh of every live file, shard by shard: each shard's whole
  // population launches at once, its sessions pumped together
  // (Hypervisor::RefreshFiles). Refresh-only; reboots stay with
  // RunProactiveWindow.
  bool BatchRefresh();
  // One proactive window per shard: batched refresh of the shard population
  // plus the full secure-reboot schedule with recovery.
  bool RunProactiveWindow();

  const ServingStats& stats() const { return stats_; }

 private:
  struct Session {
    bool open = false;
    std::uint64_t last_request = 0;  // highest ordinal accepted
  };
  struct Pending {
    std::uint64_t session = 0;
    std::uint64_t request = 0;
    net::ServingOp op = net::ServingOp::kPing;
    std::uint64_t file_id = 0;
    Bytes payload;
    std::uint64_t accept_ns = 0;
  };

  Admission Offer(std::uint64_t session, std::uint64_t request,
                  net::ServingOp op, std::uint64_t file_id, Bytes payload);
  // One executed request: the completion record plus its deferred namespace
  // effect. Execute mutates no plane state (only the shard's own cluster and
  // the atomic obs counters), so Poll can run whole shards concurrently and
  // apply the effects serially in shard order.
  struct Executed {
    ServingCompletion completion;
    bool erase_file = false;  // committed delete, or failed-upload rollback
  };
  Executed Execute(std::uint32_t shard, Pending p);
  void CompleteImmediate(const Pending& p, net::ServingStatus status,
                         Bytes payload);
  std::uint32_t RetryHint(std::uint32_t shard) const;

  ServingConfig cfg_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Cluster>> shards_;
  std::vector<pss::Params> shard_params_;  // current shape per shard
  std::uint64_t route_epoch_ = 1;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_ = 1;
  std::map<std::uint64_t, std::uint32_t> files_;  // live: id -> shard
  std::vector<std::deque<Pending>> queues_;       // per shard
  std::vector<ServingCompletion> completions_;
  ServingStats stats_;
};

// Wire-facing front door: demultiplexes kServingRequest frames arriving on
// one transport endpoint into a ServingPlane and answers each with a
// kServingResponse frame -- admission rejects synchronously, completions
// after Pump(). One gateway serves many concurrent sessions over however
// many connections the transport carries; with net::AsyncTcpEndpoint that
// is the persistent-connection serving path of docs/serving.md.
class ServingGateway : public net::MessageHandler {
 public:
  ServingGateway(ServingPlane& plane, net::Transport& transport,
                 std::uint32_t id = net::kGatewayId);

  void HandleMessage(const net::Message& msg) override;

  // Executes queued work (plane.Poll) and flushes every completion to its
  // session's peer. Returns the number of responses sent.
  std::size_t Pump();

  std::uint64_t bad_frames() const { return bad_frames_; }

 private:
  void Respond(std::uint32_t peer, std::uint64_t file_id,
               const net::ServingResponseFrame& frame);

  ServingPlane& plane_;
  net::Transport& transport_;
  std::uint32_t id_;
  // Wire session -> plane session and response route. Wire ids are
  // per-peer (two clients may both call their first session "1").
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> wire_to_;
  std::map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>> plane_to_;
  std::uint64_t bad_frames_ = 0;
};

}  // namespace pisces
