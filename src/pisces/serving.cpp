#include "pisces/serving.h"

#include <algorithm>
#include <set>

#include "common/clock.h"
#include "common/log.h"
#include "common/task_pool.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace pisces {

namespace {

using net::ServingOp;
using net::ServingStatus;

struct ServingCounters {
  obs::Counter& sessions_opened =
      obs::RegisterCounter("serving.sessions_opened", "logical sessions opened");
  obs::Counter& sessions_closed =
      obs::RegisterCounter("serving.sessions_closed", "logical sessions closed");
  obs::Counter& accepted =
      obs::RegisterCounter("serving.accepted", "requests admitted to a queue");
  obs::Counter& rejected = obs::RegisterCounter(
      "serving.rejected", "requests shed by admission control (queue full)");
  obs::Counter& refused = obs::RegisterCounter(
      "serving.refused", "requests refused semantically (dup/not-found/route)");
  obs::Counter& completed =
      obs::RegisterCounter("serving.completed", "accepted requests finished ok");
  obs::Counter& failed = obs::RegisterCounter(
      "serving.failed", "accepted requests that failed in execution");
  obs::Counter& uploads =
      obs::RegisterCounter("serving.uploads", "upload requests executed");
  obs::Counter& downloads =
      obs::RegisterCounter("serving.downloads", "download requests executed");
  obs::Counter& deletes =
      obs::RegisterCounter("serving.deletes", "delete requests executed");
  obs::Counter& refresh_batches = obs::RegisterCounter(
      "serving.refresh_batches", "batched refresh launches across all shards");
  obs::Counter& refresh_files = obs::RegisterCounter(
      "serving.refresh_files", "files refreshed through the batch scheduler");
  obs::Counter& bad_frames = obs::RegisterCounter(
      "serving.bad_frames", "serving frames dropped as unparseable");
  obs::Counter& reshards = obs::RegisterCounter(
      "serving.reshards", "completed shard migrations (route epoch bumps)");
  obs::Counter& stale_epoch = obs::RegisterCounter(
      "serving.stale_epoch", "requests refused for a stale route epoch");
  obs::Gauge& queue_peak = obs::RegisterGauge(
      "serving.queue_peak", "deepest admission queue observed on any shard");
};

ServingCounters& Counters() {
  static ServingCounters* c = new ServingCounters();
  return *c;
}

// splitmix64 step for deriving per-shard cluster seeds.
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool IsRoutedOp(ServingOp op) {
  return op == ServingOp::kUpload || op == ServingOp::kDownload ||
         op == ServingOp::kDelete;
}

}  // namespace

ServingPlane::ServingPlane(ServingConfig cfg)
    : cfg_(std::move(cfg)), router_(cfg_.shards) {
  Require(cfg_.shards > 0, "ServingPlane: need at least one shard");
  Require(cfg_.admission_capacity > 0,
          "ServingPlane: admission capacity must be positive");
  Require(cfg_.max_inflight > 0, "ServingPlane: max_inflight must be positive");
  cfg_.params.Validate();
  shards_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    ClusterConfig cc;
    cc.params = cfg_.params;
    // Independent PSS groups: every shard gets its own derived seed, so
    // share randomness never correlates across shards.
    cc.seed = MixSeed(cfg_.seed ^ (std::uint64_t{s} << 32 | s));
    cc.encrypt_links = cfg_.encrypt_links;
    cc.schedule = cfg_.schedule;
    shards_.push_back(std::make_unique<Cluster>(std::move(cc)));
  }
  shard_params_.assign(cfg_.shards, cfg_.params);
  queues_.resize(cfg_.shards);
}

ServingPlane::~ServingPlane() = default;

std::uint64_t ServingPlane::OpenSession() {
  // Skip ids the wire path implicitly opened (clients pick their own).
  while (sessions_.count(next_session_) != 0) ++next_session_;
  const std::uint64_t id = next_session_++;
  sessions_[id].open = true;
  stats_.sessions_opened += 1;
  Counters().sessions_opened.Add(1);
  return id;
}

bool ServingPlane::CloseSession(std::uint64_t session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.open) return false;
  it->second.open = false;  // tombstoned: the id is never reused as-open
  stats_.sessions_closed += 1;
  Counters().sessions_closed.Add(1);
  return true;
}

bool ServingPlane::SessionOpen(std::uint64_t session) const {
  auto it = sessions_.find(session);
  return it != sessions_.end() && it->second.open;
}

std::uint32_t ServingPlane::RetryHint(std::uint32_t shard) const {
  // Deterministic queueing-delay estimate: depth/max_inflight is the number
  // of Poll rounds before a newly admitted request would run.
  const std::uint64_t rounds =
      queues_[shard].size() / std::max<std::size_t>(1, cfg_.max_inflight);
  return static_cast<std::uint32_t>(cfg_.retry_after_ms * (1 + rounds));
}

ServingPlane::Admission ServingPlane::Submit(std::uint64_t session,
                                             ServingOp op,
                                             std::uint64_t file_id,
                                             Bytes payload) {
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.open) {
    stats_.refused += 1;
    Counters().refused.Add(1);
    return {ServingStatus::kBadSession, 0};
  }
  return Offer(session, it->second.last_request + 1, op, file_id,
               std::move(payload));
}

ServingPlane::Admission ServingPlane::SubmitFrame(
    const net::ServingRequestFrame& frame) {
  // Epoch check first: a frame stamped with any epoch other than the current
  // one was routed under a different fleet shape, so its shard header is
  // meaningless -- refuse before validating it. Epoch 0 is the unversioned
  // sentinel (a client that has never seen a map) and is always accepted; a
  // FUTURE epoch is refused too, since this plane cannot honor a map it has
  // not published. The gateway attaches the current RoutingMap to every
  // kBadRoute response so the sender can re-route instead of failing.
  if (frame.epoch != 0 && frame.epoch != route_epoch_) {
    stats_.refused += 1;
    stats_.stale_epoch += 1;
    Counters().refused.Add(1);
    Counters().stale_epoch.Add(1);
    return {ServingStatus::kBadRoute, 0};
  }
  // Routing header is validated, never trusted: a client that hashed with a
  // stale shard map must learn about it instead of landing on a wrong group.
  if (IsRoutedOp(frame.op) && frame.shard != router_.ShardOf(frame.file_id)) {
    stats_.refused += 1;
    Counters().refused.Add(1);
    return {ServingStatus::kBadRoute, 0};
  }
  auto it = sessions_.find(frame.session);
  if (it == sessions_.end()) {
    // Implicit open on first use: the wire session lifecycle.
    it = sessions_.emplace(frame.session, Session{true, 0}).first;
    stats_.sessions_opened += 1;
    Counters().sessions_opened.Add(1);
  }
  if (!it->second.open || frame.request <= it->second.last_request) {
    // Closed session, or a replayed/reordered ordinal: the per-session
    // sequence is strictly increasing by contract.
    stats_.refused += 1;
    Counters().refused.Add(1);
    return {ServingStatus::kBadSession, 0};
  }
  return Offer(frame.session, frame.request, frame.op, frame.file_id,
               frame.payload);
}

ServingPlane::Admission ServingPlane::Offer(std::uint64_t session,
                                            std::uint64_t request,
                                            ServingOp op,
                                            std::uint64_t file_id,
                                            Bytes payload) {
  Session& sess = sessions_.at(session);
  auto refuse = [&](ServingStatus st) -> Admission {
    stats_.refused += 1;
    Counters().refused.Add(1);
    return {st, 0};
  };

  Pending p;
  p.session = session;
  p.request = request;
  p.op = op;
  p.file_id = file_id;
  p.payload = std::move(payload);
  p.accept_ns = MonotonicNanos();

  // Immediate ops never touch a queue: they carry no backend work.
  if (op == ServingOp::kPing) {
    sess.last_request = request;
    stats_.accepted += 1;
    Counters().accepted.Add(1);
    CompleteImmediate(p, ServingStatus::kOk, std::move(p.payload));
    return {ServingStatus::kOk, 0};
  }
  if (op == ServingOp::kCloseSession) {
    sess.last_request = request;
    stats_.accepted += 1;
    Counters().accepted.Add(1);
    CloseSession(session);
    CompleteImmediate(p, ServingStatus::kOk, {});
    return {ServingStatus::kOk, 0};
  }

  // Semantic validation against the live namespace. Uploads claim their id
  // at admission so two queued uploads of one id cannot both be accepted;
  // downloads/deletes of a queued-but-unexecuted upload are admitted and
  // ordered behind it by the shard's FIFO queue.
  const std::uint32_t shard = router_.ShardOf(file_id);
  if (op == ServingOp::kUpload) {
    if (files_.count(file_id) != 0) return refuse(ServingStatus::kDuplicate);
    if (p.payload.empty()) return refuse(ServingStatus::kFailed);
  } else {
    auto f = files_.find(file_id);
    if (f == files_.end()) return refuse(ServingStatus::kNotFound);
  }

  // Admission control: bounded queue, reject-with-retry-after.
  if (queues_[shard].size() >= cfg_.admission_capacity) {
    stats_.rejected += 1;
    Counters().rejected.Add(1);
    return {ServingStatus::kRejected, RetryHint(shard)};
  }

  sess.last_request = request;
  if (op == ServingOp::kUpload) files_.emplace(file_id, shard);
  queues_[shard].push_back(std::move(p));
  stats_.accepted += 1;
  Counters().accepted.Add(1);
  const std::uint64_t depth = queues_[shard].size();
  if (depth > stats_.queue_peak) {
    stats_.queue_peak = depth;
    Counters().queue_peak.Set(depth);
  }
  return {ServingStatus::kOk, 0};
}

void ServingPlane::CompleteImmediate(const Pending& p, ServingStatus status,
                                     Bytes payload) {
  ServingCompletion c;
  c.session = p.session;
  c.request = p.request;
  c.op = p.op;
  c.file_id = p.file_id;
  c.status = status;
  c.payload = std::move(payload);
  c.queue_ns = 0;
  c.latency_ns = MonotonicNanos() - p.accept_ns;
  completions_.push_back(std::move(c));
  if (status == ServingStatus::kOk) {
    stats_.completed += 1;
    Counters().completed.Add(1);
  } else {
    stats_.failed += 1;
    Counters().failed.Add(1);
  }
}

ServingPlane::Executed ServingPlane::Execute(std::uint32_t shard, Pending p) {
  obs::Span span(obs::SpanKind::kServingRequest, p.session, p.file_id);
  Cluster& cluster = *shards_[shard];
  const std::uint64_t start_ns = MonotonicNanos();

  Executed r;
  ServingCompletion& c = r.completion;
  c.session = p.session;
  c.request = p.request;
  c.op = p.op;
  c.file_id = p.file_id;
  c.queue_ns = start_ns - p.accept_ns;
  c.status = ServingStatus::kOk;
  try {
    switch (p.op) {
      case ServingOp::kUpload:
        cluster.Upload(p.file_id, p.payload);
        Counters().uploads.Add(1);
        break;
      case ServingOp::kDownload: {
        // Policy-driven read: the plane's configured default, overridden
        // per-request when the frame carried a serialized ReadPolicy. The
        // request ordinal rides along as the spec's freshness tag.
        ReadSpec spec;
        spec.file_id = p.file_id;
        spec.policy = p.payload.empty() ? cfg_.read_policy
                                        : ReadPolicy::Deserialize(p.payload);
        spec.ordinal = p.request;
        c.payload = cluster.Download(spec);
        Counters().downloads.Add(1);
        break;
      }
      case ServingOp::kDelete:
        cluster.Delete(p.file_id);
        r.erase_file = true;
        Counters().deletes.Add(1);
        break;
      default:
        // Immediate ops never reach a queue.
        c.status = ServingStatus::kFailed;
        break;
    }
  } catch (const Error& e) {
    LogWarn() << "serving: " << net::ServingOpName(p.op) << " file "
              << p.file_id << " failed: " << e.what();
    c.status = ServingStatus::kFailed;
    // A failed upload surrenders its namespace claim.
    if (p.op == ServingOp::kUpload) r.erase_file = true;
  }
  c.latency_ns = MonotonicNanos() - p.accept_ns;
  return r;
}

std::size_t ServingPlane::Poll() {
  // Phase 1 (serial): pop this poll's batch per shard, in admission order.
  std::vector<std::vector<Pending>> batches(cfg_.shards);
  std::size_t executed = 0;
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    for (std::size_t k = 0; k < cfg_.max_inflight && !queues_[s].empty();
         ++k) {
      batches[s].push_back(std::move(queues_[s].front()));
      queues_[s].pop_front();
      ++executed;
    }
  }
  if (executed == 0) return 0;

  // Phase 2 (parallel): shards execute concurrently; each writes only its
  // own results slot. A shard's batch stays sequential (same-shard requests
  // may touch the same file), and shards never share a file (the router
  // partitions the namespace), so cross-shard execution is independent pure
  // compute against disjoint clusters. Nested pool use inside Cluster runs
  // inline on the worker (common/task_pool.h contract).
  std::vector<std::vector<Executed>> results(cfg_.shards);
  GlobalPool().ParallelFor(0, cfg_.shards, [&](std::size_t s) {
    results[s].reserve(batches[s].size());
    for (Pending& p : batches[s]) {
      results[s].push_back(Execute(static_cast<std::uint32_t>(s),
                                   std::move(p)));
    }
  });

  // Phase 3 (serial): apply effects and emit completions in shard order --
  // exactly the order the old sequential shard-by-shard loop produced, so
  // the completion stream is bit-identical for any pool size.
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    for (Executed& r : results[s]) {
      if (r.erase_file) files_.erase(r.completion.file_id);
      if (r.completion.status == ServingStatus::kOk) {
        stats_.completed += 1;
        Counters().completed.Add(1);
      } else {
        stats_.failed += 1;
        Counters().failed.Add(1);
      }
      completions_.push_back(std::move(r.completion));
    }
  }
  return executed;
}

std::size_t ServingPlane::Drain() {
  std::size_t executed = 0;
  while (TotalQueued() > 0) executed += Poll();
  return executed;
}

std::vector<ServingCompletion> ServingPlane::TakeCompletions() {
  std::vector<ServingCompletion> out;
  out.swap(completions_);
  return out;
}

std::size_t ServingPlane::TotalQueued() const {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

bool ServingPlane::BatchRefresh() {
  // An admitted-but-unexecuted upload has claimed its id in files_ but the
  // hosts hold nothing yet; launching refresh for it would both fail ("not
  // enough holders") and poison the hypervisor catalog with an id it never
  // stored. Those ids refresh in the next window, after their upload runs.
  std::vector<std::set<std::uint64_t>> queued_uploads(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    for (const Pending& p : queues_[s]) {
      if (p.op == ServingOp::kUpload) queued_uploads[s].insert(p.file_id);
    }
  }

  // Shard-local sorted populations: launch order is a pure function of the
  // live namespace, never of submission interleaving.
  std::vector<std::vector<std::uint64_t>> per_shard(cfg_.shards);
  for (const auto& [id, shard] : files_) {
    if (queued_uploads[shard].count(id) == 0) per_shard[shard].push_back(id);
  }

  bool ok = true;
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    const std::vector<std::uint64_t>& population = per_shard[s];
    if (population.empty()) continue;
    obs::Span span(obs::SpanKind::kServingRefresh, s, population.size());
    ok = shards_[s]->hypervisor().RefreshFiles(population) && ok;
    stats_.refresh_batches += 1;
    stats_.refresh_files += population.size();
    Counters().refresh_batches.Add(1);
    Counters().refresh_files.Add(population.size());
  }
  return ok;
}

bool ServingPlane::RunProactiveWindow() {
  // One full window per shard: the hypervisor's refresh pass launches the
  // whole shard population before a single pump (Hypervisor::RefreshFiles),
  // so the per-window cost is one batched round-trip structure plus the
  // reboot schedule -- never a pump per file.
  bool ok = true;
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    ok = shards_[s]->RunUpdateWindow().ok && ok;
  }
  return ok;
}

net::RoutingMap ServingPlane::routing_map() const {
  net::RoutingMap map;
  map.epoch = route_epoch_;
  map.shards.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    net::RoutingShard entry;
    entry.n = static_cast<std::uint32_t>(shard_params_[s].n);
    entry.t = static_cast<std::uint32_t>(shard_params_[s].t);
    entry.migrating = 0;  // migrations are synchronous; see the header
    map.shards.push_back(entry);
  }
  return map;
}

bool ServingPlane::Reshard(std::uint32_t shard, const pss::Params& to) {
  Require(shard < cfg_.shards, "ServingPlane::Reshard: no such shard");
  obs::Span span(obs::SpanKind::kReshardShard, shard, route_epoch_ + 1);

  // Drain only the migrating shard's queue: admitted work must execute
  // against a consistent group, and the namespace claims of queued uploads
  // must resolve before the cutover. Other shards' queues are untouched --
  // they keep serving through Poll() while this shard migrates.
  while (!queues_[shard].empty()) {
    Pending p = std::move(queues_[shard].front());
    queues_[shard].pop_front();
    Executed r = Execute(shard, std::move(p));
    if (r.erase_file) files_.erase(r.completion.file_id);
    if (r.completion.status == ServingStatus::kOk) {
      stats_.completed += 1;
      Counters().completed.Add(1);
    } else {
      stats_.failed += 1;
      Counters().failed.Add(1);
    }
    completions_.push_back(std::move(r.completion));
  }

  try {
    shards_[shard]->Reshare(to);
  } catch (const Error& e) {
    // Failed migrations leave the old group serving (Hypervisor::Reshare
    // mutates nothing on failure), so the epoch must not move either.
    LogWarn() << "serving: reshard of shard " << shard << " failed: "
              << e.what();
    return false;
  }
  shard_params_[shard] = to;
  ++route_epoch_;
  stats_.reshards += 1;
  Counters().reshards.Add(1);
  return true;
}

// ---- gateway --------------------------------------------------------------

ServingGateway::ServingGateway(ServingPlane& plane, net::Transport& transport,
                               std::uint32_t id)
    : plane_(plane), transport_(transport), id_(id) {}

void ServingGateway::HandleMessage(const net::Message& msg) {
  if (msg.type != net::MsgType::kServingRequest) return;  // not for us
  net::ServingRequestFrame frame;
  try {
    frame = net::ServingRequestFrame::Deserialize(msg.payload);
  } catch (const ParseError& e) {
    ++bad_frames_;
    Counters().bad_frames.Add(1);
    LogWarn() << "gateway: dropping unparseable serving frame from "
              << msg.from << ": " << e.what();
    return;
  }

  // Translate the per-peer wire session into a plane session (two clients
  // may both call their first session "1").
  const auto wire_key = std::make_pair(msg.from, frame.session);
  auto it = wire_to_.find(wire_key);
  if (it == wire_to_.end()) {
    const std::uint64_t plane_session = plane_.OpenSession();
    it = wire_to_.emplace(wire_key, plane_session).first;
    plane_to_.emplace(plane_session, wire_key);
  }
  net::ServingRequestFrame routed = frame;
  routed.session = it->second;

  const ServingPlane::Admission adm = plane_.SubmitFrame(routed);
  if (adm.status != net::ServingStatus::kOk) {
    net::ServingResponseFrame resp;
    resp.session = frame.session;
    resp.request = frame.request;
    resp.status = adm.status;
    resp.retry_after_ms = adm.retry_after_ms;
    if (adm.status == net::ServingStatus::kBadRoute) {
      // Push the current routing map with the refusal so the sender can
      // re-stamp and re-route instead of failing the operation (the
      // bounded-retry loop in ServingWireClient).
      resp.payload = plane_.routing_map().Serialize();
    }
    Respond(msg.from, frame.file_id, resp);
  }
  // Accepted requests answer through Pump() once their completion lands.
}

std::size_t ServingGateway::Pump() {
  plane_.Poll();
  std::size_t sent = 0;
  for (ServingCompletion& c : plane_.TakeCompletions()) {
    auto route = plane_to_.find(c.session);
    if (route == plane_to_.end()) continue;  // in-process session, not ours
    net::ServingResponseFrame resp;
    resp.session = route->second.second;
    resp.request = c.request;
    resp.status = c.status;
    resp.payload = std::move(c.payload);
    Respond(route->second.first, c.file_id, resp);
    ++sent;
    if (c.op == net::ServingOp::kCloseSession) {
      wire_to_.erase(route->second);
      plane_to_.erase(route);
    }
  }
  return sent;
}

void ServingGateway::Respond(std::uint32_t peer, std::uint64_t file_id,
                             const net::ServingResponseFrame& frame) {
  net::Message m;
  m.from = id_;
  m.to = peer;
  m.type = net::MsgType::kServingResponse;
  m.file_id = file_id;
  m.payload = frame.Serialize();
  transport_.Send(std::move(m));
}

}  // namespace pisces
