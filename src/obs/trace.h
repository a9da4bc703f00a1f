// Structured protocol tracing: RAII spans with deterministic ids.
//
// Spans cover the protocol's unit structure -- update window -> refresh
// session -> deal/transform/verify, recovery batch, VSS round, client
// set/reconstruct, codec encode/decode, task-pool chunks -- plus instant
// events for every transport send/recv with byte counts. The recorded trace
// exports as Chrome-trace-viewer JSON ({"traceEvents": [...]}; load in
// chrome://tracing or ui.perfetto.dev) and as a per-window flame summary.
//
// Determinism contract (tested in determinism_test.cpp):
//  - A span's id is a splitmix64 mix of (parent id, kind, two protocol args,
//    per-parent sibling ordinal). All protocol spans open on the simulator's
//    single control thread in protocol order, so ids are bit-identical across
//    runs and across any --threads / pool size.
//  - Task-pool chunk spans (category "pool") are the one exception: their
//    COUNT varies with pool size (the static chunk split). Each chunk's id is
//    still a pure function of (parent id, chunk index) -- execution order
//    never matters -- but identity tests must filter category "pool".
//  - Net send/recv are instant events (no id); they fire on the control
//    thread in sweep order.
//
// Cost contract: when tracing is disabled (the default) every entry point is
// one relaxed atomic load and an early return -- no allocation, no clock
// reads, no locks. ComputeSection keeps its own clock reads either way, so
// cpu_ns/wall_ns metrics are byte-identical with tracing on or off.
#pragma once

#include <cstdint>
#include <string>

namespace obs {

enum class SpanKind : std::uint32_t {
  kWindow = 0,         // one hypervisor update window; a = window ordinal
  kRefreshSession,     // one refresh attempt over all files; a = attempt seq
  kRecoveryBatch,      // one recovery batch; a = attempt seq, b = #targets
  kRefreshDeal,        // host deals its refresh VSS batch; a = host, b = file
  kRefreshTransform,   // share transform + check-vector work; a = host, b = file
  kRefreshVerify,      // row verification; a = host, b = row
  kRefreshApply,       // applying the refreshed shares; a = host, b = file
  kRecoverDeal,        // survivor deals all targets' masks; a = host, b = file
  kRecoverTransform,   // survivor transform + check; a = host, b = file
  kRecoverVerify,      // survivor row verification; a = host, b = row
  kRecoverMask,        // masked-share production (a = host, b = file) or
                       // parse (a = host, b = sender)
  kRecoverFinish,      // target-side interpolation; a = host, b = file
  kServe,              // host set/reconstruct service work; a = host, b = file
  kVssDeal,            // VssBatch::DealFrom; a = dealer, b = #groups
  kVssTransform,       // VssBatch::Transform; a = #rows, b = #cols
  kVssVerify,          // VssBatch check-vector verification; a = row
  kClientSet,          // client encode+share upload; a = file, b = bytes
  kClientReconstruct,  // client reconstruct/decode; a = file, b = robust
  kCodecEncode,        // file -> field blocks; a = #blocks
  kCodecDecode,        // field blocks -> file; a = #blocks
  kPoolChunk,          // one task-pool chunk; a = chunk index, b = #chunks
  kByzAction,          // byzantine actor cheats; a = host, b = strategy
  kByzDetect,          // cheat detected/attributed; a = host, b = site
  kNetConnect,         // async-TCP (re)connect; a = self, b = peer
  kServingRequest,     // one serving-plane request; a = session, b = file
  kServingRefresh,     // one batched shard refresh launch; a = shard, b = #files
  kReshare,            // one fleet migration to (n', t'); a = #files, b = n'
  kReshareFile,        // one file's reshare round; a = file, b = attempt
  kReshardShard,       // one serving-plane shard reshard; a = shard, b = epoch
  kCertVerify,         // CA signature check of a host cert; a = host, b = epoch
  kSign,               // CA issues a signed host keypair; a = host, b = epoch
  kSignSnapshot,       // CA signs a reboot batch's cert snapshot; a = seq,
                       // b = #certs
  kVerifySnapshot,     // CA signature check of a cert snapshot; a = seq,
                       // b = #certs
  kCount
};

const char* SpanName(SpanKind k);      // e.g. "refresh.deal"
const char* SpanCategory(SpanKind k);  // "proto", "vss", "client", "codec", "pool"

// --- global switch -------------------------------------------------------
bool TraceEnabled();
// Enables collection. `path` is remembered for WriteTrace(""); pass empty to
// collect in memory only.
void EnableTracing(const std::string& path);
void DisableTracing();
// Drops collected events and resets the id/window bookkeeping of the calling
// thread. (Worker-thread bookkeeping resets itself: contexts are scoped.)
void ResetTrace();

// --- spans ---------------------------------------------------------------
class Span {
 public:
  explicit Span(SpanKind kind, std::uint64_t a = 0, std::uint64_t b = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Close the span now, stamping measured wall/cpu nanos from an external
  // meter (ComputeSection) instead of the tracer's own clocks. The event is
  // tagged with the metric phase its kind accumulates into ("rerand",
  // "recover", "serve", "client"), keeping trace durations reconcilable, to
  // the nanosecond, with the PhaseMetrics the CSV reports.
  void CloseWithTimes(std::uint64_t wall_ns, std::uint64_t cpu_ns);

  // 0 when tracing is disabled.
  std::uint64_t id() const { return id_; }

 private:
  void Close(std::uint64_t wall_ns, std::uint64_t cpu_ns, bool metric_backed);
  bool active_ = false;
  SpanKind kind_ = SpanKind::kCount;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t a_ = 0, b_ = 0;
  std::uint64_t ts0_ = 0;   // monotonic ns at open
  std::uint64_t cpu0_ = 0;  // thread cpu ns at open
};

// Instant event for one transport message. `dir` is "send" or "recv".
void NetEvent(const char* dir, std::uint64_t from, std::uint64_t to,
              std::uint64_t bytes);

// --- cross-thread context ------------------------------------------------
// The task pool captures the dispatching thread's context and installs it in
// each worker so chunk spans parent correctly and carry the window ordinal.
struct TraceContext {
  std::uint64_t parent_id = 0;
  std::uint64_t window = 0;
};
TraceContext CurrentTraceContext();

class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_window_ = 0;
};

// --- export --------------------------------------------------------------
// Chrome trace viewer JSON ({"traceEvents":[...]}). Ids are hex strings
// (JSON numbers are doubles; 64-bit ids would lose bits). ts/dur are in
// microseconds as the format requires; exact nanosecond wall/cpu live in
// args.wall_ns / args.cpu_ns.
std::string TraceToJson();
// Writes TraceToJson() to `path`, or to the EnableTracing path when empty.
void WriteTrace(const std::string& path = "");

// Per-window flame summary: for each (window, span name), the call count and
// total wall/cpu, aligned for terminal reading.
std::string FlameSummary();

// Introspection for tests.
std::size_t TraceEventCount();
// Bytes of heap owned by the trace event buffer (0 when tracing never ran).
std::size_t TraceHeapBytes();

}  // namespace obs
