// Per-phase measurement counters, attributed the way the paper reports them:
// "Computing" time is real CPU time spent in the protocol's share operations;
// "Sending" is metered bytes (converted to modeled wire time by the driver).
#pragma once

#include <cstdint>

#include "common/clock.h"
#include "obs/trace.h"

namespace pisces {

struct PhaseMetrics {
  // Total CPU consumed by the phase's compute sections, across every thread
  // (ambient CpuTimer + pool-worker extra). Invariant under thread count.
  std::uint64_t cpu_ns = 0;
  // Wall-clock spent inside the same sections. This is what shrinks when the
  // task pool fans work out (--threads); cpu_ns does not.
  std::uint64_t wall_ns = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_sent = 0;

  void Add(const PhaseMetrics& o) {
    cpu_ns += o.cpu_ns;
    wall_ns += o.wall_ns;
    bytes_sent += o.bytes_sent;
    msgs_sent += o.msgs_sent;
  }
};

// RAII meter for one compute section: on destruction adds the calling
// thread's CPU plus any pool-worker CPU (reported through extra()) to cpu_ns,
// and the elapsed monotonic time to wall_ns. Pass extra() as the
// extra_cpu_ns argument of task-pool-backed calls inside the section.
//
// Every section is also a trace span of the given kind (a/b are the span's
// protocol args; see obs/trace.h). The span is closed with THIS meter's
// wall/cpu numbers, so span durations in an exported trace reconcile exactly
// with the PhaseMetrics sums the CSV reports. The clock reads are the same
// with tracing on or off -- metrics are byte-identical either way.
class ComputeSection {
 public:
  ComputeSection(PhaseMetrics& m, obs::SpanKind kind, std::uint64_t a = 0,
                 std::uint64_t b = 0)
      : m_(m),
        span_(kind, a, b),
        cpu_start_(ThreadCpuNanos()),
        wall_start_(MonotonicNanos()) {}
  ~ComputeSection() {
    const std::uint64_t cpu = ThreadCpuNanos() - cpu_start_ + extra_;
    const std::uint64_t wall = MonotonicNanos() - wall_start_;
    m_.cpu_ns += cpu;
    m_.wall_ns += wall;
    span_.CloseWithTimes(wall, cpu);
  }
  ComputeSection(const ComputeSection&) = delete;
  ComputeSection& operator=(const ComputeSection&) = delete;

  std::uint64_t* extra() { return &extra_; }

 private:
  PhaseMetrics& m_;
  obs::Span span_;
  std::uint64_t extra_ = 0;
  std::uint64_t cpu_start_;
  std::uint64_t wall_start_;
};

// Robustness counters: how often the fault-tolerance machinery had to act.
struct FaultMetrics {
  // Dealer slots excluded from refresh rounds this host joined (a round with
  // m < n participants counts n - m exclusions once per session).
  std::uint64_t deals_excluded = 0;
  // Protocol rounds or client operations re-attempted after a failure.
  std::uint64_t retries = 0;
  // Bounded-delay timeouts: sessions aborted because quiescence arrived
  // without completion.
  std::uint64_t timeouts_fired = 0;

  void Add(const FaultMetrics& o) {
    deals_excluded += o.deals_excluded;
    retries += o.retries;
    timeouts_fired += o.timeouts_fired;
  }
};

struct HostMetrics {
  PhaseMetrics rerandomize;  // refresh: dealing, transform, verification
  PhaseMetrics recover;      // recovery: masks, masked shares, interpolation
  PhaseMetrics serve;        // set / reconstruct traffic
  FaultMetrics faults;       // robustness machinery activity
  void Reset() { *this = HostMetrics{}; }
};

// Field-substrate observability for one measurement window: which kernel
// path the cluster's field context dispatched to and how hard the lazy-dot
// and weight-cache layers worked. Filled by the driver from one obs registry
// snapshot delta ("field.*" / "math.*" counters) taken around the window;
// carried into the experiment CSV.
struct SubstrateMetrics {
  // Compile-time limb count of the bound kernels (0 = generic runtime path).
  std::uint64_t kernel_width = 0;
  std::uint64_t dot_calls = 0;       // lazy dot outputs produced
  std::uint64_t dot_products = 0;    // products accumulated unreduced
  std::uint64_t dot_reductions = 0;  // wide reductions (== dot outputs)
  std::uint64_t wc_hits = 0;         // math.wc_hits (weights, rows, generator)
  std::uint64_t wc_misses = 0;
};

}  // namespace pisces
