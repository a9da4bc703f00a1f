// Process-wide telemetry registry.
//
// Subsystems register named counters/gauges once (at static-init or first
// use) and bump them from hot paths with a single relaxed atomic op. The
// driver takes whole-registry snapshots around a measurement window and
// attributes activity to the window via the snapshot delta -- replacing the
// per-subsystem getter plumbing (field::GetKernelStats,
// math::GetWeightCacheStats) that previously had to be threaded through by
// hand for every new counter.
//
// Contract:
//  - Registration is idempotent by name and returns a reference with stable
//    address for the life of the process.
//  - Counter::Add / Gauge::Set are lock-free and allocation-free.
//  - Snapshots list metrics in registration order, so Delta can walk two
//    snapshots pairwise.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace obs {

// Monotonic event count; readers take snapshot deltas.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Last-written-value metric (pool size, bound kernel width, ...).
class Gauge {
 public:
  void Set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t Load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Registers (or looks up) a metric by name. The returned reference is valid
// forever; call once and cache it where the update site is hot. Registering
// the same name with both kinds is a programming error and throws.
Counter& RegisterCounter(const std::string& name, const std::string& help);
Gauge& RegisterGauge(const std::string& name, const std::string& help);

struct MetricValue {
  std::string name;
  std::uint64_t value = 0;
};

// Point-in-time values of every registered metric, in registration order.
using Snapshot = std::vector<MetricValue>;

Snapshot TakeSnapshot();

// after - before, pairwise. Metrics registered after `before` was taken are
// carried over from `after` at full value (their "before" is zero). Gauges
// are not differenced: the delta reports the `after` value.
Snapshot Delta(const Snapshot& before, const Snapshot& after);

// Value of `name` in a snapshot; 0 when absent.
std::uint64_t Value(const Snapshot& snap, const std::string& name);

// name -> help text for every registered metric, registration order.
std::vector<std::pair<std::string, std::string>> ListMetrics();

}  // namespace obs
