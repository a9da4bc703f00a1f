// Telemetry registry + protocol tracing tests: snapshot/delta semantics,
// trace JSON validity, span nesting, CSV reconciliation, and the
// disabled-tracing zero-cost contract.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/task_pool.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "pisces/pisces.h"
#include "trace_util.h"

namespace pisces {
namespace {

// Tracing is process-global; every test that enables it must leave it off
// and empty so unrelated tests (and the disabled-cost test below) see the
// default state.
struct TraceGuard {
  TraceGuard() {
    obs::DisableTracing();
    obs::ResetTrace();
  }
  ~TraceGuard() {
    obs::DisableTracing();
    obs::ResetTrace();
  }
};

ClusterConfig SmallConfig(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = seed;
  return cfg;
}

// --- registry -------------------------------------------------------------

TEST(Registry, RegistrationIsIdempotentByName) {
  obs::Counter& a = obs::RegisterCounter("test.idem", "test counter");
  obs::Counter& b = obs::RegisterCounter("test.idem", "test counter");
  EXPECT_EQ(&a, &b);
}

TEST(Registry, KindMismatchThrows) {
  obs::RegisterCounter("test.kind", "a counter");
  EXPECT_THROW(obs::RegisterGauge("test.kind", "now a gauge"), InvalidArgument);
}

TEST(Registry, SnapshotDeltaAttributesCounterActivity) {
  obs::Counter& c = obs::RegisterCounter("test.delta", "test counter");
  c.Add(5);
  const obs::Snapshot before = obs::TakeSnapshot();
  c.Add(3);
  c.Add();
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_EQ(obs::Value(delta, "test.delta"), 4u);
  EXPECT_EQ(obs::Value(delta, "test.absent"), 0u);
}

TEST(Registry, GaugeDeltaReportsLatestValue) {
  obs::Gauge& g = obs::RegisterGauge("test.gauge", "test gauge");
  g.Set(7);
  const obs::Snapshot before = obs::TakeSnapshot();
  g.Set(9);
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_EQ(obs::Value(delta, "test.gauge"), 9u);
}

TEST(Registry, SubstrateCountersAreRegistered) {
  std::set<std::string> names;
  for (const auto& [name, help] : obs::ListMetrics()) names.insert(name);
  EXPECT_TRUE(names.count("field.dot_calls"));
  EXPECT_TRUE(names.count("field.dot_products"));
  EXPECT_TRUE(names.count("field.dot_reductions"));
  EXPECT_TRUE(names.count("field.int_dot_calls"));
  EXPECT_TRUE(names.count("field.int_dot_products"));
  EXPECT_TRUE(names.count("math.wc_hits"));
  EXPECT_TRUE(names.count("math.wc_misses"));
}

// --- tracing --------------------------------------------------------------

TEST(Trace, DisabledTracingRecordsNothingAndAllocatesNothing) {
  TraceGuard guard;
  ASSERT_FALSE(obs::TraceEnabled());
  ASSERT_EQ(obs::TraceHeapBytes(), 0u);
  Cluster cluster(SmallConfig(17));
  Rng rng(23);
  cluster.Upload(1, rng.RandomBytes(900));
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  EXPECT_EQ(obs::TraceHeapBytes(), 0u);
}

TEST(Trace, JsonParsesAndSpansNest) {
  TraceGuard guard;
  Cluster cluster(SmallConfig(19));
  Rng rng(29);
  cluster.Upload(1, rng.RandomBytes(900));
  obs::EnableTracing("");  // collect in memory
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  obs::DisableTracing();

  const std::string json = obs::TraceToJson();
  EXPECT_TRUE(test::JsonChecker(json).Valid());

  const std::vector<test::TraceEv> evs = test::ParseTraceEvents(json);
  ASSERT_FALSE(evs.empty());

  // Every recorded parent id resolves to a recorded span.
  std::map<std::uint64_t, const test::TraceEv*> by_id;
  for (const auto& e : evs) {
    if (e.ph == 'X' && e.id != 0) by_id[e.id] = &e;
  }
  std::size_t net_events = 0;
  for (const auto& e : evs) {
    if (e.ph == 'i') {
      ++net_events;
      EXPECT_GT(e.bytes, 0u);
    }
    if (e.parent != 0) {
      EXPECT_TRUE(by_id.count(e.parent))
          << e.name << " has unknown parent 0x" << std::hex << e.parent;
    }
  }
  EXPECT_GT(net_events, 0u);

  // The protocol hierarchy is represented: a refresh.deal span chains up
  // through refresh.session to the window root.
  bool found_chain = false;
  for (const auto& e : evs) {
    if (e.name != "refresh.deal") continue;
    std::set<std::string> ancestors;
    std::uint64_t p = e.parent;
    // Bounded walk: a cycle would indicate corrupted parent links.
    for (int hops = 0; hops < 16 && p != 0; ++hops) {
      auto it = by_id.find(p);
      if (it == by_id.end()) break;
      ancestors.insert(it->second->name);
      p = it->second->parent;
    }
    if (ancestors.count("refresh.session") && ancestors.count("window")) {
      found_chain = true;
      break;
    }
  }
  EXPECT_TRUE(found_chain);

  // Pool chunk spans parent under protocol spans, never float free.
  for (const auto& e : evs) {
    if (e.cat == "pool") EXPECT_NE(e.parent, 0u) << "orphan pool chunk";
  }
}

TEST(Trace, PhaseDurationsReconcileExactlyWithMetrics) {
  TraceGuard guard;
  Cluster cluster(SmallConfig(21));
  Rng rng(31);
  cluster.Upload(1, rng.RandomBytes(900));
  cluster.ResetMetrics();
  obs::EnableTracing("");
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  obs::DisableTracing();

  // ComputeSection stamps its own measured wall/cpu into the span event, so
  // the per-phase sums must equal the PhaseMetrics totals to the nanosecond
  // -- the property that makes the trace reconcile with the CSV columns.
  std::uint64_t rerand_wall = 0, rerand_cpu = 0;
  std::uint64_t recover_wall = 0, recover_cpu = 0;
  for (const auto& e : test::ParseTraceEvents(obs::TraceToJson())) {
    if (e.phase == "rerand") {
      rerand_wall += e.wall_ns;
      rerand_cpu += e.cpu_ns;
    } else if (e.phase == "recover") {
      recover_wall += e.wall_ns;
      recover_cpu += e.cpu_ns;
    }
  }
  const HostMetrics m = cluster.TotalMetrics();
  EXPECT_EQ(rerand_wall, m.rerandomize.wall_ns);
  EXPECT_EQ(rerand_cpu, m.rerandomize.cpu_ns);
  EXPECT_EQ(recover_wall, m.recover.wall_ns);
  EXPECT_EQ(recover_cpu, m.recover.cpu_ns);
  EXPECT_GT(rerand_cpu, 0u);
  EXPECT_GT(recover_cpu, 0u);
}

TEST(Trace, MetricsAreIdenticalWithTracingOnAndOff) {
  // Tracing must observe, never perturb: exact counters (bytes, messages)
  // match between a traced and an untraced run of the same seeded window.
  TraceGuard guard;
  auto run = [](bool traced) {
    if (traced) {
      obs::EnableTracing("");
    } else {
      obs::DisableTracing();
    }
    Cluster cluster(SmallConfig(23));
    Rng rng(37);
    Bytes file = rng.RandomBytes(900);
    cluster.Upload(1, file);
    cluster.ResetMetrics();
    WindowReport report = cluster.RunUpdateWindow();
    HostMetrics m = cluster.TotalMetrics();
    obs::DisableTracing();
    obs::ResetTrace();
    return std::tuple{report.ok, m.rerandomize.bytes_sent,
                      m.rerandomize.msgs_sent, m.recover.bytes_sent,
                      m.recover.msgs_sent, cluster.Download(pisces::ReadSpec::Classic(1))};
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Trace, FlameSummaryCoversRecordedWindows) {
  TraceGuard guard;
  Cluster cluster(SmallConfig(27));
  Rng rng(41);
  cluster.Upload(1, rng.RandomBytes(900));
  obs::EnableTracing("");
  EXPECT_TRUE(cluster.RunUpdateWindow().ok);
  obs::DisableTracing();
  const std::string flame = obs::FlameSummary();
  EXPECT_NE(flame.find("window"), std::string::npos);
  EXPECT_NE(flame.find("refresh.deal"), std::string::npos);
  EXPECT_NE(flame.find("net.send"), std::string::npos);
}

}  // namespace
}  // namespace pisces
