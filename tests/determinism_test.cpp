// Reproducibility properties: the entire system is deterministic given a
// seed -- the property the paper's benchmarking methodology depends on, and
// the reason every figure in bench/ is exactly re-runnable.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/task_pool.h"
#include "obs/trace.h"
#include "pisces/pisces.h"
#include "trace_util.h"

namespace pisces {
namespace {

ClusterConfig Config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = seed;
  return cfg;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    Cluster cluster(Config(seed));
    Rng rng(99);
    Bytes file = rng.RandomBytes(1500);
    cluster.Upload(1, file);
    cluster.ResetMetrics();
    WindowReport report = cluster.RunUpdateWindow();
    HostMetrics m = cluster.TotalMetrics();
    return std::tuple{report.ok, m.rerandomize.bytes_sent,
                      m.recover.bytes_sent, m.rerandomize.msgs_sent,
                      m.recover.msgs_sent, cluster.Download(pisces::ReadSpec::Classic(1))};
  };
  auto a = run(42);
  auto b = run(42);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsProduceDifferentShares) {
  Cluster c1(Config(1));
  Cluster c2(Config(2));
  Rng rng(5);
  Bytes file = rng.RandomBytes(400);
  c1.Upload(1, file);
  c2.Upload(1, file);
  auto s1 = c1.host(0).store().Decode(1);
  auto s2 = c2.host(0).store().Decode(1);
  EXPECT_NE(s1, s2);  // share randomness differs...
  EXPECT_EQ(c1.Download(pisces::ReadSpec::Classic(1)), c2.Download(pisces::ReadSpec::Classic(1)));  // ...but contents agree
}

TEST(Determinism, ExperimentDriverIsReproducibleOnBytes) {
  ExperimentConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.file_bytes = 2048;
  cfg.seed = 7;
  ExperimentResult a = RunRefreshExperiment(cfg);
  ExperimentResult b = RunRefreshExperiment(cfg);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  // Byte/message counts are exact and must match; CPU seconds are physical
  // measurements and may differ.
  EXPECT_EQ(a.bytes_rerand, b.bytes_rerand);
  EXPECT_EQ(a.bytes_recover, b.bytes_recover);
  EXPECT_EQ(a.msgs_rerand, b.msgs_rerand);
  EXPECT_EQ(a.msgs_recover, b.msgs_recover);
  EXPECT_EQ(a.sweeps_rerand, b.sweeps_rerand);
  EXPECT_EQ(a.sweeps_recover, b.sweeps_recover);
  EXPECT_EQ(a.file_blocks, b.file_blocks);
}

TEST(Determinism, RefreshRandomnessDiffersAcrossEpochs) {
  // Same cluster, two successive refreshes: the zero-sharings must differ
  // (the host RNG advances), otherwise refresh would be predictable.
  Cluster cluster(Config(3));
  Rng rng(11);
  cluster.Upload(1, rng.RandomBytes(600));
  auto s0 = cluster.host(2).store().Decode(1);
  cluster.RefreshAllFiles();
  auto s1 = cluster.host(2).store().Decode(1);
  cluster.RefreshAllFiles();
  auto s2 = cluster.host(2).store().Decode(1);
  EXPECT_NE(s0, s1);
  EXPECT_NE(s1, s2);
  // The deltas themselves differ (not a constant pad).
  ASSERT_EQ(s1.size(), s2.size());
  bool delta_differs = false;
  const auto& ctx = cluster.ctx();
  for (std::size_t i = 0; i < s1.size(); ++i) {
    auto d1 = ctx.Sub(s1[i], s0[i]);
    auto d2 = ctx.Sub(s2[i], s1[i]);
    if (!ctx.Eq(d1, d2)) delta_differs = true;
  }
  EXPECT_TRUE(delta_differs);
}

TEST(Determinism, PoolSizeNeverChangesSharesOrTranscripts) {
  // The tentpole contract (docs/parallelism.md): any pool size produces
  // bit-identical share stores, transcripts, and downloads. Run the same
  // seeded window at 1, 2, and 8 threads and compare everything exact.
  struct Observed {
    std::vector<std::vector<field::FpElem>> stores;  // per host, post-window
    bool ok = false;
    std::uint64_t bytes_rerand = 0, bytes_recover = 0;
    std::uint64_t msgs_rerand = 0, msgs_recover = 0;
    Bytes download;

    bool operator==(const Observed&) const = default;
  };
  auto run = [](std::size_t pool_threads) {
    SetGlobalPoolThreads(pool_threads);
    Cluster cluster(Config(42));
    Rng rng(99);
    Bytes file = rng.RandomBytes(1500);
    cluster.Upload(1, file);
    cluster.ResetMetrics();
    Observed o;
    o.ok = cluster.RunUpdateWindow().ok;
    HostMetrics m = cluster.TotalMetrics();
    o.bytes_rerand = m.rerandomize.bytes_sent;
    o.bytes_recover = m.recover.bytes_sent;
    o.msgs_rerand = m.rerandomize.msgs_sent;
    o.msgs_recover = m.recover.msgs_sent;
    for (std::size_t i = 0; i < 8; ++i) {
      o.stores.push_back(cluster.host(i).store().Decode(1));
    }
    o.download = cluster.Download(pisces::ReadSpec::Classic(1));
    return o;
  };
  Observed one = run(1);
  Observed two = run(2);
  Observed eight = run(8);
  SetGlobalPoolThreads(1);
  EXPECT_TRUE(one.ok);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(Determinism, SpanIdsAreBitIdenticalAcrossPoolSizes) {
  // The trace id contract (src/obs/trace.h): protocol span ids are a pure
  // function of protocol structure, so the multiset of ids from the same
  // seeded window is bit-identical at any pool size. Task-pool chunk spans
  // (category "pool") are excluded -- their COUNT follows the chunk split --
  // but each chunk id is itself order-free, so the remaining multiset must
  // match exactly.
  auto span_ids = [](std::size_t pool_threads) {
    SetGlobalPoolThreads(pool_threads);
    obs::ResetTrace();
    obs::EnableTracing("");
    Cluster cluster(Config(42));
    Rng rng(99);
    cluster.Upload(1, rng.RandomBytes(1500));
    EXPECT_TRUE(cluster.RunUpdateWindow().ok);
    obs::DisableTracing();
    std::vector<std::uint64_t> ids;
    for (const auto& e : test::ParseTraceEvents(obs::TraceToJson())) {
      if (e.ph == 'X' && e.cat != "pool") ids.push_back(e.id);
    }
    obs::ResetTrace();
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  auto one = span_ids(1);
  auto two = span_ids(2);
  auto eight = span_ids(8);
  SetGlobalPoolThreads(1);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(Determinism, CsvRowsMatchAcrossPoolSizesOnNonTimingColumns) {
  // The figure benches' CSV must be reproducible under --threads: every
  // column except the physical timing measurements (and the thread count
  // itself, which is recorded on purpose) is identical at any pool size.
  const std::set<std::string> timing_cols{
      "threads",        "b",
      "cpu_rerand_s",   "cpu_recover_s",
      "wall_rerand_s",  "wall_recover_s",
      "compute_rerand_s", "compute_recover_s",
      "refresh_time_s", "window_time_s",
      "cost_dedicated_usd", "cost_spot_usd",
      // Weight-cache hits/misses depend on process history (the cache stays
      // warm across experiments by design), not on the pool size; the dot
      // counters by contrast are invariant and stay under the check.
      "wc_hits", "wc_misses"};
  auto row_for = [](std::size_t threads) {
    ExperimentConfig cfg;
    cfg.params.n = 8;
    cfg.params.t = 1;
    cfg.params.l = 2;
    cfg.params.r = 2;
    cfg.params.field_bits = 256;
    cfg.file_bytes = 2048;
    cfg.seed = 7;
    cfg.threads = threads;
    Recorder rec = MakeExperimentRecorder();
    RecordExperiment(rec, "det", RunRefreshExperiment(cfg));
    return std::pair{rec.columns(), rec.raw_rows().at(0)};
  };
  auto [cols1, row1] = row_for(1);
  auto [cols2, row2] = row_for(2);
  auto [cols8, row8] = row_for(8);
  SetGlobalPoolThreads(1);
  ASSERT_EQ(cols1, cols2);
  ASSERT_EQ(cols1, cols8);
  ASSERT_EQ(row1.size(), cols1.size());
  for (std::size_t c = 0; c < cols1.size(); ++c) {
    if (timing_cols.count(cols1[c]) > 0) continue;
    EXPECT_EQ(row1[c], row2[c]) << "column " << cols1[c] << " at 2 threads";
    EXPECT_EQ(row1[c], row8[c]) << "column " << cols1[c] << " at 8 threads";
  }
}

TEST(Determinism, ShardRoutingIsPureAcrossPoolSizesAndRestarts) {
  // The serving-plane shard map must be a pure function of
  // (file_id, shard_count): same result from any instance, any task-pool
  // size, and -- pinned by the golden triples below -- any process lifetime
  // (a restarted gateway routes every file to the shard that stores it).
  struct Pin {
    std::uint64_t id;
    std::uint32_t at2, at5;
  };
  const Pin pins[] = {
      {0ull, 1, 0},    {1ull, 1, 0},          {2ull, 0, 0},
      {42ull, 1, 3},   {1000ull, 0, 1},       {3735928559ull, 1, 2},
  };
  for (std::size_t pool_threads : {1, 2, 8}) {
    SetGlobalPoolThreads(pool_threads);
    ShardRouter two(2);
    ShardRouter five(5);
    for (const Pin& p : pins) {
      EXPECT_EQ(two.ShardOf(p.id), p.at2) << "id " << p.id;
      EXPECT_EQ(five.ShardOf(p.id), p.at5) << "id " << p.id;
      EXPECT_EQ(ShardRouter::Route(p.id, 2), p.at2);
      EXPECT_EQ(ShardRouter::Route(p.id, 5), p.at5);
    }
  }
  SetGlobalPoolThreads(1);
}

TEST(Determinism, ServingBatchedRefreshBitIdenticalAcrossPoolSizesAndRestarts) {
  // The serving plane's batched refresh must be deterministic on BYTES: the
  // post-refresh share vectors of every host on every shard, and every
  // download, identical across task-pool sizes and across plane re-creation
  // (the restart analog: a fresh object graph from the same seed).
  auto run = [](std::size_t pool_threads) {
    SetGlobalPoolThreads(pool_threads);
    ServingConfig cfg;
    cfg.shards = 2;
    cfg.params.n = 8;
    cfg.params.t = 1;
    cfg.params.l = 2;
    cfg.params.r = 2;
    cfg.params.field_bits = 256;
    cfg.seed = 21;
    ServingPlane plane(cfg);
    const std::uint64_t session = plane.OpenSession();
    Rng rng(77);
    for (std::uint64_t id = 1; id <= 6; ++id) {
      EXPECT_EQ(plane.Submit(session, net::ServingOp::kUpload, id,
                             rng.RandomBytes(700))
                    .status,
                net::ServingStatus::kOk);
    }
    plane.Drain();
    plane.TakeCompletions();
    EXPECT_TRUE(plane.BatchRefresh());

    std::vector<std::vector<field::FpElem>> shares;
    for (std::uint32_t s = 0; s < plane.shard_count(); ++s) {
      for (std::uint32_t h = 0; h < cfg.params.n; ++h) {
        ShareStore& store = plane.shard(s).host(h).store();
        for (std::uint64_t id : store.FileIds()) {
          shares.push_back(store.Decode(id));
        }
      }
    }
    std::vector<Bytes> downloads;
    for (std::uint64_t id = 1; id <= 6; ++id) {
      plane.Submit(session, net::ServingOp::kDownload, id);
      plane.Drain();
      auto done = plane.TakeCompletions();
      EXPECT_EQ(done.size(), 1u);
      downloads.push_back(done[0].payload);
    }
    return std::pair{shares, downloads};
  };
  auto base = run(1);
  auto restarted = run(1);  // same pool: isolates the restart property
  auto pool2 = run(2);
  auto pool8 = run(8);
  SetGlobalPoolThreads(1);
  EXPECT_EQ(base, restarted);
  EXPECT_EQ(base, pool2);
  EXPECT_EQ(base, pool8);
}

TEST(Determinism, ServingPollBitIdenticalAcrossPoolSizes) {
  // Poll() executes whole shards concurrently but merges completions in
  // shard order, so the completion STREAM (everything but the physical
  // latency clocks), the stats ledger, and the live-file namespace must be
  // bit-identical across task-pool sizes -- including execution failures
  // and the deferred delete erasure.
  auto run = [](std::size_t pool_threads) {
    SetGlobalPoolThreads(pool_threads);
    ServingConfig cfg;
    cfg.shards = 3;
    cfg.params.n = 8;
    cfg.params.t = 1;
    cfg.params.l = 2;
    cfg.params.r = 2;
    cfg.params.field_bits = 256;
    cfg.seed = 33;
    cfg.max_inflight = 2;  // forces several polls per drain
    ServingPlane plane(cfg);
    const std::uint64_t session = plane.OpenSession();
    Rng rng(123);
    for (std::uint64_t id = 1; id <= 9; ++id) {
      plane.Submit(session, net::ServingOp::kUpload, id, rng.RandomBytes(500));
    }
    for (std::uint64_t id = 1; id <= 9; ++id) {
      plane.Submit(session, net::ServingOp::kDownload, id);
    }
    // Delete then download of the same id in one batch: the download is
    // admitted (the id is still live at offer time), ordered behind the
    // delete by the shard FIFO, and fails in execution -- covering the
    // kFailed completion path and the deferred namespace erasure.
    plane.Submit(session, net::ServingOp::kDelete, 4);
    plane.Submit(session, net::ServingOp::kDownload, 4);
    plane.Drain();
    plane.Submit(session, net::ServingOp::kDownload, 4);  // refused: deleted
    plane.Drain();

    // Project out the physical clocks; everything else must be exact.
    std::vector<std::tuple<std::uint64_t, std::uint64_t, net::ServingOp,
                           std::uint64_t, net::ServingStatus, Bytes>>
        stream;
    for (const ServingCompletion& c : plane.TakeCompletions()) {
      stream.emplace_back(c.session, c.request, c.op, c.file_id, c.status,
                          c.payload);
    }
    const ServingStats& st = plane.stats();
    std::vector<std::uint64_t> live;
    for (const auto& [id, shard] : plane.files()) {
      live.push_back(id);
      live.push_back(shard);
    }
    return std::tuple{stream, st.accepted, st.completed, st.failed,
                      st.refused, live};
  };
  auto base = run(1);
  auto pool2 = run(2);
  auto pool8 = run(8);
  SetGlobalPoolThreads(1);
  EXPECT_EQ(base, pool2);
  EXPECT_EQ(base, pool8);
}

}  // namespace
}  // namespace pisces
