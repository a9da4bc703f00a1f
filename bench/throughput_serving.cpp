// Open-loop serving-plane throughput bench (BENCH_serving.json).
//
// Unlike the figure benches (closed sweeps over protocol parameters), this
// drives the SHARDED SERVING PLANE the way a load generator drives a storage
// service: arrivals are scheduled on a wall-clock rate that does not care
// whether earlier requests finished (open loop, so queueing delay is measured
// honestly instead of being hidden by generator back-off), sessions multiplex
// many requests over one plane, and admission control is allowed to shed.
//
// Reported per run: offered/accepted/completed/rejected ops, achieved ops/sec,
// and p50/p99 completion latency measured from the request's SCHEDULED arrival
// time (coordinated-omission-safe: a stalled plane charges every queued
// arrival for the stall). Preload uploads are accounted separately
// (preload_accepted); every other counter is a measured-window delta, and the
// gate asserts accepted <= offered_ops.
//
// Flags (after the shared --threads/--seed/--out/--trace of bench_common.h):
//   --shards N        shard count (default 2; the acceptance gate needs >= 2)
//   --rate R          offered load, requests/second (default 300)
//   --duration-ms D   open-loop phase length (default 2000)
//   --preload F       files uploaded before the clock starts (default 16)
//   --file-bytes B    upload payload size (default 2048)
//   --json PATH       write the summary JSON (default BENCH_serving.json)
// Environment fallbacks: PISCES_SERVING_SHARDS, _RATE, _DURATION_MS, _JSON.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/clock.h"

namespace pisces {
namespace {

using net::ServingOp;
using net::ServingStatus;

struct LoadOptions {
  std::uint32_t shards = 2;
  double rate = 300.0;         // requests per second
  std::uint64_t duration_ms = 2000;
  std::size_t preload = 16;
  std::size_t file_bytes = 2048;
  std::string json = "BENCH_serving.json";
  std::uint64_t seed = 0xC10D;
};

LoadOptions ParseLoad(const bench::Options& shared) {
  LoadOptions o;
  if (shared.seed != 0) o.seed = shared.seed;
  auto env_u64 = [](const char* name, std::uint64_t cur) {
    const char* e = std::getenv(name);
    return e != nullptr ? std::strtoull(e, nullptr, 10) : cur;
  };
  o.shards = static_cast<std::uint32_t>(
      env_u64("PISCES_SERVING_SHARDS", o.shards));
  o.rate = static_cast<double>(env_u64("PISCES_SERVING_RATE",
                                       static_cast<std::uint64_t>(o.rate)));
  o.duration_ms = env_u64("PISCES_SERVING_DURATION_MS", o.duration_ms);
  if (const char* e = std::getenv("PISCES_SERVING_JSON")) o.json = e;

  const auto& rest = shared.rest;
  for (std::size_t i = 1; i < rest.size(); ++i) {
    const std::string a = rest[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= rest.size()) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return rest[++i];
    };
    if (a == "--shards") {
      o.shards = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "--rate") {
      o.rate = std::stod(next());
    } else if (a == "--duration-ms") {
      o.duration_ms = std::stoull(next());
    } else if (a == "--preload") {
      o.preload = std::stoul(next());
    } else if (a == "--file-bytes") {
      o.file_bytes = std::stoul(next());
    } else if (a == "--json") {
      o.json = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      std::exit(2);
    }
  }
  return o;
}

double PercentileMs(std::vector<std::uint64_t> sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_ns.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[idx]) / 1e6;
}

int Main(int argc, char** argv) {
  bench::Options shared = bench::Parse(argc, argv);
  LoadOptions opt = ParseLoad(shared);
  bench::Banner("serving throughput",
                "Open-loop load vs the sharded serving plane: ops/sec and "
                "p50/p99 completion latency under admission control");

  ServingConfig cfg;
  cfg.shards = opt.shards;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = opt.seed;
  // Figure-bench convention: channel crypto is metered separately.
  cfg.encrypt_links = false;
  cfg.admission_capacity = 64;
  cfg.max_inflight = 8;
  ServingPlane plane(cfg);
  Rng rng(opt.seed ^ 0x10AD);

  // Eight multiplexed sessions round-robin the offered load.
  std::vector<std::uint64_t> sessions;
  for (int k = 0; k < 8; ++k) sessions.push_back(plane.OpenSession());

  // Mirror of each session's accepted-request ordinal (Submit() assigns
  // last_request + 1; refusals and rejections do not advance it), so a
  // completion can be matched back to its scheduled arrival time.
  std::map<std::uint64_t, std::uint64_t> next_req;

  std::map<std::uint64_t, Bytes> content;
  std::vector<std::uint64_t> live;
  std::uint64_t next_file = 1;
  for (std::size_t k = 0; k < opt.preload; ++k) {
    const std::uint64_t id = next_file++;
    const std::uint64_t session = sessions[k % sessions.size()];
    Bytes data = rng.RandomBytes(opt.file_bytes);
    plane.Submit(session, ServingOp::kUpload, id, data);
    ++next_req[session];
    content[id] = std::move(data);
    live.push_back(id);
    plane.Drain();
  }
  plane.TakeCompletions();
  // Preload flows through the same stats ledger as measured load; snapshot
  // here so the summary reports measured-WINDOW deltas. Without this the run
  // double-counted (accepted > offered_ops: preload uploads were admitted
  // but never offered on the open-loop clock).
  const ServingStats preload_stats = plane.stats();

  // (session, request) -> scheduled arrival, for open-loop latency.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> scheduled;
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t offered = 0, completed_ops = 0, failed_ops = 0;

  const std::uint64_t start_ns = MonotonicNanos();
  const std::uint64_t end_ns = start_ns + opt.duration_ms * 1'000'000ull;
  const double gap_ns = 1e9 / opt.rate;
  double next_arrival = static_cast<double>(start_ns);
  std::size_t rr = 0;

  auto absorb = [&]() {
    for (ServingCompletion& c : plane.TakeCompletions()) {
      ++completed_ops;
      if (c.status != ServingStatus::kOk) ++failed_ops;
      auto it = scheduled.find({c.session, c.request});
      if (it == scheduled.end()) continue;
      latencies_ns.push_back(MonotonicNanos() - it->second);
      scheduled.erase(it);
    }
  };

  while (true) {
    const std::uint64_t now = MonotonicNanos();
    if (now >= end_ns) break;
    // Submit every arrival that is due, whether or not the plane kept up.
    while (static_cast<double>(now) >= next_arrival) {
      const std::uint64_t due =
          static_cast<std::uint64_t>(next_arrival);
      next_arrival += gap_ns;
      ++offered;
      const std::uint64_t session = sessions[rr++ % sessions.size()];
      const std::uint64_t dice = rng.Below(100);
      ServingPlane::Admission adm;
      std::uint64_t req_file = 0;
      if (dice < 20 || live.empty()) {
        const std::uint64_t id = next_file++;
        Bytes data = rng.RandomBytes(opt.file_bytes);
        adm = plane.Submit(session, ServingOp::kUpload, id, data);
        if (adm.status == ServingStatus::kOk) {
          content[id] = std::move(data);
          live.push_back(id);
          req_file = id;
        }
      } else if (dice < 95) {
        req_file = live[rng.Below(live.size())];
        adm = plane.Submit(session, ServingOp::kDownload, req_file);
      } else {
        const std::size_t pick = rng.Below(live.size());
        req_file = live[pick];
        adm = plane.Submit(session, ServingOp::kDelete, req_file);
        if (adm.status == ServingStatus::kOk) {
          live[pick] = live.back();
          live.pop_back();
        }
      }
      if (adm.status == ServingStatus::kOk) {
        scheduled[{session, ++next_req[session]}] = due;
      }
    }
    plane.Poll();
    absorb();
  }
  plane.Drain();
  absorb();
  const std::uint64_t elapsed_ns = MonotonicNanos() - start_ns;

  const ServingStats& st = plane.stats();
  // Measured-window deltas: only work offered on the open-loop clock.
  const std::uint64_t win_accepted = st.accepted - preload_stats.accepted;
  const std::uint64_t win_completed = st.completed - preload_stats.completed;
  const std::uint64_t win_rejected = st.rejected - preload_stats.rejected;
  const std::uint64_t win_refused = st.refused - preload_stats.refused;
  const std::uint64_t win_failed = st.failed - preload_stats.failed;
  const double secs = static_cast<double>(elapsed_ns) / 1e9;
  const double ops_per_sec = static_cast<double>(completed_ops) / secs;
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const double p50 = PercentileMs(latencies_ns, 0.50);
  const double p99 = PercentileMs(latencies_ns, 0.99);

  Recorder rec({"metric", "value"});
  auto put = [&](const char* metric, auto value) {
    rec.NewRow().Set("metric", metric).Set("value", value).Commit();
  };
  put("shards", cfg.shards);
  put("offered_rate_per_sec", opt.rate);
  put("preload_files", opt.preload);
  put("offered_ops", offered);
  put("accepted", win_accepted);
  put("completed", win_completed);
  put("rejected", win_rejected);
  put("refused", win_refused);
  put("queue_peak", st.queue_peak);
  put("ops_per_sec", ops_per_sec);
  put("p50_ms", p50);
  put("p99_ms", p99);
  bench::Finish(rec, shared);

  // Accounting sanity is part of the gate: the measured window can never
  // admit more than the open loop offered.
  const bool ok = failed_ops == 0 && win_completed == win_accepted &&
                  win_accepted <= offered && completed_ops > 0 &&
                  cfg.shards >= 2;

  FILE* f = std::fopen(opt.json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"throughput_serving\",\n"
               "  \"shards\": %u,\n"
               "  \"offered_rate_per_sec\": %.1f,\n"
               "  \"duration_ms\": %" PRIu64 ",\n"
               "  \"file_bytes\": %zu,\n"
               "  \"preload_files\": %zu,\n"
               "  \"preload_accepted\": %" PRIu64 ",\n"
               "  \"offered_ops\": %" PRIu64 ",\n"
               "  \"accepted\": %" PRIu64 ",\n"
               "  \"completed\": %" PRIu64 ",\n"
               "  \"rejected\": %" PRIu64 ",\n"
               "  \"refused\": %" PRIu64 ",\n"
               "  \"failed\": %" PRIu64 ",\n"
               "  \"queue_peak\": %" PRIu64 ",\n"
               "  \"ops_per_sec\": %.1f,\n"
               "  \"p50_ms\": %.3f,\n"
               "  \"p99_ms\": %.3f,\n"
               "  \"live_files\": %zu,\n"
               "  \"ok\": %s\n"
               "}\n",
               cfg.shards, opt.rate, opt.duration_ms, opt.file_bytes,
               opt.preload, preload_stats.accepted, offered,
               win_accepted, win_completed, win_rejected, win_refused,
               win_failed, st.queue_peak,
               ops_per_sec, p50, p99, plane.files().size(),
               ok ? "true" : "false");
  std::fclose(f);
  std::printf("\njson written to %s\n", opt.json.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pisces

int main(int argc, char** argv) { return pisces::Main(argc, argv); }
