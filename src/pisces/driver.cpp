#include "pisces/driver.h"

#include "common/task_pool.h"
#include "obs/registry.h"

namespace pisces {

ExperimentResult RunRefreshExperiment(const ExperimentConfig& cfg) {
  ClusterConfig cc;
  cc.params = cfg.params;
  if (cfg.threads > 0) {
    // --threads N: size the process-wide pool AND model N workers per host
    // (the paper's b). Pool size affects wall time only, never results.
    cc.params.b = cfg.threads;
    SetGlobalPoolThreads(cfg.threads);
  }
  cc.seed = cfg.seed;
  cc.encrypt_links = cfg.encrypt_links;
  cc.schedule = cfg.schedule;
  cc.net_model = cfg.net_model;
  cc.instance = cfg.instance;
  cc.build_machine_ecu = cfg.build_machine_ecu;
  Cluster cluster(cc);

  Rng rng(cfg.seed ^ 0xF11E);
  Bytes file = rng.RandomBytes(cfg.file_bytes);
  FileMeta meta = cluster.Upload(1, file);
  cluster.ResetMetrics();

  ExperimentResult r;
  r.params = cc.params;
  r.file_bytes = cfg.file_bytes;
  r.file_blocks = meta.num_blocks;
  r.threads = GlobalPoolThreads();

  // Substrate counters are process-wide; one registry delta around the
  // window attributes lazy-dot and weight-cache activity to this experiment.
  const obs::Snapshot snap0 = obs::TakeSnapshot();

  WindowReport report;
  if (cfg.run_recovery) {
    report = cluster.RunUpdateWindow();
  } else {
    report.ok = cluster.hypervisor().RefreshAllFiles(&report);
  }

  const obs::Snapshot delta = obs::Delta(snap0, obs::TakeSnapshot());
  r.substrate.kernel_width = cluster.ctx().kernel_width();
  r.substrate.dot_calls = obs::Value(delta, "field.dot_calls");
  r.substrate.dot_products = obs::Value(delta, "field.dot_products");
  r.substrate.dot_reductions = obs::Value(delta, "field.dot_reductions");
  r.substrate.wc_hits = obs::Value(delta, "math.wc_hits");
  r.substrate.wc_misses = obs::Value(delta, "math.wc_misses");

  // Byzantine ledger for the window: absent counters read as zero, so an
  // honest build reports all-zero columns without registering anything.
  r.byz_actions = obs::Value(delta, "byz.deals_tampered") +
                  obs::Value(delta, "byz.shares_tampered") +
                  obs::Value(delta, "byz.messages_withheld");
  r.byz_detections = obs::Value(delta, "byz.vss_check_failures") +
                     obs::Value(delta, "byz.recovery_inconsistent") +
                     obs::Value(delta, "byz.recovery_shares_corrected") +
                     obs::Value(delta, "byz.client_robust_fallbacks") +
                     obs::Value(delta, "byz.client_shares_corrected");
  r.byz_dealers_attributed = obs::Value(delta, "byz.dealers_attributed");
  r.byz_survivors_suspected = obs::Value(delta, "byz.survivors_suspected");

  // Deployment-plane counters: zero on SimNet, live when the window shares
  // the process with async-TCP endpoints (a WireFleet hypervisor).
  r.net_reconnects = obs::Value(delta, "net.reconnects");
  r.net_heartbeat_misses = obs::Value(delta, "net.heartbeat_misses");
  r.net_deadline_expiries = obs::Value(delta, "net.deadline_expiries");
  r.net_backpressure_stalls = obs::Value(delta, "net.backpressure_stalls");
  r.net_frames_dropped = obs::Value(delta, "net.frames_dropped");

  r.cpu_rerand_s = static_cast<double>(report.rerandomize_total.cpu_ns) * 1e-9;
  r.cpu_recover_s = static_cast<double>(report.recover_total.cpu_ns) * 1e-9;
  r.wall_rerand_s =
      static_cast<double>(report.rerandomize_total.wall_ns) * 1e-9;
  r.wall_recover_s = static_cast<double>(report.recover_total.wall_ns) * 1e-9;
  r.bytes_rerand = report.rerandomize_total.bytes_sent;
  r.bytes_recover = report.recover_total.bytes_sent;
  r.msgs_rerand = report.rerandomize_total.msgs_sent;
  r.msgs_recover = report.recover_total.msgs_sent;
  r.sweeps_rerand = report.sweeps_refresh;
  r.sweeps_recover = report.sweeps_recovery;

  const std::size_t n = cfg.params.n;
  const CostModel cost = cluster.cost_model();
  const auto& netm = cfg.net_model;

  const double cpu_rerand_per_host = r.cpu_rerand_s / static_cast<double>(n);
  const double cpu_recover_per_host = r.cpu_recover_s / static_cast<double>(n);
  r.compute_rerand_s = cost.machine.InstanceSeconds(
      cpu_rerand_per_host, static_cast<std::uint32_t>(cc.params.b));
  r.compute_recover_s = cost.machine.InstanceSeconds(
      cpu_recover_per_host, static_cast<std::uint32_t>(cc.params.b));
  r.send_rerand_s = netm.TransferTime(
      r.bytes_rerand / std::max<std::uint64_t>(1, n), r.sweeps_rerand);
  r.send_recover_s = netm.TransferTime(
      r.bytes_recover / std::max<std::uint64_t>(1, n), r.sweeps_recover);

  r.refresh_time_s = r.compute_rerand_s + r.send_rerand_s;
  r.window_time_s = r.refresh_time_s + r.compute_recover_s + r.send_recover_s;
  r.cost_dedicated = cost.WindowCost(n, r.window_time_s, /*spot=*/false);
  r.cost_spot = cost.WindowCost(n, r.window_time_s, /*spot=*/true);

  // End-to-end validation: the refreshed, recovered file must still download
  // bit-exactly.
  Bytes back = cluster.Download(ReadSpec::Classic(1));
  r.ok = report.ok && back == file;

  r.deals_excluded = report.deals_excluded;
  r.retries = report.refresh_retries + report.recovery_retries +
              cluster.client().retries();
  r.timeouts_fired = report.timeouts_fired;
  r.msgs_dropped = cluster.net().TotalDropped();
  return r;
}

Recorder MakeExperimentRecorder() {
  return Recorder({"series", "n", "t", "l", "r", "b", "g", "threads",
                   "file_bytes", "blocks", "ok", "cpu_rerand_s",
                   "cpu_recover_s", "wall_rerand_s", "wall_recover_s",
                   "bytes_rerand", "bytes_recover", "compute_rerand_s",
                   "compute_recover_s", "send_rerand_s", "send_recover_s",
                   "refresh_time_s", "window_time_s", "cost_dedicated_usd",
                   "cost_spot_usd", "deals_excluded", "retries",
                   "timeouts_fired", "msgs_dropped", "kernel_width",
                   "dot_calls", "dot_products", "dot_reductions", "wc_hits",
                   "wc_misses", "byz_actions", "byz_detections",
                   "byz_dealers_attributed", "byz_survivors_suspected",
                   "net_reconnects", "net_heartbeat_misses",
                   "net_deadline_expiries", "net_backpressure_stalls",
                   "net_frames_dropped"});
}

void RecordExperiment(Recorder& rec, const std::string& series,
                      const ExperimentResult& r) {
  rec.NewRow()
      .Set("series", series)
      .Set("n", r.params.n)
      .Set("t", r.params.t)
      .Set("l", r.params.l)
      .Set("r", r.params.r)
      .Set("b", r.params.b)
      .Set("g", r.params.field_bits)
      .Set("threads", r.threads)
      .Set("file_bytes", r.file_bytes)
      .Set("blocks", r.file_blocks)
      .Set("ok", r.ok)
      .Set("cpu_rerand_s", r.cpu_rerand_s)
      .Set("cpu_recover_s", r.cpu_recover_s)
      .Set("wall_rerand_s", r.wall_rerand_s)
      .Set("wall_recover_s", r.wall_recover_s)
      .Set("bytes_rerand", r.bytes_rerand)
      .Set("bytes_recover", r.bytes_recover)
      .Set("compute_rerand_s", r.compute_rerand_s)
      .Set("compute_recover_s", r.compute_recover_s)
      .Set("send_rerand_s", r.send_rerand_s)
      .Set("send_recover_s", r.send_recover_s)
      .Set("refresh_time_s", r.refresh_time_s)
      .Set("window_time_s", r.window_time_s)
      .Set("cost_dedicated_usd", r.cost_dedicated)
      .Set("cost_spot_usd", r.cost_spot)
      .Set("deals_excluded", r.deals_excluded)
      .Set("retries", r.retries)
      .Set("timeouts_fired", r.timeouts_fired)
      .Set("msgs_dropped", r.msgs_dropped)
      .Set("kernel_width", r.substrate.kernel_width)
      .Set("dot_calls", r.substrate.dot_calls)
      .Set("dot_products", r.substrate.dot_products)
      .Set("dot_reductions", r.substrate.dot_reductions)
      .Set("wc_hits", r.substrate.wc_hits)
      .Set("wc_misses", r.substrate.wc_misses)
      .Set("byz_actions", r.byz_actions)
      .Set("byz_detections", r.byz_detections)
      .Set("byz_dealers_attributed", r.byz_dealers_attributed)
      .Set("byz_survivors_suspected", r.byz_survivors_suspected)
      .Set("net_reconnects", r.net_reconnects)
      .Set("net_heartbeat_misses", r.net_heartbeat_misses)
      .Set("net_deadline_expiries", r.net_deadline_expiries)
      .Set("net_backpressure_stalls", r.net_backpressure_stalls)
      .Set("net_frames_dropped", r.net_frames_dropped)
      .Commit();
}

}  // namespace pisces
