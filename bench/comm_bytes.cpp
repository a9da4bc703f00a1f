// Bytes-on-wire bench for the communication-efficient read and repair
// codepoints (BENCH_comm.json).
//
// Unlike the timing benches, the metric here is deterministic: the per-
// message-type obs counters (net.bytes_sent.<type>) meter exactly what each
// protocol variant ships. One run uploads a file to an n = 16 fleet and
// compares
//   * download: classic full-share oracle (ReadSpec::Classic) vs the
//     staircase striped read (ReadSpec::Staircase, fallback disabled so a
//     silent oracle retry can never flatter the numbers) -- ShareResponse
//     payload bytes plus the ReconstructRequest descriptor overhead;
//   * repair: full masked-vector recovery vs the reduced stripe
//     (ClusterConfig::repair.path = kStaircase) -- MaskedShare bytes for one
//     RebootAndRecover batch.
// Both staircase downloads are byte-compared against the upload, and the
// staircase run asserts zero comm.staircase_fallbacks, so the reported
// ratios are only ever produced by the cheap path actually completing.
//
// The CostModel planner's prediction for the same point is printed next to
// the measurement (PlanRead: share-byte ratio and egress dollars/read), so
// the deployment planner's hook is validated against live counters.
//
// Flags (after the shared --threads/--seed/--out/--trace of bench_common.h):
//   --file-bytes B   upload payload size (default 16384)
//   --reps R         repetitions; min bytes across reps reported (default 3)
//   --contacts D     staircase contact budget d, 0 = all n (default 0)
//   --json PATH      summary JSON (default BENCH_comm.json)
// Environment fallback: PISCES_COMM_JSON.
//
// Gates (exit 1 on failure): staircase/classic ShareResponse ratio <= 0.70
// at d = n (theory: need/n = 7/16 plus framing), reduced/full MaskedShare
// ratio <= 0.85 (theory: (degree+3)/survivors = 9/15 plus framing),
// downloads bit-identical, zero staircase fallbacks.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/message.h"
#include "obs/registry.h"

namespace pisces {
namespace {

struct CommOptions {
  std::size_t file_bytes = 16384;
  std::size_t reps = 3;
  std::uint32_t contacts = 0;  // 0 = all n
  std::string json = "BENCH_comm.json";
  std::uint64_t seed = 23;
};

CommOptions ParseComm(const bench::Options& shared) {
  CommOptions o;
  if (shared.seed != 0) o.seed = shared.seed;
  if (const char* e = std::getenv("PISCES_COMM_JSON")) o.json = e;
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
    if (a == "--file-bytes") {
      o.file_bytes = std::stoul(next());
    } else if (a == "--reps") {
      o.reps = std::stoul(next());
    } else if (a == "--contacts") {
      o.contacts = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (a == "--json") {
      o.json = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      std::exit(2);
    }
  }
  return o;
}

Bytes MakeFile(std::size_t size) {
  Bytes file(size);
  for (std::size_t i = 0; i < size; ++i) {
    file[i] = static_cast<std::uint8_t>((i * 131 + 17) & 0xFF);
  }
  return file;
}

std::uint64_t Sent(const obs::Snapshot& delta, net::MsgType type) {
  return obs::Value(delta,
                    std::string("net.bytes_sent.") + net::MsgTypeName(type));
}

// Meters one action: returns the counter delta it produced.
template <typename Fn>
obs::Snapshot Metered(Fn&& fn) {
  const obs::Snapshot before = obs::TakeSnapshot();
  fn();
  return obs::Delta(before, obs::TakeSnapshot());
}

int Main(int argc, char** argv) {
  bench::Options shared = bench::Parse(argc, argv);
  CommOptions opt = ParseComm(shared);
  bench::Banner("communication bytes",
                "Bytes on the wire per download / repair: classic full-share "
                "oracle vs staircase striped read and reduced recovery");

  ClusterConfig cfg;
  // n = 16: t = 4, l = 2, degree = 6, need = 7 -- the widest stripe cuts a
  // read's share payload to need/n = 7/16 and 15 survivors ship budget =
  // degree+3 = 9 points per block instead of their full masked vectors.
  cfg.params = pss::Params::Natural(16, 256);
  cfg.seed = opt.seed;
  // Figure-bench convention (bench_common.h): channel crypto is metered
  // separately, so the byte counters price the protocol, not the sealing.
  cfg.encrypt_links = false;

  const std::size_t n = cfg.params.n;
  const std::size_t need = cfg.params.degree() + 1;
  const Bytes file = MakeFile(opt.file_bytes);

  Cluster cluster(cfg);
  cluster.Upload(1, file);

  std::uint64_t classic_resp = UINT64_MAX, classic_req = UINT64_MAX;
  std::uint64_t striped_resp = UINT64_MAX, striped_req = UINT64_MAX;
  std::uint64_t fallbacks = 0;
  bool identical = true;

  for (std::size_t rep = 0; rep < opt.reps; ++rep) {
    Bytes got_classic, got_striped;
    const obs::Snapshot d1 =
        Metered([&] { got_classic = cluster.Download(ReadSpec::Classic(1)); });
    classic_resp = std::min(classic_resp, Sent(d1, net::MsgType::kShareResponse));
    classic_req =
        std::min(classic_req, Sent(d1, net::MsgType::kReconstructRequest));

    // Fallback disabled: if the striped path cannot complete the bench must
    // fail loudly rather than silently re-measure the oracle.
    const obs::Snapshot d2 = Metered([&] {
      got_striped = cluster.Download(
          ReadSpec::Staircase(1, opt.contacts, ReadFallback::kFail));
    });
    striped_resp = std::min(striped_resp, Sent(d2, net::MsgType::kShareResponse));
    striped_req =
        std::min(striped_req, Sent(d2, net::MsgType::kReconstructRequest));
    fallbacks += obs::Value(d2, "comm.staircase_fallbacks");
    identical = identical && got_classic == file && got_striped == file;
  }

  // Repair: twin fleets, same seed, full vs reduced masked-share policy.
  const std::vector<std::uint32_t> batch{0};
  std::uint64_t full_masked = UINT64_MAX, reduced_masked = UINT64_MAX;
  bool healed = true;
  {
    Cluster full(cfg);
    full.Upload(1, file);
    ClusterConfig red_cfg = cfg;
    red_cfg.repair.path = ReadPath::kStaircase;
    Cluster reduced(red_cfg);
    reduced.Upload(1, file);
    for (std::size_t rep = 0; rep < opt.reps; ++rep) {
      bool ok_full = false, ok_reduced = false;
      const obs::Snapshot d1 =
          Metered([&] { ok_full = full.hypervisor().RebootAndRecover(batch); });
      full_masked = std::min(full_masked, Sent(d1, net::MsgType::kMaskedShare));
      const obs::Snapshot d2 = Metered(
          [&] { ok_reduced = reduced.hypervisor().RebootAndRecover(batch); });
      reduced_masked =
          std::min(reduced_masked, Sent(d2, net::MsgType::kMaskedShare));
      healed = healed && ok_full && ok_reduced;
    }
    healed = healed && full.Download(ReadSpec::Classic(1)) == file &&
             reduced.Download(ReadSpec::Classic(1)) == file;
  }

  const double share_ratio = static_cast<double>(striped_resp) /
                             static_cast<double>(classic_resp);
  const double total_ratio =
      static_cast<double>(striped_resp + striped_req) /
      static_cast<double>(classic_resp + classic_req);
  const double masked_ratio = static_cast<double>(reduced_masked) /
                              static_cast<double>(full_masked);

  // Deployment-planner hook: feed the planner the measured per-host classic
  // response bytes and print its prediction next to the live counters.
  const CostModel cost = cluster.cost_model();
  const double per_host = static_cast<double>(classic_resp) /
                          static_cast<double>(n);
  const ReadPlanChoice plan = cost.PlanRead(n, need, per_host);
  const double predicted_ratio =
      plan.share_bytes / (static_cast<double>(n) * per_host);

  Recorder rec({"metric", "value"});
  auto put = [&](const char* metric, auto value) {
    rec.NewRow().Set("metric", metric).Set("value", value).Commit();
  };
  put("n", n);
  put("need", need);
  put("file_bytes", opt.file_bytes);
  put("classic_share_response_bytes", classic_resp);
  put("staircase_share_response_bytes", striped_resp);
  put("download_share_ratio", share_ratio);
  put("download_total_ratio", total_ratio);
  put("full_masked_share_bytes", full_masked);
  put("reduced_masked_share_bytes", reduced_masked);
  put("repair_masked_ratio", masked_ratio);
  put("staircase_fallbacks", fallbacks);
  put("planner_predicted_share_ratio", predicted_ratio);
  put("planner_dollars_per_read", plan.dollars_per_read);
  bench::Finish(rec, shared);

  const bool download_gate = share_ratio <= 0.70;
  const bool repair_gate = masked_ratio <= 0.85;
  const bool honest = identical && healed && fallbacks == 0;
  const bool ok = download_gate && repair_gate && honest;

#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif

  FILE* f = std::fopen(opt.json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"comm_bytes\",\n"
      "  \"context\": {\"pisces_build_type\": \"%s\"},\n"
      "  \"n\": %zu,\n"
      "  \"need\": %zu,\n"
      "  \"contacts\": %u,\n"
      "  \"file_bytes\": %zu,\n"
      "  \"reps\": %zu,\n"
      "  \"download\": {\n"
      "    \"classic_share_response_bytes\": %" PRIu64 ",\n"
      "    \"staircase_share_response_bytes\": %" PRIu64 ",\n"
      "    \"classic_request_bytes\": %" PRIu64 ",\n"
      "    \"staircase_request_bytes\": %" PRIu64 ",\n"
      "    \"share_ratio\": %.4f,\n"
      "    \"total_ratio\": %.4f\n"
      "  },\n"
      "  \"repair\": {\n"
      "    \"full_masked_share_bytes\": %" PRIu64 ",\n"
      "    \"reduced_masked_share_bytes\": %" PRIu64 ",\n"
      "    \"masked_ratio\": %.4f\n"
      "  },\n"
      "  \"planner\": {\n"
      "    \"staircase\": %s,\n"
      "    \"contacts\": %zu,\n"
      "    \"predicted_share_ratio\": %.4f,\n"
      "    \"dollars_per_read\": %.8f\n"
      "  },\n"
      "  \"acceptance\": {\n"
      "    \"download_share_ratio_le_0.70\": %s,\n"
      "    \"repair_masked_ratio_le_0.85\": %s,\n"
      "    \"bit_identical_and_healed\": %s,\n"
      "    \"zero_staircase_fallbacks\": %s\n"
      "  },\n"
      "  \"ok\": %s\n"
      "}\n",
      build_type, n, need, opt.contacts, opt.file_bytes, opt.reps,
      classic_resp, striped_resp, classic_req, striped_req, share_ratio,
      total_ratio, full_masked, reduced_masked, masked_ratio,
      plan.staircase ? "true" : "false", plan.contacts, predicted_ratio,
      plan.dollars_per_read, download_gate ? "true" : "false",
      repair_gate ? "true" : "false", (identical && healed) ? "true" : "false",
      fallbacks == 0 ? "true" : "false", ok ? "true" : "false");
  std::fclose(f);
  std::printf("\njson written to %s\n", opt.json.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pisces

int main(int argc, char** argv) { return pisces::Main(argc, argv); }
