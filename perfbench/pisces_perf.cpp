// Fixed-work measurement program of the PiSCES benchmark (perfbench/).
//
// Reads one generated input file (perfbench/gen.py), runs it through the
// public entry points -- a ServingPlane whose shards are Clusters -- and
// writes the raw measurements as one JSON object. perfbench/run.py turns
// them into metrics; this program only measures and checks outputs.
//
// A run sets up two planes (construct one and upload the preload): one
// serves the op list, the other runs the windows, so every window refreshes
// the same files. Then it runs `windows` rounds of: one more timed setup of
// a plane that is dropped, one proactive window (Cluster::RunUpdateWindow on
// every shard), and one segment of the op list as a closed loop with one
// request outstanding. Before each setup and window, and every `pick_ops`
// ops of the loop, it moves itself to the fastest vCPU (CpuPicker). Every
// download, including the final download of every live file of both planes,
// is compared byte for byte with the copy this program keeps of each live
// file.
//
// With --trace 1 the run measures the windows and the first half of the op
// list untraced, then one window and the second half with obs tracing on,
// and runs the layer probes at the end.
//
// Usage: pisces_perf --input FILE --out FILE [--trace 0|1]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/task_pool.h"
#include "crypto/ca.h"
#include "math/poly.h"
#include "net/message.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "pisces/pisces.h"

namespace pisces::perf {
namespace {

using net::ServingOp;
using net::ServingStatus;

#ifdef NDEBUG
constexpr const char* kBuildType = "release";
#else
constexpr const char* kBuildType = "debug";
#endif

// ---------------------------------------------------------------- input ---

struct Op {
  ServingOp op = ServingOp::kDownload;
  std::uint64_t file = 0;
  std::uint32_t size = 0;  // upload length; the bytes come from Payload
};

struct Input {
  std::map<std::string, std::string> header;
  std::vector<Op> preload;
  std::vector<Op> ops;

  std::uint64_t U(const std::string& key) const {
    auto it = header.find(key);
    Require(it != header.end(), "input: missing header key " + key);
    return std::stoull(it->second);
  }
};

template <class T>
T ReadLe(std::istream& in) {
  std::uint8_t b[sizeof(T)];
  in.read(reinterpret_cast<char*>(b), sizeof(T));
  Require(in.good(), "input: truncated record");
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= T{b[i]} << (8 * i);
  return v;
}

Op ReadOp(std::istream& in) {
  Op o;
  const std::uint8_t code = ReadLe<std::uint8_t>(in);
  Require(code <= 2, "input: bad op code");
  o.op = code == 0 ? ServingOp::kUpload
                   : code == 1 ? ServingOp::kDownload : ServingOp::kDelete;
  o.file = ReadLe<std::uint64_t>(in);
  o.size = ReadLe<std::uint32_t>(in);
  Require(o.size <= (64u << 20), "input: payload too large");
  return o;
}

// The bytes of an upload: a splitmix64 stream keyed by the input's payload
// seed and the file id. The benchmark's own generator, so that no library
// change moves the time it takes.
Bytes Payload(std::uint64_t seed, const Op& op) {
  Bytes b(op.size);
  std::uint64_t x = seed ^ (op.file * 0xD1B54A32D192ED03ull);
  for (std::size_t i = 0; i < b.size(); i += 8) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    for (std::size_t k = 0; k < 8 && i + k < b.size(); ++k) {
      b[i + k] = static_cast<std::uint8_t>(z >> (8 * k));
    }
  }
  return b;
}

Input ReadInput(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Require(in.good(), "cannot open input " + path);
  Input input;
  std::string line;
  std::getline(in, line);
  Require(line == "pisces-perf-input 1", "input: bad magic line");
  while (std::getline(in, line) && line != "end") {
    const auto sp = line.find(' ');
    Require(sp != std::string::npos, "input: bad header line");
    input.header[line.substr(0, sp)] = line.substr(sp + 1);
  }
  const std::uint64_t preload = input.U("preload");
  const std::uint64_t ops = input.U("ops");
  for (std::uint64_t i = 0; i < preload; ++i) input.preload.push_back(ReadOp(in));
  for (std::uint64_t i = 0; i < ops; ++i) input.ops.push_back(ReadOp(in));
  return input;
}

// --------------------------------------------------------------- output ---

// Minimal JSON object writer: keys in insertion order, numbers printed with
// all their digits.
class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(k, buf);
  }
  Json& Int(const std::string& k, std::uint64_t v) {
    return Raw(k, std::to_string(v));
  }
  Json& Str(const std::string& k, const std::string& v) {
    return Raw(k, Quote(v));
  }
  Json& Strs(const std::string& k, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ',';
      s += Quote(v[i]);
    }
    return Raw(k, s + "]");
  }
  Json& Bool(const std::string& k, bool v) { return Raw(k, v ? "true" : "false"); }
  Json& Ints(const std::string& k, const std::vector<std::uint64_t>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(v[i]);
    }
    return Raw(k, s + "]");
  }
  Json& Obj(const std::string& k, const Json& o) { return Raw(k, o.Text()); }
  Json& Raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += k;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  static std::string Quote(const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return q + "\"";
  }

  std::string body_;
};

// ---------------------------------------------------------------- clocks ---

std::uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return std::uint64_t(tv.tv_sec) * 1'000'000'000ull +
           std::uint64_t(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

// Resident memory of this process image, in KiB: the peak (VmHWM) and the
// current anonymous and file-backed parts. Not ru_maxrss: Linux keeps that
// across execve, so it starts at the peak of the process that launched
// this one.
struct Rss {
  std::uint64_t peak_kb = 0, anon_kb = 0, file_kb = 0;
};

Rss ReadRss() {
  std::map<std::string, std::uint64_t> kb;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    std::istringstream fields(line);
    std::string key;
    std::uint64_t v = 0;
    if (fields >> key >> v) kb[key] = v;
  }
  Require(kb.count("VmHWM:") && kb.count("RssAnon:") && kb.count("RssFile:"),
          "no VmHWM/RssAnon/RssFile in /proc/self/status");
  return {kb["VmHWM:"], kb["RssAnon:"], kb["RssFile:"]};
}

// The vCPUs of a shared cloud VM change speed within a second: their clock
// steps with the host's load (the probe below takes 93 to 140 us), and a
// busy neighbour on the same physical core slows throughput-bound code.
// Before each measured unit -- a chunk of the op loop, a window, a setup --
// the benchmark moves itself to the vCPU where a short multiply-accumulate
// probe runs fastest right now, and it probes that vCPU again when the unit
// ends. run.py scales each unit's times by the probe times around it. The
// probe is the benchmark's own code, so no change to the library moves it.
class CpuPicker {
 public:
  CpuPicker() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
    table_.resize(kTable);
    std::uint64_t x = 1;
    for (std::uint64_t& v : table_) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = x;
    }
  }

  // Pins the calling thread to the allowed CPU where the probe ran fastest;
  // returns that probe's ns.
  std::uint64_t Pick() {
    const int was = sched_getcpu();
    int best = was;
    std::uint64_t best_ns = was_ns_ = Here();
    for (int c : cpus_) {
      if (c == was) continue;
      Pin(c);
      const std::uint64_t ns = Here();
      if (ns < best_ns) best_ns = ns, best = c;
    }
    if (cpus_.size() > 1) Pin(best);
    picks_.push_back(best_ns);
    return best_ns;
  }

  // Probe ns on the current CPU, which stays.
  std::uint64_t Here() { return std::min(Probe(), Probe()); }
  // Probe ns, in the last pick, of the CPU the thread ran on before it.
  std::uint64_t was_ns() const { return was_ns_; }

  // Probe ns on the CPU each pick chose.
  const std::vector<std::uint64_t>& picks() const { return picks_; }
  std::size_t cpu_count() const { return cpus_.size(); }

 private:
  static constexpr std::size_t kTable = 2048;

  static void Pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

  // Four independent multiply-accumulate streams over an L1-resident table:
  // throughput-bound like the field kernels, about 0.1 ms.
  std::uint64_t Probe() {
    const std::uint64_t t0 = MonotonicNanos();
    unsigned __int128 a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (std::size_t i = 0; i < 40'000; ++i) {
      const std::size_t j = (i * 4) & (kTable - 1);
      a0 += static_cast<unsigned __int128>(table_[j]) * table_[(j + 5) & (kTable - 1)];
      a1 += static_cast<unsigned __int128>(table_[j + 1]) * table_[(j + 9) & (kTable - 1)];
      a2 += static_cast<unsigned __int128>(table_[j + 2]) * table_[(j + 13) & (kTable - 1)];
      a3 += static_cast<unsigned __int128>(table_[j + 3]) * table_[(j + 17) & (kTable - 1)];
    }
    sink_ = sink_ + static_cast<std::uint64_t>(a0 ^ a1 ^ a2 ^ a3);
    return MonotonicNanos() - t0;
  }

  std::vector<int> cpus_;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> picks_;
  std::uint64_t was_ns_ = 0;
  volatile std::uint64_t sink_ = 0;
};

// Registry counters the metrics read, as deltas between two snapshots.
using Counts = std::map<std::string, std::uint64_t>;

void AddDeltas(const obs::Snapshot& before, const obs::Snapshot& after,
               Counts& into) {
  const obs::Snapshot d = obs::Delta(before, after);
  std::vector<std::string> names = {
      "net.bytes_sent", "field.dot_calls", "field.dot_products",
      "math.wc_hits", "math.wc_misses", "math.pd_hits", "math.pd_misses",
      "math.tree_interps"};
  for (std::uint8_t t = 0; t <= net::kMaxMsgType; ++t) {
    names.push_back(std::string("net.bytes_sent.") +
                    net::MsgTypeName(static_cast<net::MsgType>(t)));
  }
  for (const std::string& name : names) into[name] += obs::Value(d, name);
}

Json CountsJson(const Counts& counts) {
  Json j;
  for (const auto& [name, v] : counts) j.Int(name, v);
  return j;
}

// ---------------------------------------------------------------- bench ---

// One plane, its session, and the benchmark's copy of every live file.
struct Fleet {
  std::unique_ptr<ServingPlane> plane;
  std::uint64_t session = 0;
  std::map<std::uint64_t, Bytes> copies;
};

class Bench {
 public:
  explicit Bench(const Input& in) : in_(in) {
    cfg_.shards = static_cast<std::uint32_t>(in.U("shards"));
    cfg_.params.n = in.U("n");
    cfg_.params.t = in.U("t");
    cfg_.params.l = in.U("l");
    cfg_.params.r = in.U("r");
    cfg_.params.field_bits = in.U("g");
    cfg_.seed = in.U("plane_seed");
    // Plaintext links, as in the figure benches: channel crypto is metered
    // separately from the protocol.
    cfg_.encrypt_links = false;
    payload_seed_ = in.U("payload_seed");
    pick_ops_ = in.U("pick_ops");
    Require(pick_ops_ >= 1, "input: pick_ops must be at least 1");
  }

  // Constructs a plane and uploads the first `files` files of the preload
  // (all of it by default). A setup of the whole preload records the time
  // taken and the probe times of the CPU before and after.
  Fleet Setup(std::size_t files = ~std::size_t{0}) {
    const std::uint64_t probe = picker_.Pick();
    const std::uint64_t t0 = MonotonicNanos();
    Fleet f;
    f.plane = std::make_unique<ServingPlane>(cfg_);
    f.session = f.plane->OpenSession();
    files = std::min(files, in_.preload.size());
    Loop preload;
    RunLoop(f, in_.preload, 0, files, preload, /*pick=*/false);
    Require(preload.ok == files, "preload: an upload failed");
    if (files == in_.preload.size()) {
      setups_.wall_ns.push_back(MonotonicNanos() - t0);
      setups_.probe_ns.push_back(probe);
      setups_.probe_after_ns.push_back(picker_.Here());
    }
    return f;
  }

  // Measurements of one window, kept as numbers: text whose length varies
  // from run to run would make the peak RSS vary with it.
  struct WindowRec {
    std::uint64_t wall_ns = 0, cpu_ns = 0, probe_ns = 0, probe_after_ns = 0,
                  reboots = 0;
    Counts counts;
  };

  // One proactive window on every shard.
  WindowRec Window(Fleet& f) {
    const std::uint64_t probe = picker_.Pick();
    const obs::Snapshot before = obs::TakeSnapshot();
    const std::uint64_t cpu0 = ProcessCpuNs(), t0 = MonotonicNanos();
    bool ok = true;
    std::uint64_t reboots = 0;
    for (std::uint32_t s = 0; s < f.plane->shard_count(); ++s) {
      const WindowReport rep = f.plane->shard(s).RunUpdateWindow();
      ok = ok && rep.ok;
      reboots += rep.reboots;
    }
    WindowRec w;
    w.wall_ns = MonotonicNanos() - t0;
    w.cpu_ns = ProcessCpuNs() - cpu0;
    w.probe_ns = probe;
    w.probe_after_ns = picker_.Here();
    w.reboots = reboots;
    AddDeltas(before, obs::TakeSnapshot(), w.counts);
    ++attempted_;
    if (ok && reboots > 0) {
      ++ok_;
    } else {
      errors_.push_back("window failed");
    }
    return w;
  }

  // One op of a closed loop; times on the loop's op clock.
  struct Rec {
    std::uint64_t type = 0, latency_ns = 0, queue_ns = 0, service_ns = 0,
                  done_ns = 0, done_cpu_ns = 0, submit_ns = 0, poll_ns = 0;
  };

  // Per-op records of a closed loop, in op order. The op clock (`clock_ns`,
  // `clock_cpu_ns`) runs only inside RunLoop and stops while the loop picks
  // a CPU, so a loop split into segments around other work reads as one
  // continuous loop.
  struct Loop {
    std::uint64_t ok = 0, clock_ns = 0, clock_cpu_ns = 0;
    std::vector<Rec> recs;
    std::vector<std::uint64_t> pick_at, pick_ns, pick_was_ns;
    Counts counts;

    // Allocates and touches room for n records, so that filling them does
    // not raise the peak RSS.
    void Reserve(std::size_t n) {
      recs.resize(n);
      recs.clear();
    }
  };

  // Closed loop over ops[begin, end) with one request outstanding: submit
  // the next op, Poll until it completes. With `pick`, the loop picks a CPU
  // every `pick_ops` ops.
  void RunLoop(Fleet& f, const std::vector<Op>& ops, std::size_t begin,
               std::size_t end, Loop& loop, bool pick) {
    const obs::Snapshot before = obs::TakeSnapshot();
    const std::uint64_t t0 = MonotonicNanos(), cpu0 = ProcessCpuNs();
    std::uint64_t paused = 0, paused_cpu = 0;
    auto clock = [&] { return loop.clock_ns + MonotonicNanos() - t0 - paused; };
    auto cpu_clock = [&] {
      return loop.clock_cpu_ns + ProcessCpuNs() - cpu0 - paused_cpu;
    };
    for (std::size_t k = begin; k < end; ++k) {
      const Op& op = ops[k];
      Bytes data = op.op == ServingOp::kUpload ? Payload(payload_seed_, op) : Bytes{};
      Rec r;
      r.type = static_cast<std::uint64_t>(op.op);
      const std::uint64_t start = clock();
      const ServingPlane::Admission adm =
          f.plane->Submit(f.session, op.op, op.file, data);
      r.submit_ns = clock() - start;
      ++attempted_;
      if (adm.status != ServingStatus::kOk) {
        errors_.push_back("submit refused: status " +
                          std::to_string(static_cast<int>(adm.status)));
        continue;
      }
      std::vector<ServingCompletion> done;
      for (int polls = 0; done.empty(); ++polls) {
        Require(polls < 1000, "an admitted op never completed");
        const std::uint64_t p0 = MonotonicNanos();
        f.plane->Poll();
        r.poll_ns += MonotonicNanos() - p0;
        done = f.plane->TakeCompletions();
      }
      r.done_ns = clock();
      r.done_cpu_ns = cpu_clock();
      Require(done.size() == 1 && done[0].session == f.session,
              "a completion for a request the loop did not submit");
      const ServingCompletion& c = done[0];
      if (Check(f, op, std::move(data), c)) {
        ++loop.ok;
        ++ok_;
      }
      r.latency_ns = r.done_ns - start;
      r.queue_ns = c.queue_ns;
      r.service_ns = c.latency_ns - std::min(c.latency_ns, c.queue_ns);
      loop.recs.push_back(r);
      if (pick && loop.recs.size() % pick_ops_ == 0) {
        const std::uint64_t w0 = MonotonicNanos(), c0 = ProcessCpuNs();
        PickFor(loop);
        paused += MonotonicNanos() - w0;
        paused_cpu += ProcessCpuNs() - c0;
      }
      // A traced op phase keeps only recent events: the per-op spans are
      // not read, and holding every one would grow the heap with the run.
      if (obs::TraceEnabled() && loop.recs.size() % 256 == 0) obs::ResetTrace();
    }
    loop.clock_ns = clock();
    loop.clock_cpu_ns = cpu_clock();
    AddDeltas(before, obs::TakeSnapshot(), loop.counts);
  }

  // Downloads every live file and compares it with the kept copy.
  void VerifyAll(Fleet& f) {
    std::vector<Op> reads;
    for (const auto& [id, data] : f.copies) reads.push_back({ServingOp::kDownload, id, 0});
    Loop loop;
    RunLoop(f, reads, 0, reads.size(), loop, /*pick=*/false);
    if (f.plane->files().size() != f.copies.size()) {
      errors_.push_back("plane and benchmark disagree on the live file count");
    }
  }

  Json Result(const Fleet& f) const {
    const ServingStats& st = f.plane->stats();
    std::uint64_t stored = 0, live = 0;
    for (std::uint32_t s = 0; s < f.plane->shard_count(); ++s) {
      for (std::size_t i = 0; i < f.plane->shard_params(s).n; ++i) {
        stored += f.plane->shard(s).host(i).store().SecondaryBytes();
      }
    }
    for (const auto& [id, data] : f.copies) live += data.size();
    std::vector<std::uint64_t> probes = picker_.picks();
    std::sort(probes.begin(), probes.end());
    Json j;
    j.Int("attempted", attempted_).Int("ok", ok_)
        .Int("cpus", picker_.cpu_count())
        .Num("probe_median_us",
             probes.empty() ? 0.0 : static_cast<double>(probes[probes.size() / 2]) / 1e3)
        .Bool("ledger_ok", st.accepted == st.completed + st.failed)
        .Int("live_files", f.copies.size()).Int("live_bytes", live)
        .Int("stored_bytes", stored).Int("peak_rss_kb", peak_rss_kb_)
        .Int("baseline_anon_kb", baseline_anon_kb_)
        .Strs("errors", std::vector<std::string>(
                            errors_.begin(),
                            errors_.begin() + std::min<std::size_t>(errors_.size(), 20)));
    return j;
  }

  const std::vector<Op>& ops() const { return in_.ops; }

  // The anonymous memory before the first plane exists: the program's
  // input and op records, which the reported peak leaves out.
  void NoteBaselineRss() { baseline_anon_kb_ = ReadRss().anon_kb; }
  // Peak RSS so far, less the file-backed pages (code; how many of them are
  // resident varies with the page cache) and the baseline. Taken before the
  // benchmark builds its output text.
  void NotePeakRss() {
    const Rss r = ReadRss();
    peak_rss_kb_ = r.peak_kb - r.file_kb - baseline_anon_kb_;
  }

  Json SetupsJson() const {
    Json j;
    j.Ints("wall_ns", setups_.wall_ns).Ints("probe_ns", setups_.probe_ns)
        .Ints("probe_after_ns", setups_.probe_after_ns);
    return j;
  }

  // Picks a CPU for the next ops of `loop` and records the pick: the op
  // count, the chosen CPU's probe and the previous CPU's.
  void PickFor(Loop& loop) {
    loop.pick_at.push_back(loop.recs.size());
    loop.pick_ns.push_back(picker_.Pick());
    loop.pick_was_ns.push_back(picker_.was_ns());
  }

 private:
  // Applies a completion to the kept copies; true when it is correct.
  bool Check(Fleet& f, const Op& op, Bytes data, const ServingCompletion& c) {
    if (c.status != ServingStatus::kOk) {
      errors_.push_back("op failed: status " +
                        std::to_string(static_cast<int>(c.status)));
      return false;
    }
    switch (op.op) {
      case ServingOp::kUpload:
        f.copies[op.file] = std::move(data);
        return true;
      case ServingOp::kDelete:
        if (f.copies.erase(op.file) == 1) return true;
        errors_.push_back("deleted an unknown file " + std::to_string(op.file));
        return false;
      default: {
        auto it = f.copies.find(op.file);
        if (it == f.copies.end() || it->second != c.payload) {
          errors_.push_back("download mismatch on file " + std::to_string(op.file));
          return false;
        }
        return true;
      }
    }
  }

  const Input& in_;
  ServingConfig cfg_;
  std::uint64_t payload_seed_ = 0;
  std::size_t pick_ops_ = 1;
  CpuPicker picker_;
  std::uint64_t baseline_anon_kb_ = 0, peak_rss_kb_ = 0;
  struct {
    std::vector<std::uint64_t> wall_ns, probe_ns, probe_after_ns;
  } setups_;
  std::uint64_t attempted_ = 0, ok_ = 0;
  std::vector<std::string> errors_;
};

Json WindowJson(const Bench::WindowRec& w) {
  Json j;
  j.Int("wall_ns", w.wall_ns).Int("cpu_ns", w.cpu_ns).Int("probe_ns", w.probe_ns)
      .Int("probe_after_ns", w.probe_after_ns).Int("reboots", w.reboots)
      .Obj("counters", CountsJson(w.counts));
  return j;
}

std::string WindowsJson(const std::vector<Bench::WindowRec>& windows) {
  std::string s = "[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i) s += ',';
    s += WindowJson(windows[i]).Text();
  }
  return s + "]";
}

Json LoopJson(const Bench::Loop& l) {
  auto column = [&](std::uint64_t Bench::Rec::*field) {
    std::vector<std::uint64_t> v;
    v.reserve(l.recs.size());
    for (const Bench::Rec& r : l.recs) v.push_back(r.*field);
    return v;
  };
  Json j;
  j.Ints("type", column(&Bench::Rec::type))
      .Ints("latency_ns", column(&Bench::Rec::latency_ns))
      .Ints("queue_ns", column(&Bench::Rec::queue_ns))
      .Ints("service_ns", column(&Bench::Rec::service_ns))
      .Ints("done_ns", column(&Bench::Rec::done_ns))
      .Ints("done_cpu_ns", column(&Bench::Rec::done_cpu_ns))
      .Ints("submit_ns", column(&Bench::Rec::submit_ns))
      .Ints("poll_ns", column(&Bench::Rec::poll_ns))
      .Ints("pick_at", l.pick_at).Ints("pick_ns", l.pick_ns)
      .Ints("pick_was_ns", l.pick_was_ns)
      .Int("wall_ns", l.clock_ns).Int("cpu_ns", l.clock_cpu_ns)
      .Obj("counters", CountsJson(l.counts));
  return j;
}

// Runs `windows` windows on `windowed` and the ops [begin, end) on `served`
// into `loop`, interleaved: window k is followed by the k-th of `windows`
// equal segments of whole chunks and, when `setups` is set, preceded by one
// more timed setup of a plane that is then dropped.
// Spreading each kind of work over the whole run keeps a slow phase of the
// machine from covering all of it; windows get their own fleet so that every
// window refreshes the same files.
Json MeasurePhases(Bench& bench, Fleet& windowed, Fleet& served,
                   Bench::Loop& loop, std::uint64_t windows, std::size_t begin,
                   std::size_t end, std::size_t chunk, bool setups) {
  const std::size_t chunks = (end - begin) / chunk;
  std::vector<Bench::WindowRec> ws;
  ws.reserve(windows);
  for (std::uint64_t w = 0; w < windows; ++w) {
    if (setups) bench.Setup();
    ws.push_back(bench.Window(windowed));
    const std::size_t a = begin + chunks * w / windows * chunk;
    const std::size_t b =
        w + 1 == windows ? end : begin + chunks * (w + 1) / windows * chunk;
    bench.PickFor(loop);
    bench.RunLoop(served, bench.ops(), a, b, loop, /*pick=*/true);
  }
  bench.NotePeakRss();
  Json j;
  j.Raw("windows", WindowsJson(ws)).Obj("loop", LoopJson(loop));
  return j;
}

// --------------------------------------------------------------- spans ---

// Value of "key": in one trace-event line, as text (quotes stripped).
std::string Field(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto at = line.find(pat);
  if (at == std::string::npos) return {};
  auto b = at + pat.size();
  if (line[b] == '"') ++b;
  auto e = b;
  while (e < line.size() && line[e] != '"' && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

// Per span name: count, total wall, and self wall/cpu (duration minus that
// of the span's children), from the events obs recorded. Task-pool chunks
// are not a layer: their time stays with the span that ran them.
Json SpanTimes(const std::string& trace_json) {
  struct Span {
    std::string name;
    std::uint64_t parent = 0, wall = 0, cpu = 0;
    std::int64_t self_wall = 0, self_cpu = 0;
  };
  std::vector<Span> spans;
  std::map<std::uint64_t, std::size_t> index;
  std::istringstream lines(trace_json);
  std::string line;
  while (std::getline(lines, line)) {
    if (Field(line, "ph") != "X") continue;
    Span sp;
    sp.name = Field(line, "name");
    sp.parent = std::stoull(Field(line, "parent"), nullptr, 16);
    sp.wall = std::stoull(Field(line, "wall_ns"));
    sp.cpu = std::stoull(Field(line, "cpu_ns"));
    sp.self_wall = static_cast<std::int64_t>(sp.wall);
    sp.self_cpu = static_cast<std::int64_t>(sp.cpu);
    index[std::stoull(Field(line, "id"), nullptr, 16)] = spans.size();
    spans.push_back(std::move(sp));
  }
  for (const Span& sp : spans) {
    if (sp.name == "pool.chunk") continue;
    auto p = index.find(sp.parent);
    while (p != index.end() && spans[p->second].name == "pool.chunk") {
      p = index.find(spans[p->second].parent);
    }
    if (p == index.end()) continue;
    spans[p->second].self_wall -= static_cast<std::int64_t>(sp.wall);
    spans[p->second].self_cpu -= static_cast<std::int64_t>(sp.cpu);
  }
  struct Agg {
    std::uint64_t count = 0, wall = 0;
    std::int64_t self_wall = 0, self_cpu = 0;
  };
  std::map<std::string, Agg> agg;
  for (const Span& sp : spans) {
    if (sp.name == "pool.chunk") continue;
    Agg& a = agg[sp.name];
    ++a.count;
    a.wall += sp.wall;
    a.self_wall += sp.self_wall;
    a.self_cpu += sp.self_cpu;
  }
  Json j;
  for (const auto& [name, a] : agg) {
    Json one;
    one.Int("count", a.count).Int("wall_ns", a.wall)
        .Num("self_wall_ns", static_cast<double>(a.self_wall))
        .Num("self_cpu_ns", static_cast<double>(a.self_cpu));
    j.Obj(name, one);
  }
  return j;
}

// ---------------------------------------------------------------- probes ---

volatile std::uint64_t g_sink = 0;

// Keeps a probe's result observable so the call is not optimized away.
void Keep(std::uint64_t v) { g_sink = g_sink + v; }

// Median nanoseconds per call of `f`, over batches of at least 2 ms each.
template <class F>
double NsPerCall(F&& f) {
  std::uint64_t iters = 1;
  for (;;) {
    const std::uint64_t t0 = MonotonicNanos();
    for (std::uint64_t i = 0; i < iters; ++i) f();
    if (MonotonicNanos() - t0 >= 2'000'000 || iters >= (1u << 24)) break;
    iters *= 2;
  }
  std::vector<double> per;
  for (int b = 0; b < 9; ++b) {
    const std::uint64_t t0 = MonotonicNanos();
    for (std::uint64_t i = 0; i < iters; ++i) f();
    per.push_back(static_cast<double>(MonotonicNanos() - t0) /
                  static_cast<double>(iters));
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

// Calls into each layer's public functions with inputs shaped like the
// workload's: its params, field and first preloaded file.
Json Probes(Fleet& fleet, const Input& in) {
  Cluster& cluster = fleet.plane->shard(0);
  const field::FpCtx& ctx = cluster.ctx();
  const pss::Params& params = fleet.plane->shard_params(0);
  const Bytes file = Payload(in.U("payload_seed"), in.preload.at(0));
  const double kb = static_cast<double>(file.size()) / 1024.0;
  Rng rng(in.U("plane_seed") ^ 0x9E3779B97F4A7C15ull);
  Json j;

  FileCodec codec(ctx, params.l);
  const auto [meta, elems] = codec.Encode(1, file);
  j.Num("codec.encode_us_per_kb", NsPerCall([&] {
          Keep(codec.Encode(1, file).second.size());
        }) / 1e3 / kb);
  j.Num("codec.decode_us_per_kb", NsPerCall([&] {
          Keep(codec.Decode(meta, elems).size());
        }) / 1e3 / kb);

  std::vector<std::vector<field::FpElem>> blocks;
  for (std::size_t i = 0; i < elems.size(); i += params.l) {
    blocks.emplace_back(elems.begin() + i, elems.begin() + i + params.l);
  }
  const double nblocks = static_cast<double>(blocks.size());
  pss::PackedShamir ps(cluster.ctx_ptr(), params);
  j.Num("pss.share_blocks_us_per_block", NsPerCall([&] {
          Rng r(7);
          Keep(ps.ShareBlocks(blocks, r).size());
        }) / 1e3 / nblocks);
  const auto shares = ps.ShareBlocks(blocks, rng);
  std::vector<std::uint32_t> parties;
  for (std::uint32_t i = 0; i <= params.degree(); ++i) parties.push_back(i);
  std::vector<std::vector<field::FpElem>> by_block;
  for (const auto& s : shares) {
    by_block.emplace_back(s.begin(), s.begin() + parties.size());
  }
  j.Num("pss.reconstruct_us_per_block", NsPerCall([&] {
          Keep(ps.ReconstructBlocks(parties, by_block).size());
        }) / 1e3 / nblocks);

  const math::Poly u = math::Poly::Random(ctx, rng, params.degree() - params.l);
  j.Num("math.constrained_from_us", NsPerCall([&] {
          Keep(math::Poly::ConstrainedFrom(ctx, u, params.degree(),
                                           ps.points().betas(), blocks[0])
                   .coeffs()
                   .size());
        }) / 1e3);

  const field::FpElem a = ctx.RandomNonZero(rng), b = ctx.RandomNonZero(rng);
  j.Num("field.mul_ns", NsPerCall([&] { Keep(ctx.Mul(a, b).v[0]); }));
  j.Num("field.inv_us", NsPerCall([&] { Keep(ctx.Inv(a).v[0]); }) / 1e3);
  std::vector<field::FpElem> xs, ys;
  for (std::size_t i = 0; i <= params.degree(); ++i) {
    xs.push_back(ctx.Random(rng));
    ys.push_back(ctx.Random(rng));
  }
  j.Num("field.dot_ns_per_product",
        NsPerCall([&] { Keep(ctx.Dot(xs, ys).v[0]); }) /
            static_cast<double>(xs.size()));
  const Bytes wire = field::SerializeElems(ctx, elems);
  const double wire_kb = static_cast<double>(wire.size()) / 1024.0;
  j.Num("field.serialize_us_per_kb", NsPerCall([&] {
          Keep(field::SerializeElems(ctx, elems).size());
        }) / 1e3 / wire_kb);
  j.Num("field.deserialize_us_per_kb", NsPerCall([&] {
          Keep(field::DeserializeElems(ctx, wire).size());
        }) / 1e3 / wire_kb);

  net::Message msg;
  msg.type = net::MsgType::kShareResponse;
  msg.file_id = 1;
  msg.payload = wire;
  const Bytes framed = msg.Serialize();
  const double framed_kb = static_cast<double>(framed.size()) / 1024.0;
  j.Num("net.message_serialize_us_per_kb", NsPerCall([&] {
          Keep(msg.Serialize().size());
        }) / 1e3 / framed_kb);
  j.Num("net.message_parse_us_per_kb", NsPerCall([&] {
          Keep(net::Message::Deserialize(framed).payload.size());
        }) / 1e3 / framed_kb);

  const crypto::SchnorrGroup& group = crypto::SchnorrGroup::Default();
  crypto::CertAuthority ca(group, rng);
  const auto [cert, sk] = ca.IssueHostKey(1, 1, rng);
  const Bytes ca_pk = ca.public_key();
  j.Num("crypto.verify_cert_us", NsPerCall([&] {
          Keep(crypto::CertAuthority::VerifyCert(group, ca_pk, cert));
        }) / 1e3);
  const Bytes signed_msg = cert.SignedPayload();
  j.Num("crypto.sign_us", NsPerCall([&] {
          Keep(crypto::SchnorrSign(group, sk, signed_msg, rng).s.size());
        }) / 1e3);
  return j;
}

// ------------------------------------------------------------------ main ---

int Main(int argc, char** argv) {
  std::string input_path, out_path;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--input") {
      input_path = v;
    } else if (k == "--out") {
      out_path = v;
    } else if (k == "--trace") {
      trace = v == "1";
    } else {
      std::fprintf(stderr, "pisces_perf: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  if (input_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "usage: pisces_perf --input FILE --out FILE [--trace 0|1]\n");
    return 2;
  }
  if (std::string(kBuildType) != "release") {
    std::fprintf(stderr, "pisces_perf: refusing to measure a build without NDEBUG\n");
    return 3;
  }
  SetGlobalPoolThreads(1);

  const Input in = ReadInput(input_path);
  Json context;
  context.Str("build_type", kBuildType)
      .Int("pool_threads", GlobalPoolThreads())
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("compiler", "gcc " __VERSION__);

  Bench bench(in);
  Bench::Loop loop;
  loop.Reserve(in.ops.size());
  bench.NoteBaselineRss();
  Fleet served = bench.Setup();
  Fleet windowed = bench.Setup(in.U("window_files"));
  const std::uint64_t windows = in.U("windows");
  const std::size_t chunk = in.U("chunk_ops");
  Json out;
  if (!trace) {
    out.Obj("run", MeasurePhases(bench, windowed, served, loop, windows, 0,
                                 in.ops.size(), chunk, true));
  } else {
    // The windows and the first half of the op list untraced, then one
    // window and the second half traced. The halves are whole rounds of
    // the same composition.
    const std::size_t half = in.U("trace_split");
    out.Obj("untraced", MeasurePhases(bench, windowed, served, loop, windows,
                                      0, half, chunk, false));
    // One traced window: a window records about a million events at the
    // paper-best point, so tracing more would only add memory.
    obs::EnableTracing("");
    obs::ResetTrace();
    const std::uint64_t cpu0 = ProcessCpuNs();
    const std::vector<Bench::WindowRec> window = {bench.Window(windowed)};
    const std::uint64_t cpu = ProcessCpuNs() - cpu0;
    const Json spans = SpanTimes(obs::TraceToJson());
    obs::ResetTrace();
    Bench::Loop traced_loop;
    bench.PickFor(traced_loop);
    bench.RunLoop(served, bench.ops(), half, in.ops.size(), traced_loop,
                  /*pick=*/true);
    obs::DisableTracing();
    obs::ResetTrace();
    Json traced;
    traced.Raw("windows", WindowsJson(window)).Int("windows_cpu_ns", cpu)
        .Obj("spans", spans).Obj("loop", LoopJson(traced_loop));
    out.Obj("traced", traced);
  }
  out.Obj("context", context).Obj("setups", bench.SetupsJson());
  bench.VerifyAll(windowed);
  bench.VerifyAll(served);
  if (trace) out.Obj("probes", Probes(served, in));
  out.Obj("result", bench.Result(served));

  std::ofstream f(out_path);
  f << out.Text() << "\n";
  return f.good() ? 0 : 1;
}

}  // namespace
}  // namespace pisces::perf

int main(int argc, char** argv) {
  try {
    return pisces::perf::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pisces_perf: %s\n", e.what());
    return 1;
  }
}
