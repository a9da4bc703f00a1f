#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/error.h"

namespace obs {
namespace {

using std::uint64_t;

// ---- static span metadata ------------------------------------------------

struct KindInfo {
  const char* name;
  const char* cat;
  const char* phase;  // PhaseMetrics bucket for metric-backed closes
};

constexpr KindInfo kKinds[static_cast<std::size_t>(SpanKind::kCount)] = {
    {"window", "proto", nullptr},
    {"refresh.session", "proto", nullptr},
    {"recovery.batch", "proto", nullptr},
    {"refresh.deal", "proto", "rerand"},
    {"refresh.transform", "proto", "rerand"},
    {"refresh.verify", "proto", "rerand"},
    {"refresh.apply", "proto", "rerand"},
    {"recovery.deal", "proto", "recover"},
    {"recovery.transform", "proto", "recover"},
    {"recovery.verify", "proto", "recover"},
    {"recovery.mask", "proto", "recover"},
    {"recovery.finish", "proto", "recover"},
    {"host.serve", "proto", "serve"},
    {"vss.deal", "vss", nullptr},
    {"vss.transform", "vss", nullptr},
    {"vss.verify", "vss", nullptr},
    {"client.set", "client", "client"},
    {"client.reconstruct", "client", "client"},
    {"codec.encode", "codec", nullptr},
    {"codec.decode", "codec", nullptr},
    {"pool.chunk", "pool", nullptr},
    {"byz.action", "byz", nullptr},
    {"byz.detect", "byz", nullptr},
    {"net.connect", "net", nullptr},
    {"serving.request", "serving", nullptr},
    {"serving.refresh_batch", "serving", nullptr},
    {"reshare.session", "proto", nullptr},
    {"reshare.file", "proto", nullptr},
    {"serving.reshard", "serving", nullptr},
    {"crypto.verify_cert", "crypto", nullptr},
    {"crypto.sign", "crypto", nullptr},
    {"crypto.sign_snapshot", "crypto", nullptr},
    {"crypto.verify_snapshot", "crypto", nullptr},
};

const KindInfo& Info(SpanKind k) {
  return kKinds[static_cast<std::size_t>(k)];
}

// ---- event storage -------------------------------------------------------

struct Event {
  const char* name;
  const char* cat;
  const char* phase;  // nullptr unless metric-backed
  char type;          // 'X' complete, 'i' instant
  std::uint32_t tid;
  uint64_t id, parent;
  uint64_t a, b;
  uint64_t window;
  uint64_t ts_ns;
  uint64_t wall_ns;  // dur for 'X'; unused for 'i'
  uint64_t cpu_ns;
  uint64_t bytes;  // net events only
};

std::atomic<bool> g_enabled{false};

struct Store {
  std::mutex mu;
  std::vector<Event> events;
  std::string path;  // from EnableTracing, for WriteTrace("")
};

Store& GetStore() {
  static Store* s = new Store();  // leaked: usable during static destruction
  return *s;
}

std::atomic<std::uint32_t> g_next_tid{0};
thread_local std::uint32_t t_tid = 0xFFFFFFFFu;

std::uint32_t Tid() {
  if (t_tid == 0xFFFFFFFFu)
    t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

void Record(const Event& e) {
  Store& s = GetStore();
  std::lock_guard<std::mutex> lock(s.mu);
  s.events.push_back(e);
}

// ---- per-thread span bookkeeping ----------------------------------------

// Open-span stack of the calling thread. `children` numbers protocol
// siblings so repeated (parent, kind, a, b) tuples -- retry attempts -- get
// distinct ids; `saved_window` restores the window ordinal when a window
// span closes. Only touched while tracing is enabled.
struct Frame {
  uint64_t id;
  uint64_t children;
  uint64_t saved_window;
};

thread_local std::vector<Frame>* t_stack = nullptr;
thread_local uint64_t t_ctx_parent = 0;  // installed by ScopedTraceContext
thread_local uint64_t t_window = 0;
thread_local uint64_t t_root_children = 0;

// Frees the lazily-allocated stack when its thread exits. The store above
// can lean on a reachable static pointer, but a pool worker's stack has no
// root once the thread is gone and would be reported as leaked.
struct StackOwner {
  ~StackOwner() {
    delete t_stack;
    t_stack = nullptr;
  }
};
thread_local StackOwner t_stack_owner;

std::vector<Frame>& Stack() {
  if (t_stack == nullptr) {
    t_stack = new std::vector<Frame>();
    (void)&t_stack_owner;  // odr-use: registers the thread-exit cleanup
  }
  return *t_stack;
}

uint64_t CurrentParent() {
  std::vector<Frame>* st = t_stack;
  if (st != nullptr && !st->empty()) return st->back().id;
  return t_ctx_parent;
}

// splitmix64 finalizer: the id mix is a pure function of its inputs, so ids
// are reproducible wherever span open order is (control thread) or ids are
// order-free by construction (pool chunks).
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t MixId(uint64_t parent, uint64_t kind, uint64_t a, uint64_t b,
               uint64_t seq) {
  uint64_t h = Mix(parent ^ Mix(kind + 1));
  h = Mix(h ^ a);
  h = Mix(h ^ b);
  h = Mix(h ^ seq);
  return h | 1;  // never 0 (0 = "no id" / root)
}

void AppendHex(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"0x%llx\"",
                static_cast<unsigned long long>(v));
  out += buf;
}

void AppendU64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void AppendMicros(std::string& out, uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

const char* SpanName(SpanKind k) { return Info(k).name; }
const char* SpanCategory(SpanKind k) { return Info(k).cat; }

bool TraceEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void EnableTracing(const std::string& path) {
  Store& s = GetStore();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.path = path;
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

void DisableTracing() { g_enabled.store(false, std::memory_order_relaxed); }

void ResetTrace() {
  Store& s = GetStore();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.events.clear();
    s.events.shrink_to_fit();
  }
  if (t_stack != nullptr) t_stack->clear();
  t_ctx_parent = 0;
  t_window = 0;
  t_root_children = 0;
}

// ---- Span ----------------------------------------------------------------

Span::Span(SpanKind kind, uint64_t a, uint64_t b) {
  if (!TraceEnabled()) return;
  active_ = true;
  kind_ = kind;
  a_ = a;
  b_ = b;
  parent_ = CurrentParent();
  uint64_t seq = 0;
  if (kind != SpanKind::kPoolChunk) {
    // Sibling ordinal. Chunk spans skip this: their count depends on the
    // pool split, and bumping a shared counter from them would shift the ids
    // of protocol siblings opened after a parallel region.
    std::vector<Frame>& st = Stack();
    seq = st.empty() ? t_root_children++ : st.back().children++;
  }
  id_ = MixId(parent_, static_cast<uint64_t>(kind), a, b, seq);
  Stack().push_back({id_, 0, t_window});
  if (kind == SpanKind::kWindow) t_window = a;
  ts0_ = pisces::MonotonicNanos();
  cpu0_ = pisces::ThreadCpuNanos();
}

Span::~Span() {
  if (!active_) return;
  Close(pisces::MonotonicNanos() - ts0_, pisces::ThreadCpuNanos() - cpu0_,
        /*metric_backed=*/false);
}

void Span::CloseWithTimes(uint64_t wall_ns, uint64_t cpu_ns) {
  if (!active_) return;
  Close(wall_ns, cpu_ns, /*metric_backed=*/true);
}

void Span::Close(uint64_t wall_ns, uint64_t cpu_ns, bool metric_backed) {
  active_ = false;
  std::vector<Frame>& st = Stack();
  // Pop our own frame; tolerate a stack perturbed by enable/disable races in
  // tests by searching from the top.
  while (!st.empty()) {
    const Frame f = st.back();
    st.pop_back();
    if (f.id == id_) {
      if (kind_ == SpanKind::kWindow) t_window = f.saved_window;
      break;
    }
  }
  const KindInfo& info = Info(kind_);
  Event e{};
  e.name = info.name;
  e.cat = info.cat;
  e.phase = metric_backed ? info.phase : nullptr;
  e.type = 'X';
  e.tid = Tid();
  e.id = id_;
  e.parent = parent_;
  e.a = a_;
  e.b = b_;
  e.window = kind_ == SpanKind::kWindow ? a_ : t_window;
  e.ts_ns = ts0_;
  e.wall_ns = wall_ns;
  e.cpu_ns = cpu_ns;
  Record(e);
}

void NetEvent(const char* dir, uint64_t from, uint64_t to, uint64_t bytes) {
  if (!TraceEnabled()) return;
  Event e{};
  e.name = dir[0] == 's' ? "net.send" : "net.recv";
  e.cat = "net";
  e.type = 'i';
  e.tid = Tid();
  e.parent = CurrentParent();
  e.a = from;
  e.b = to;
  e.window = t_window;
  e.ts_ns = pisces::MonotonicNanos();
  e.bytes = bytes;
  Record(e);
}

// ---- context propagation -------------------------------------------------

TraceContext CurrentTraceContext() {
  if (!TraceEnabled()) return {};
  return {CurrentParent(), t_window};
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx) {
  if (!TraceEnabled()) return;
  active_ = true;
  saved_parent_ = t_ctx_parent;
  saved_window_ = t_window;
  t_ctx_parent = ctx.parent_id;
  t_window = ctx.window;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (!active_) return;
  t_ctx_parent = saved_parent_;
  t_window = saved_window_;
}

// ---- export --------------------------------------------------------------

std::string TraceToJson() {
  Store& s = GetStore();
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    events = s.events;
  }
  uint64_t t0 = ~0ull;
  for (const Event& e : events) t0 = e.ts_ns < t0 ? e.ts_ns : t0;
  if (events.empty()) t0 = 0;

  std::string out;
  out.reserve(events.size() * 192 + 64);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += e.name;
    out += "\",\"cat\":\"";
    out += e.cat;
    out += "\",\"ph\":\"";
    out += e.type == 'X' ? "X" : "i";
    out += "\",\"pid\":1,\"tid\":";
    AppendU64(out, e.tid);
    out += ",\"ts\":";
    AppendMicros(out, e.ts_ns - t0);
    if (e.type == 'X') {
      out += ",\"dur\":";
      AppendMicros(out, e.wall_ns);
    } else {
      out += ",\"s\":\"t\"";
    }
    out += ",\"args\":{";
    if (e.type == 'X') {
      out += "\"id\":";
      AppendHex(out, e.id);
      out += ",\"parent\":";
      AppendHex(out, e.parent);
      out += ",\"a\":";
      AppendU64(out, e.a);
      out += ",\"b\":";
      AppendU64(out, e.b);
      out += ",\"window\":";
      AppendU64(out, e.window);
      out += ",\"wall_ns\":";
      AppendU64(out, e.wall_ns);
      out += ",\"cpu_ns\":";
      AppendU64(out, e.cpu_ns);
      if (e.phase != nullptr) {
        out += ",\"phase\":\"";
        out += e.phase;
        out += "\"";
      }
    } else {
      out += "\"parent\":";
      AppendHex(out, e.parent);
      out += ",\"from\":";
      AppendU64(out, e.a);
      out += ",\"to\":";
      AppendU64(out, e.b);
      out += ",\"bytes\":";
      AppendU64(out, e.bytes);
      out += ",\"window\":";
      AppendU64(out, e.window);
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void WriteTrace(const std::string& path) {
  std::string p = path;
  if (p.empty()) {
    Store& s = GetStore();
    std::lock_guard<std::mutex> lock(s.mu);
    p = s.path;
  }
  pisces::Require(!p.empty(), "obs::WriteTrace: no path");
  std::ofstream f(p);
  pisces::Require(f.good(), "obs::WriteTrace: cannot open '" + p + "'");
  f << TraceToJson();
}

std::string FlameSummary() {
  Store& s = GetStore();
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    events = s.events;
  }
  struct Agg {
    uint64_t count = 0;
    uint64_t wall_ns = 0;
    uint64_t cpu_ns = 0;
    uint64_t bytes = 0;
  };
  std::map<std::pair<uint64_t, std::string>, Agg> agg;
  for (const Event& e : events) {
    Agg& a = agg[{e.window, e.name}];
    a.count++;
    if (e.type == 'X') {
      a.wall_ns += e.wall_ns;
      a.cpu_ns += e.cpu_ns;
    } else {
      a.bytes += e.bytes;
    }
  }
  std::string out;
  out += "window  span                 count      wall_ms       cpu_ms"
         "        bytes\n";
  char line[160];
  for (const auto& [key, a] : agg) {
    std::snprintf(line, sizeof(line),
                  "%6llu  %-20s %5llu %12.3f %12.3f %12llu\n",
                  static_cast<unsigned long long>(key.first),
                  key.second.c_str(), static_cast<unsigned long long>(a.count),
                  static_cast<double>(a.wall_ns) * 1e-6,
                  static_cast<double>(a.cpu_ns) * 1e-6,
                  static_cast<unsigned long long>(a.bytes));
    out += line;
  }
  return out;
}

std::size_t TraceEventCount() {
  Store& s = GetStore();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.events.size();
}

std::size_t TraceHeapBytes() {
  Store& s = GetStore();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.events.capacity() * sizeof(Event);
}

}  // namespace obs
