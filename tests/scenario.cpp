// The scenario engine: one seeded binary for the paper's invariants
// (Section III-A) under load, churn and a mobile Byzantine adversary.
//
// Each profile is a list of campaigns, and each campaign is a pure function
// of its seed:
//
//   serving      (ctest label serving) open-loop overload on a 2-shard
//                ServingPlane with a batched refresh mid-run; seed 2026,
//                120 ticks.
//   reshare      (label reshare_drill) the same generator over the wire
//                client (ServingWireClient -> SimNet -> ServingGateway), with
//                an equivocating contributor on shard 0, mild link faults on
//                every shard, a batched refresh, spot churn re-provisioned by
//                a degenerate reshare, and a demand burst that grows a shard
//                through a live reshare; seed 2027, 80 ticks.
//   byz          (label byz_sweep) the byz-window campaigns for seeds 1..25,
//                then the byz-reshare campaigns for seeds 1..5; 10 windows
//                each. Every window arms a drawn Byzantine plan plus mild
//                link faults. byz-window runs an update window with a
//                passive spy topped up to t hosts; byz-reshare first
//                live-reshards the group (grow, degenerate, shrink, cycling).
//
// Both serving profiles check every step against one reference model and
// end with one audit: the namespace equals the model, every live file
// downloads bit-exactly and sits only on its routed shard, and accepted ==
// completed with nothing failed. The Byzantine campaigns assert
//
//   safety     the file downloads bit-exactly after every window (and every
//              migration);
//   privacy    the spy never holds > t same-period shares, and neither
//              same-period nor cross-period reconstruction succeeds;
//   liveness   every window (and migration) completes despite <= t armed
//              cheaters;
//   detection  every dealer-side cheater is attributed within its window,
//              and tampered masked shares trip the robust decode;
//   no-recon   a migration spends no reconstruction traffic.
//
// Usage: scenario --profile P [--seed S] [--verbose]
// P is a profile or a campaign kind (serving, reshare, byz-window,
// byz-reshare); --seed S runs only seed S of each selected kind. A failed
// campaign prints FAIL lines and then
//
//   REPLAY: tests/scenario --profile P --seed S --verbose
//
// which re-runs exactly that campaign, with per-tick or per-window lines.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/sim_transport.h"
#include "net/sync_network.h"
#include "obs/registry.h"
#include "pisces/autoscaler.h"
#include "pisces/byzantine.h"
#include "pisces/pisces.h"
#include "pisces/serving_client.h"

namespace pisces {
namespace {

using net::ServingOp;
using net::ServingStatus;
using ull = unsigned long long;

// Prints a FAIL line naming the violated condition and fails the campaign.
#define CHECK(cond, ...)                                             \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("FAIL %s:%d: %s\n  ", __FILE__, __LINE__, #cond);   \
      std::printf(__VA_ARGS__);                                      \
      std::printf("\n");                                             \
      return false;                                                  \
    }                                                                \
  } while (0)

struct Campaign {
  std::uint64_t seed;
  bool verbose;
};

// --- reference model --------------------------------------------------------

// What a correct serving plane must serve. `content` holds the bytes of
// every upload that is in flight or accepted; `live` holds the ids alive in
// admission order. Sending a delete kills its file at once: a shard queue is
// FIFO, so nothing admitted later may observe the file alive.
struct Model {
  std::map<std::uint64_t, Bytes> content;
  std::set<std::uint64_t> live;
  std::uint64_t next_file = 1;

  std::uint64_t NewFile(Rng& rng) {
    const std::uint64_t id = next_file++;
    content[id] = rng.RandomBytes(256 + rng.Below(1024));
    return id;
  }
  // Deterministic pick: the k-th element of the ordered live set.
  std::uint64_t PickLive(Rng& rng) const {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.Below(live.size())));
    return *it;
  }
  // The outcome of a request: an accepted upload goes live and any other is
  // forgotten; a delete that was not accepted leaves its file alive.
  void Record(ServingOp op, std::uint64_t id, ServingStatus status) {
    const bool ok = status == ServingStatus::kOk;
    if (op == ServingOp::kUpload && ok) live.insert(id);
    if (op == ServingOp::kUpload && !ok) content.erase(id);
    if (op == ServingOp::kDelete && !ok) live.insert(id);
  }
};

struct Arrival {
  ServingOp op = ServingOp::kPing;
  std::uint64_t file_id = 0;
};

// One open-loop arrival: 15% uploads (every arrival while nothing is live),
// 75% downloads and 10% deletes of a live file.
Arrival NextArrival(Rng& rng, Model& model) {
  const std::uint64_t dice = rng.Below(100);
  if (dice < 15 || model.live.empty()) {
    return {ServingOp::kUpload, model.NewFile(rng)};
  }
  const std::uint64_t id = model.PickLive(rng);
  if (dice < 90) return {ServingOp::kDownload, id};
  model.live.erase(id);
  return {ServingOp::kDelete, id};
}

Bytes PayloadOf(const Arrival& a, const Model& model) {
  return a.op == ServingOp::kUpload ? model.content.at(a.file_id) : Bytes{};
}

// Both serving profiles: 2 shards of n = 8, t = 1, l = 2 (l >= 2 makes
// reshare contributions fully verifiable), service rate = shards *
// max_inflight = 4 ops per tick against 6 offered.
ServingConfig PlaneConfig(std::uint64_t seed) {
  ServingConfig cfg;
  cfg.shards = 2;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = seed;
  cfg.admission_capacity = 16;
  cfg.max_inflight = 2;
  cfg.retry_after_ms = 5;
  return cfg;
}
constexpr std::size_t kOpsPerTick = 6;

bool QueuesBounded(const ServingPlane& plane, const ServingConfig& cfg) {
  for (std::uint32_t s = 0; s < plane.shard_count(); ++s) {
    CHECK(plane.QueueDepth(s) <= cfg.admission_capacity,
          "shard %u queue exceeded capacity", s);
  }
  return true;
}

// The end-of-run audit: nothing lost, nothing invented, nothing misplaced.
// It reads every live file back on a fresh session, so the plane's counters
// include those downloads afterwards.
bool Audit(ServingPlane& plane, const ServingConfig& cfg, const Model& model) {
  const ServingStats& st = plane.stats();
  CHECK(st.failed == 0, "accepted requests failed in execution");
  CHECK(st.completed == st.accepted,
        "accepted=%llu completed=%llu: requests lost or duplicated",
        ull(st.accepted), ull(st.completed));
  CHECK(st.queue_peak <= cfg.admission_capacity,
        "queue peak %llu exceeded capacity", ull(st.queue_peak));
  CHECK(plane.files().size() == model.live.size(),
        "plane namespace (%zu) disagrees with the reference (%zu)",
        plane.files().size(), model.live.size());
  const std::uint64_t session = plane.OpenSession();
  for (const std::uint64_t id : model.live) {
    auto adm = plane.Submit(session, ServingOp::kDownload, id);
    CHECK(adm.status == ServingStatus::kOk,
          "post-run download of live file %llu refused", ull(id));
    plane.Drain();
    auto done = plane.TakeCompletions();
    CHECK(done.size() == 1 && done[0].status == ServingStatus::kOk &&
              done[0].payload == model.content.at(id),
          "post-run download of file %llu not bit-exact", ull(id));
    const std::uint32_t home = plane.ShardOf(id);
    for (std::uint32_t s = 0; s < plane.shard_count(); ++s) {
      const auto n = static_cast<std::uint32_t>(plane.shard_params(s).n);
      for (std::uint32_t h = 0; h < n; ++h) {
        CHECK(plane.shard(s).host(h).store().Has(id) == (s == home),
              "file %llu misplaced: shard %u host %u", ull(id), s, h);
      }
    }
  }
  return true;
}

// Bytes sent in messages of `types` over the obs window `delta`.
std::uint64_t SentBytes(const obs::Snapshot& delta,
                        std::initializer_list<net::MsgType> types) {
  std::uint64_t total = 0;
  for (const net::MsgType type : types) {
    total += obs::Value(
        delta, std::string("net.bytes_sent.") + net::MsgTypeName(type));
  }
  return total;
}

obs::Snapshot Since(const obs::Snapshot& before) {
  return obs::Delta(before, obs::TakeSnapshot());
}

// --- profile: serving -------------------------------------------------------

// Open loop: 6 arrivals per tick whatever the backlog. Under overload the
// plane must shed with a retry-after hint rather than buffer without bound,
// complete everything it accepted, and finish each request within a
// generous deadline even at peak backlog.
bool RunServing(const Campaign& c) {
  constexpr std::size_t kTicks = 120;
  const ServingConfig cfg = PlaneConfig(c.seed);
  ServingPlane plane(cfg);
  Rng rng(c.seed ^ 0x5E21);
  const std::uint64_t session = plane.OpenSession();
  Model model;

  auto submit = [&](const Arrival& a) {
    const auto adm =
        plane.Submit(session, a.op, a.file_id, PayloadOf(a, model));
    model.Record(a.op, a.file_id, adm.status);
    return adm;
  };

  // Preload a namespace so downloads have targets from tick zero.
  for (int k = 0; k < 10; ++k) {
    const Arrival a{ServingOp::kUpload, model.NewFile(rng)};
    CHECK(submit(a).status == ServingStatus::kOk, "preload upload refused");
    plane.Drain();
  }

  std::uint64_t offered = 0;
  std::size_t completions_seen = 0;
  std::uint64_t max_latency_ns = 0, max_queue_ns = 0;
  auto absorb = [&]() -> bool {
    for (const ServingCompletion& done : plane.TakeCompletions()) {
      ++completions_seen;
      CHECK(done.status == ServingStatus::kOk,
            "request %llu (%s, file %llu) failed: %s", ull(done.request),
            net::ServingOpName(done.op), ull(done.file_id),
            pisces::StatusName(done.status));
      if (done.op == ServingOp::kDownload) {
        CHECK(done.payload == model.content.at(done.file_id),
              "download of file %llu returned wrong bytes",
              ull(done.file_id));
      }
      max_latency_ns = std::max(max_latency_ns, done.latency_ns);
      max_queue_ns = std::max(max_queue_ns, done.queue_ns);
    }
    return true;
  };

  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    for (std::size_t k = 0; k < kOpsPerTick; ++k) {
      ++offered;
      const Arrival a = NextArrival(rng, model);
      const auto adm = submit(a);
      CHECK(adm.status == ServingStatus::kOk ||
                adm.status == ServingStatus::kRejected,
            "%s of file %llu neither accepted nor queue-full rejected: %s",
            net::ServingOpName(a.op), ull(a.file_id),
            pisces::StatusName(adm.status));
      if (adm.status == ServingStatus::kRejected) {
        CHECK(adm.retry_after_ms >= cfg.retry_after_ms,
              "reject without a usable retry-after hint");
      }
      if (!QueuesBounded(plane, cfg)) return false;
    }
    plane.Poll();
    if (!absorb()) return false;
    // The proactive window fires mid-run, on top of live queued work.
    if (tick == kTicks / 2) {
      CHECK(plane.BatchRefresh(), "mid-run batched refresh failed");
    }
    if (c.verbose && tick % 20 == 0) {
      std::printf("tick %3zu: offered=%llu accepted=%llu rejected=%llu "
                  "queued=%zu\n",
                  tick, ull(offered), ull(plane.stats().accepted),
                  ull(plane.stats().rejected), plane.TotalQueued());
    }
  }
  plane.Drain();
  if (!absorb()) return false;

  const ServingStats& st = plane.stats();
  CHECK(completions_seen == st.completed,
        "completion records do not match the completed counter");
  // Every Submit was one of the 10 preload uploads or an open-loop arrival,
  // and each landed in exactly one ledger bucket.
  CHECK(st.accepted + st.rejected + st.refused == offered + 10,
        "admission ledger does not cover the offered load");
  CHECK(st.rejected > 0, "open-loop overload never tripped admission control");
  CHECK(st.rejected < offered / 2,
        "admission shed more than half the offered load");
  CHECK(st.refresh_batches > 0 && st.refresh_files > 0,
        "mid-run refresh did not launch");
  if (!Audit(plane, cfg, model)) return false;
  // Ticks run as fast as the CPU allows; 30 s of wall time per request is
  // generous and still catches a wedged queue.
  CHECK(max_latency_ns < 30ull * 1000 * 1000 * 1000,
        "worst accepted-request latency blew the deadline");
  CHECK(max_queue_ns <= max_latency_ns, "queue time exceeds latency");

  std::printf("serving: seed=%llu offered=%llu accepted=%llu completed=%llu "
              "rejected=%llu refused=%llu queue_peak=%llu "
              "refresh_batches=%llu live_files=%zu max_latency_ms=%.2f\n",
              ull(c.seed), ull(offered), ull(st.accepted), ull(st.completed),
              ull(st.rejected), ull(st.refused), ull(st.queue_peak),
              ull(st.refresh_batches), model.live.size(),
              static_cast<double>(max_latency_ns) / 1e6);
  return true;
}

// --- profile: reshare -------------------------------------------------------

// Every migration bumps the routing epoch, so in-flight wire requests are
// refused with kBadRoute plus the new map, and the client must re-route
// within its budget. On top of the serving contract: both migration kinds
// happen, neither spends full-file reconstructions, route epoch == 1 +
// migrations, every kBadRoute is absorbed, and the equivocator is caught.
bool RunReshare(const Campaign& c) {
  constexpr std::size_t kTicks = 80;
  const ServingConfig cfg = PlaneConfig(c.seed);
  ServingPlane plane(cfg);
  Rng rng(c.seed ^ 0xD411);

  // Host 2 of shard 0 equivocates on every deal, reshare contributions
  // included; t = 1 absorbs it everywhere.
  ByzantinePlan equivocator;
  equivocator.seed = c.seed ^ 0xB12;
  equivocator.hosts[2] = ByzantineStrategy::kEquivocate;
  plane.shard(0).ArmByzantine(equivocator);
  for (std::uint32_t s = 0; s < plane.shard_count(); ++s) {
    net::FaultPlan fp;
    fp.seed = c.seed ^ (0xFA57 + s);
    fp.all_links.dup_prob = 0.02;
    fp.all_links.reorder_prob = 0.005;
    fp.all_links.delay_jitter = 1;
    plane.shard(s).net().SetFaultPlan(fp);
  }

  // The serving wire is its own fault-free SimNet: the re-route protocol is
  // the deterministic part under test.
  net::SimNet wire;
  net::SimEndpoint* gw_ep = wire.AddEndpoint(net::kGatewayId);
  WireClientConfig ccfg;  // reroute_budget = 3
  net::SimEndpoint* cl_ep = wire.AddEndpoint(ccfg.id);
  ServingGateway gateway(plane, *gw_ep);
  ServingWireClient client(ccfg, *cl_ep);
  net::SyncNetwork sync(wire);
  sync.Register(net::kGatewayId, gw_ep, &gateway);
  sync.Register(ccfg.id, cl_ep, &client);
  client.AdoptMap(plane.routing_map());
  const std::uint64_t session = client.OpenSession();

  Model model;
  std::map<std::uint64_t, Arrival> expect;  // in flight, by request ordinal
  std::uint64_t offered = 0, rejected_seen = 0;
  auto send = [&](const Arrival& a) {
    const std::uint64_t ord =
        client.Send(session, a.op, a.file_id, PayloadOf(a, model));
    expect[ord] = a;
    ++offered;
  };
  auto absorb = [&]() -> bool {
    for (const net::ServingResponseFrame& r : client.TakeResponses()) {
      auto it = expect.find(r.request);
      CHECK(it != expect.end(), "response for unknown ordinal %llu",
            ull(r.request));
      const Arrival a = it->second;
      expect.erase(it);
      // The client's re-route budget (3) covers every epoch bump in flight.
      CHECK(r.status != ServingStatus::kBadRoute,
            "kBadRoute escaped the re-route loop (file %llu)",
            ull(a.file_id));
      CHECK(r.status == ServingStatus::kOk ||
                r.status == ServingStatus::kRejected,
            "request %llu (file %llu) failed: %s", ull(r.request),
            ull(a.file_id), pisces::StatusName(r.status));
      if (r.status == ServingStatus::kRejected) {
        ++rejected_seen;
      } else if (a.op == ServingOp::kDownload) {
        CHECK(r.payload == model.content.at(a.file_id),
              "download of file %llu not bit-exact", ull(a.file_id));
      }
      model.Record(a.op, a.file_id, r.status);
    }
    return true;
  };
  auto pump = [&]() -> bool {
    sync.RunToQuiescence();
    gateway.Pump();
    sync.RunToQuiescence();
    return absorb();
  };
  auto drain = [&](const char* what) -> bool {
    for (int guard = 0; plane.TotalQueued() > 0 || !expect.empty(); ++guard) {
      CHECK(guard < 1000, "%s wedged", what);
      if (!pump()) return false;
    }
    return true;
  };

  for (int k = 0; k < 10; ++k) send({ServingOp::kUpload, model.NewFile(rng)});
  if (!drain("preload")) return false;
  CHECK(model.live.size() == 10, "preload uploads did not all land");

  // Grow at 75% queue pressure, re-provision dead slots first, no shrinks
  // (0 disables them), never past 16 slots.
  AutoscalerConfig acfg;
  acfg.grow_pressure = 0.75;
  acfg.shrink_pressure = 0.0;
  acfg.grow_step = 4;
  acfg.min_n = 4;
  acfg.max_n = 16;
  acfg.cooldown_ticks = 2;
  ElasticAutoscaler scaler(acfg);
  std::uint64_t reprovisions = 0, grows = 0;
  const std::uint32_t churn_victim = 4;  // on shard 1

  for (std::size_t tick = 0; tick < kTicks; ++tick) {
    for (std::size_t k = 0; k < kOpsPerTick; ++k) {
      send(NextArrival(rng, model));
    }
    if (!pump() || !QueuesBounded(plane, cfg)) return false;

    if (tick == kTicks / 4) {
      CHECK(plane.BatchRefresh(), "mid-run batched refresh failed");
    }

    // Spot churn: kill a slot (process gone, link dark); the autoscaler
    // re-provisions it through a degenerate reshare. Draining first leaves
    // only migration traffic in the obs window, so even reconstruct
    // requests must stay at zero.
    if (tick == kTicks / 2) {
      if (!drain("pre-churn drain")) return false;
      plane.shard(1).host(churn_victim).Shutdown();
      plane.shard(1).net().SetOffline(churn_victim, true);
      const obs::Snapshot before = obs::TakeSnapshot();
      const AutoscaleReport rep = RunAutoscaler(plane, scaler, tick);
      CHECK(rep.reprovisions == 1, "churned slot was not re-provisioned");
      CHECK(rep.denied == 0, "autoscaler sweep denied under churn");
      CHECK(SentBytes(Since(before), {net::MsgType::kReconstructRequest,
                                      net::MsgType::kMaskedShare}) == 0,
            "re-provisioning spent reconstruction traffic");
      CHECK(plane.shard(1).host(churn_victim).online() &&
                !plane.shard(1).net().IsOffline(churn_victim),
            "churned slot still dark after the sweep");
      reprovisions += rep.reprovisions;
      grows += rep.grows;
      if (c.verbose) {
        std::printf("tick %3zu: churn -> reprovision (epoch %llu)\n", tick,
                    ull(plane.route_epoch()));
      }
    }

    // Demand burst: drive one shard's queue over the grow threshold and let
    // the autoscaler grow it through a live reshare.
    if (tick == 3 * kTicks / 4) {
      CHECK(!model.live.empty(), "no live file to burst against");
      const std::uint64_t burst_file = *model.live.begin();
      const std::uint32_t home = plane.ShardOf(burst_file);
      for (int k = 0; k < 14; ++k) send({ServingOp::kDownload, burst_file});
      sync.RunToQuiescence();  // deliver the burst but keep it queued
      if (!absorb()) return false;  // admission rejects answer at once
      CHECK(plane.QueueDepth(home) > cfg.admission_capacity * 3 / 4,
            "burst did not build grow pressure on shard %u", home);
      const std::size_t n_before = plane.shard_params(home).n;
      const obs::Snapshot before = obs::TakeSnapshot();
      const AutoscaleReport rep = RunAutoscaler(plane, scaler, tick);
      CHECK(rep.grows >= 1, "pressured shard was not grown");
      // The full queue drains inside Reshard with ordinary reads, so only
      // the recovery-only masked shares must stay at zero.
      CHECK(SentBytes(Since(before), {net::MsgType::kMaskedShare}) == 0,
            "grow migration spent recovery traffic");
      CHECK(plane.shard_params(home).n > n_before,
            "grown shard kept its old fleet size");
      reprovisions += rep.reprovisions;
      grows += rep.grows;
      if (!pump()) return false;
      if (c.verbose) {
        std::printf("tick %3zu: burst -> grow shard %u to n=%zu (epoch %llu)\n",
                    tick, home, plane.shard_params(home).n,
                    ull(plane.route_epoch()));
      }
    }

    if (c.verbose && tick % 20 == 0) {
      std::printf("tick %3zu: offered=%llu live=%zu queued=%zu reroutes=%llu\n",
                  tick, ull(offered), model.live.size(), plane.TotalQueued(),
                  ull(client.reroutes()));
    }
  }
  if (!drain("final drain")) return false;
  CHECK(client.pending() == 0, "wire client left requests pending");

  const ServingStats& st = plane.stats();
  const std::uint64_t migrations = reprovisions + grows;
  CHECK(reprovisions >= 1 && grows >= 1,
        "run did not exercise both migration kinds");
  CHECK(st.reshards == migrations,
        "plane reshard counter (%llu) != observed migrations (%llu)",
        ull(st.reshards), ull(migrations));
  CHECK(plane.route_epoch() == 1 + migrations,
        "route epoch %llu after %llu migrations", ull(plane.route_epoch()),
        ull(migrations));
  CHECK(client.reroutes() >= 1,
        "no stale-epoch traffic ever re-routed (run too gentle)");
  CHECK(client.reroutes_exhausted() == 0,
        "a request exhausted its re-route budget");
  CHECK(st.stale_epoch == client.reroutes(),
        "stale-epoch refusals (%llu) != client re-routes (%llu)",
        ull(st.stale_epoch), ull(client.reroutes()));
  CHECK(client.reroutes() <= migrations * (kOpsPerTick + 16),
        "re-route volume out of proportion to migrations");
  CHECK(rejected_seen > 0,
        "open-loop overload never tripped admission control");
  CHECK(st.refresh_batches > 0, "mid-run refresh did not launch");
  if (!Audit(plane, cfg, model)) return false;

  // The equivocator is caught either by the reshare verifier or first by
  // the batched refresh's dealer attribution (a reshare then never picks
  // the excluded host).
  const obs::Snapshot snap = obs::TakeSnapshot();
  CHECK(obs::Value(snap, "reshare.contributions_rejected") >= 1 ||
            obs::Value(snap, "byz.dealers_attributed") >= 1,
        "armed equivocator was never detected");
  std::printf("reshare: seed=%llu offered=%llu accepted=%llu completed=%llu "
              "rejected=%llu migrations=%llu (grow=%llu reprovision=%llu) "
              "epoch=%llu reroutes=%llu reshare_files=%llu "
              "rejected_contribs=%llu live_files=%zu\n",
              ull(c.seed), ull(offered), ull(st.accepted), ull(st.completed),
              ull(rejected_seen), ull(migrations), ull(grows),
              ull(reprovisions), ull(plane.route_epoch()),
              ull(client.reroutes()), ull(obs::Value(snap, "reshare.files")),
              ull(obs::Value(snap, "reshare.contributions_rejected")),
              model.live.size());
  return true;
}

// --- profile: byz -----------------------------------------------------------

constexpr std::size_t kWindows = 10;

// n = 10, t = 2. byz-window uses l = 1, r = 2 (3t + l = 7 < 10, r + l = 3 <
// n - 3t): the client decoding radius (10 - d - 1)/2 = 3 and the
// masked-share radius with n - r = 8 survivors, 2, both cover t, so every
// drawn plan is inside what the dispute machinery absorbs. byz-reshare uses
// l = 2, r = 1: two packed secrets make reshare contributions fully
// verifiable (docs/resharding.md), so every dealer-side cheat is caught
// during the redistribution itself.
pss::Params ByzParams(std::size_t n, std::size_t l, std::size_t r) {
  pss::Params p;
  p.n = n;
  p.t = 2;
  p.l = l;
  p.r = r;
  p.b = 1;
  p.field_bits = 256;
  return p;
}

using Fields = std::vector<std::pair<const char*, std::uint64_t>>;

// The body every Byzantine window shares: arm `plan` and a mild link-fault
// plan drawn from `wseed` (duplicates and reordering never cost liveness),
// run `op`, disarm both, and print the verbose plan line with the counters
// `op` put in its Fields.
template <typename Op>
bool ArmedWindow(Cluster& cluster, const char* kind, const Campaign& c,
                 std::size_t w, const ByzantinePlan& plan,
                 std::uint64_t wseed, Op&& op) {
  net::FaultPlan fp;
  fp.seed = wseed ^ 0xFA57;
  fp.all_links.dup_prob = 0.02;
  fp.all_links.reorder_prob = 0.05;
  cluster.net().SetFaultPlan(fp);
  cluster.ArmByzantine(plan);
  Fields fields;
  const bool ok = op(fields);
  cluster.DisarmByzantine();
  cluster.net().SetFaultPlan(net::FaultPlan{});
  if (c.verbose) {
    std::printf("%s seed %llu window %zu: plan{", kind, ull(c.seed), w);
    for (const auto& [host, strategy] : plan.hosts) {
      std::printf(" %u=%s", host, StrategyName(strategy));
    }
    std::printf(" }");
    for (const auto& [name, value] : fields) {
      std::printf(" %s=%llu", name, ull(value));
    }
    std::printf("\n");
  }
  return ok;
}

// Each window runs a full update window under the drawn plan while a
// passive spy reads every active cheater plus random hosts up to exactly t:
// the worst case the privacy invariant must hold against.
bool RunByzWindows(const Campaign& c) {
  const pss::Params params = ByzParams(10, 1, 2);
  ClusterConfig cc;
  cc.params = params;
  cc.seed = c.seed ^ 0xB12A57ULL;
  Cluster cluster(cc);
  Rng rng(c.seed);
  const Bytes file = rng.RandomBytes(400);
  cluster.Upload(1, file);
  Adversary spy(cluster);

  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::uint64_t wseed = rng.Next();
    const ByzantinePlan plan = DrawByzantinePlan(wseed, params);
    WindowReport report;
    obs::Snapshot delta;
    ArmedWindow(cluster, "byz-window", c, w, plan, wseed, [&](Fields& f) {
      std::set<std::uint32_t> spied;
      for (const auto& [host, strategy] : plan.hosts) spied.insert(host);
      while (spied.size() < params.t) {
        spied.insert(static_cast<std::uint32_t>(rng.Below(params.n)));
      }
      for (std::uint32_t id : spied) spy.Corrupt(id);
      const obs::Snapshot before = obs::TakeSnapshot();
      report = cluster.RunUpdateWindow();
      delta = Since(before);
      f = {{"ok", report.ok ? 1 : 0},
           {"attributed", obs::Value(delta, "byz.dealers_attributed")},
           {"suspected", obs::Value(delta, "byz.survivors_suspected")},
           {"corrected", obs::Value(delta, "byz.recovery_shares_corrected")},
           {"withheld", obs::Value(delta, "byz.messages_withheld")}};
      return true;
    });
    spy.ObserveWindow();

    std::uint64_t dealer_side = 0, wrong_share = 0;
    for (const auto& [host, strategy] : plan.hosts) {
      dealer_side += strategy == ByzantineStrategy::kEquivocate ||
                     strategy == ByzantineStrategy::kCorruptDeal;
      wrong_share += strategy == ByzantineStrategy::kWrongShare;
    }
    CHECK(report.ok || !report.failures.empty(),
          "window %zu: report: not ok without a failure line", w);
    CHECK(report.ok, "window %zu: liveness: %s", w,
          report.failures.empty() ? "window not ok"
                                  : report.failures.front().c_str());
    CHECK(cluster.Download(ReadSpec::Classic(1)) == file,
          "window %zu: safety: download does not match the plaintext", w);
    CHECK(!spy.ExceedsPrivacyThreshold(1),
          "window %zu: privacy: spy holds > t same-period shares", w);
    CHECK(!spy.AttemptReconstruction(1).has_value(),
          "window %zu: privacy: same-period reconstruction succeeded", w);
    CHECK(!spy.AttemptMixedReconstruction(1).has_value(),
          "window %zu: privacy: cross-period reconstruction succeeded", w);
    CHECK(obs::Value(delta, "byz.dealers_attributed") >= dealer_side,
          "window %zu: detection: cheating dealer not attributed", w);
    CHECK(wrong_share == 0 ||
              obs::Value(delta, "byz.recovery_inconsistent") > 0,
          "window %zu: detection: tampered masked shares never detected", w);
  }
  return true;
}

// Each window live-reshards the group under the drawn plan (grow to 13,
// re-randomize in place, shrink back to 10), then runs a full update window
// at the new shape with the cheaters still armed.
bool RunByzReshare(const Campaign& c) {
  ClusterConfig cc;
  cc.params = ByzParams(10, 2, 1);
  cc.seed = c.seed ^ 0x5EC0DULL;
  Cluster cluster(cc);
  Rng rng(c.seed ^ 0x7E5A);
  const Bytes file = rng.RandomBytes(400);
  cluster.Upload(1, file);

  pss::Params current = cc.params;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::uint64_t wseed = rng.Next();
    const ByzantinePlan plan = DrawByzantinePlan(wseed, current);
    const pss::Params to = w % 3 == 0   ? ByzParams(13, 2, 1)
                           : w % 3 == 2 ? ByzParams(10, 2, 1)
                                        : current;
    WindowReport report;
    const bool ok =
        ArmedWindow(cluster, "byz-reshare", c, w, plan, wseed, [&](Fields& f) {
          const obs::Snapshot before = obs::TakeSnapshot();
          // Throws when the migration fails.
          const ReshareReport moved = cluster.Reshare(to);
          const obs::Snapshot delta = Since(before);
          CHECK(moved.ok || !moved.failures.empty(),
                "window %zu: report: reshare not ok without a failure line",
                w);
          f = {{"n", to.n},
               {"rejected",
                obs::Value(delta, "reshare.contributions_rejected")},
               {"withheld",
                obs::Value(delta, "reshare.contributions_withheld")},
               {"retries", obs::Value(delta, "reshare.retries")}};
          current = to;
          CHECK(SentBytes(delta, {net::MsgType::kReconstructRequest,
                                  net::MsgType::kMaskedShare}) == 0,
                "window %zu: no-recon: migration spent reconstruction "
                "traffic", w);
          CHECK(cluster.Download(ReadSpec::Classic(1)) == file,
                "window %zu: safety: download after migration does not "
                "match the plaintext", w);
          report = cluster.RunUpdateWindow();
          return true;
        });
    if (!ok) return false;
    CHECK(report.ok || !report.failures.empty(),
          "window %zu: report: not ok without a failure line", w);
    CHECK(report.ok, "window %zu: liveness: %s", w,
          report.failures.empty() ? "window not ok"
                                  : report.failures.front().c_str());
    CHECK(cluster.Download(ReadSpec::Classic(1)) == file,
          "window %zu: safety: download after update window does not match "
          "the plaintext", w);
  }
  return true;
}

// --- campaign table and CLI ------------------------------------------------

// One row per campaign kind. --profile P runs every row whose profile or
// name is P; a failure replays by the row's name.
struct Kind {
  const char* profile;
  const char* name;
  bool (*run)(const Campaign&);
  std::uint64_t first_seed;
  std::size_t seeds;
};
constexpr Kind kKinds[] = {
    {"serving", "serving", RunServing, 2026, 1},
    {"reshare", "reshare", RunReshare, 2027, 1},
    {"byz", "byz-window", RunByzWindows, 1, 25},
    {"byz", "byz-reshare", RunByzReshare, 1, 5},
};

int Main(int argc, char** argv) {
  std::string profile;
  bool one_seed = false, verbose = false;
  std::uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--profile") == 0 && has_value) {
      profile = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      one_seed = true;
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      profile.clear();
      break;
    }
  }

  std::size_t total = 0, failed = 0;
  for (const Kind& kind : kKinds) {
    if (profile != kind.profile && profile != kind.name) continue;
    for (std::size_t k = 0; k < (one_seed ? 1 : kind.seeds); ++k) {
      const Campaign c{one_seed ? seed : kind.first_seed + k, verbose};
      bool ok = false;
      try {
        ok = kind.run(c);
      } catch (const std::exception& e) {
        std::printf("FAIL: %s\n", e.what());
      }
      ++total;
      if (ok) {
        std::printf("%s seed %llu: ok\n", kind.name, ull(c.seed));
        continue;
      }
      ++failed;
      std::printf("REPLAY: tests/scenario --profile %s --seed %llu --verbose\n",
                  kind.name, ull(c.seed));
    }
  }
  if (total == 0) {
    std::fprintf(stderr,
                 "usage: scenario --profile serving|reshare|byz|byz-window|"
                 "byz-reshare [--seed S] [--verbose]\n");
    return 2;
  }
  if (failed != 0) {
    std::printf("scenario %s: %zu of %zu campaigns FAILED\n", profile.c_str(),
                failed, total);
    return 1;
  }
  std::printf("scenario %s: all %zu campaigns passed\n", profile.c_str(),
              total);
  return 0;
}

}  // namespace
}  // namespace pisces

int main(int argc, char** argv) { return pisces::Main(argc, argv); }
