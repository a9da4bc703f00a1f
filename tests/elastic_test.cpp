// Elastic-fleet autoscaler tests (docs/resharding.md): the policy layer that
// turns admission-queue pressure, dead slots, and the EC2 cost model into
// grow/shrink/re-provision decisions, applied through live resharding. The
// combined serving + churn + autoscaler drill is scenario.cpp's reshare
// profile (ctest -L reshare_drill).
#include <gtest/gtest.h>

#include <map>

#include "net/net_obs.h"
#include "obs/registry.h"
#include "pisces/autoscaler.h"
#include "pisces/pisces.h"

namespace pisces {
namespace {

using net::ServingOp;
using net::ServingStatus;

// Same shape as the serving suite: n = 8, t = 1, l = 2, r = 2, 256-bit.
pss::Params BaseParams() {
  pss::Params p;
  p.n = 8;
  p.t = 1;
  p.l = 2;
  p.r = 2;
  p.field_bits = 256;
  return p;
}

ServingConfig OneShardConfig(std::uint64_t seed) {
  ServingConfig cfg;
  cfg.shards = 1;
  cfg.params = BaseParams();
  cfg.seed = seed;
  return cfg;
}

TEST(Elastic, ScaledParamsMaximisesToleranceWithinPackedConstraints) {
  const pss::Params base = BaseParams();

  // At each fleet size the policy picks the LARGEST t with 3t + l < n and
  // r + l <= n - 3t (most corruption tolerance the packed constraints allow).
  const pss::Params at12 = ElasticAutoscaler::ScaledParams(base, 12);
  EXPECT_EQ(at12.n, 12u);
  EXPECT_EQ(at12.t, 2u);  // t = 3 would leave r + l = 4 > 12 - 9
  EXPECT_EQ(at12.l, base.l);
  EXPECT_EQ(at12.r, base.r);
  EXPECT_TRUE(at12.IsValid());

  const pss::Params at16 = ElasticAutoscaler::ScaledParams(base, 16);
  EXPECT_EQ(at16.t, 4u);  // r + l = 4 sits exactly at n - 3t = 4
  EXPECT_TRUE(at16.IsValid());

  // No valid threshold at n = 4 for l = 2, r = 2: the policy refuses rather
  // than emit an invalid group.
  EXPECT_THROW(ElasticAutoscaler::ScaledParams(base, 4), Error);
}

TEST(Elastic, DecideHealthOutranksPressureAndHonoursCooldownAndBudget) {
  AutoscalerConfig acfg;
  acfg.grow_pressure = 0.75;
  acfg.shrink_pressure = 0.10;
  acfg.grow_step = 4;
  acfg.min_n = 8;
  acfg.max_n = 16;
  acfg.cooldown_ticks = 2;
  ElasticAutoscaler scaler(acfg);

  ShardSignal sig;
  sig.shard = 0;
  sig.params = BaseParams();
  sig.capacity = 64;

  // Dead slots outrank any demand signal: a full queue still yields a
  // re-provision (degenerate reshare, same shape) rather than a grow.
  sig.queue_depth = 64;
  sig.dead_hosts = 2;
  ScaleDecision d = scaler.Decide(sig, 10);
  EXPECT_EQ(d.action, ScaleAction::kReprovision);
  EXPECT_EQ(d.target.n, sig.params.n);
  EXPECT_EQ(d.target.t, sig.params.t);

  // Pressure above the grow threshold: grow by grow_step with the scaled
  // threshold, at a positive spot-cost delta.
  sig.dead_hosts = 0;
  sig.queue_depth = 60;  // 0.9375
  d = scaler.Decide(sig, 10);
  EXPECT_EQ(d.action, ScaleAction::kGrow);
  EXPECT_EQ(d.target.n, 12u);
  EXPECT_EQ(d.target.t, 2u);
  EXPECT_GT(d.dollars_per_hour_delta, 0.0);

  // Pressure below the shrink threshold at n = 12: shrink back to min_n.
  sig.params = ElasticAutoscaler::ScaledParams(BaseParams(), 12);
  sig.queue_depth = 2;  // 0.03
  d = scaler.Decide(sig, 10);
  EXPECT_EQ(d.action, ScaleAction::kShrink);
  EXPECT_EQ(d.target.n, 8u);
  EXPECT_LT(d.dollars_per_hour_delta, 0.0);

  // In-band pressure holds; so does full pressure at max_n (nowhere to go)
  // and idle pressure at min_n.
  sig.queue_depth = 30;
  EXPECT_EQ(scaler.Decide(sig, 10).action, ScaleAction::kHold);
  sig.params = ElasticAutoscaler::ScaledParams(BaseParams(), 16);
  sig.queue_depth = 64;
  EXPECT_EQ(scaler.Decide(sig, 10).action, ScaleAction::kHold);
  sig.params = BaseParams();  // n == min_n
  sig.queue_depth = 0;
  EXPECT_EQ(scaler.Decide(sig, 10).action, ScaleAction::kHold);

  // Cooldown: after an applied action the shard holds until cooldown_ticks
  // have elapsed, even under grow pressure -- and even with dead slots.
  scaler.NoteApplied(0, 20);
  sig.queue_depth = 60;
  sig.dead_hosts = 1;
  EXPECT_EQ(scaler.Decide(sig, 21).action, ScaleAction::kHold);
  EXPECT_EQ(scaler.Decide(sig, 21).reason, "cooldown");
  EXPECT_EQ(scaler.Decide(sig, 22).action, ScaleAction::kReprovision);

  // Budget: a grow whose hourly cost exceeds the budget is denied (held and
  // counted), not scaled down silently.
  AutoscalerConfig tight = acfg;
  tight.budget_per_hour = 0.0001;
  ElasticAutoscaler broke(tight);
  sig.dead_hosts = 0;
  const obs::Snapshot snap = obs::TakeSnapshot();
  d = broke.Decide(sig, 30);
  EXPECT_EQ(d.action, ScaleAction::kHold);
  EXPECT_NE(d.reason.find("denied"), std::string::npos) << d.reason;
  const obs::Snapshot delta = obs::Delta(snap, obs::TakeSnapshot());
  EXPECT_EQ(obs::Value(delta, "elastic.denied"), 1u);
}

TEST(Elastic, RunAutoscalerGrowsAShardUnderQueuePressure) {
  ServingConfig cfg = OneShardConfig(51);
  cfg.admission_capacity = 8;
  ServingPlane plane(cfg);
  const std::uint64_t session = plane.OpenSession();
  Rng rng(52);
  const Bytes data = rng.RandomBytes(700);
  ASSERT_EQ(plane.Submit(session, ServingOp::kUpload, 1, data).status,
            ServingStatus::kOk);
  plane.Drain();
  plane.TakeCompletions();

  // Seven queued downloads against a capacity-8 queue: pressure 0.875.
  for (int k = 0; k < 7; ++k) {
    ASSERT_EQ(plane.Submit(session, ServingOp::kDownload, 1).status,
              ServingStatus::kOk);
  }

  AutoscalerConfig acfg;
  acfg.min_n = 4;
  acfg.max_n = 16;
  acfg.grow_step = 4;
  acfg.cooldown_ticks = 1;
  ElasticAutoscaler scaler(acfg);

  const AutoscaleReport rep = RunAutoscaler(plane, scaler, /*tick=*/1);
  EXPECT_EQ(rep.grows, 1u);
  EXPECT_EQ(rep.holds, 0u);
  EXPECT_EQ(rep.denied, 0u);
  EXPECT_EQ(plane.shard_params(0).n, 12u);
  EXPECT_EQ(plane.shard_params(0).t, 2u);
  EXPECT_EQ(plane.route_epoch(), 2u);
  EXPECT_EQ(plane.stats().reshards, 1u);

  // The migration drained the pressured queue first: all seven downloads
  // completed, bit-exactly, and the grown fleet keeps serving.
  auto done = plane.TakeCompletions();
  ASSERT_EQ(done.size(), 7u);
  for (const auto& c : done) {
    EXPECT_EQ(c.status, ServingStatus::kOk);
    EXPECT_EQ(c.payload, data);
  }
  ASSERT_EQ(plane.Submit(session, ServingOp::kDownload, 1).status,
            ServingStatus::kOk);
  plane.Drain();
  done = plane.TakeCompletions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].payload, data);
}

TEST(Elastic, RunAutoscalerReprovisionsDeadSlotsWithoutReconstruction) {
  ServingPlane plane(OneShardConfig(53));
  const std::uint64_t session = plane.OpenSession();
  Rng rng(54);
  std::map<std::uint64_t, Bytes> reference;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    reference[id] = rng.RandomBytes(400 + 11 * id);
    ASSERT_EQ(plane.Submit(session, ServingOp::kUpload, id,
                           reference[id]).status,
              ServingStatus::kOk);
  }
  plane.Drain();
  plane.TakeCompletions();

  // Spot churn: two slots die (process gone AND link dark). t = 1 holders
  // still leave d + 1 = 4 live contributors, so redistribution can refill
  // the slots without any reconstruction.
  Cluster& cluster = plane.shard(0);
  for (std::uint32_t id : {2u, 5u}) {
    cluster.host(id).Shutdown();
    cluster.net().SetOffline(id, true);
  }

  AutoscalerConfig acfg;
  acfg.min_n = 4;
  acfg.max_n = 16;
  acfg.cooldown_ticks = 2;
  ElasticAutoscaler scaler(acfg);

  const obs::Snapshot snap = obs::TakeSnapshot();
  const AutoscaleReport rep = RunAutoscaler(plane, scaler, /*tick=*/7);
  const obs::Snapshot delta = obs::Delta(snap, obs::TakeSnapshot());

  EXPECT_EQ(rep.reprovisions, 1u);
  EXPECT_EQ(plane.shard_params(0).n, 8u);  // degenerate: same shape
  EXPECT_EQ(plane.route_epoch(), 2u);      // still a routed migration

  // Redistribution-as-recovery: the dead slots are live again and NO
  // reconstruction traffic was spent reviving them.
  for (std::uint32_t id : {2u, 5u}) {
    EXPECT_TRUE(cluster.host(id).online());
    EXPECT_FALSE(cluster.net().IsOffline(id));
  }
  EXPECT_EQ(obs::Value(delta, std::string("net.bytes_sent.") +
                                  net::MsgTypeName(
                                      net::MsgType::kReconstructRequest)),
            0u);
  EXPECT_EQ(obs::Value(delta, std::string("net.bytes_sent.") +
                                  net::MsgTypeName(net::MsgType::kMaskedShare)),
            0u);
  EXPECT_EQ(obs::Value(delta, "elastic.reprovisions"), 1u);
  EXPECT_EQ(obs::Value(delta, "reshare.migrations"), 1u);

  for (const auto& [id, data] : reference) {
    ASSERT_EQ(plane.Submit(session, ServingOp::kDownload, id).status,
              ServingStatus::kOk);
    plane.Drain();
    auto done = plane.TakeCompletions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].payload, data) << "file " << id;
  }

  // Within cooldown the shard holds no matter what the signals say.
  EXPECT_EQ(RunAutoscaler(plane, scaler, /*tick=*/8).holds, 1u);

  // After cooldown an idle 8-slot fleet WANTS to shrink toward min_n = 4,
  // but n = 4 has no valid threshold for l = 2, r = 2 -- the infeasible
  // shrink is refused (held), never applied as an invalid group.
  const AutoscaleReport later = RunAutoscaler(plane, scaler, /*tick=*/9);
  EXPECT_EQ(later.shrinks, 0u);
  EXPECT_EQ(later.holds, 1u);
  EXPECT_EQ(plane.shard_params(0).n, 8u);
  EXPECT_EQ(plane.route_epoch(), 2u);
  EXPECT_TRUE(plane.shard_params(0).IsValid());
}

}  // namespace
}  // namespace pisces
