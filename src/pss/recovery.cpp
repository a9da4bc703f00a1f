#include "pss/recovery.h"

#include <algorithm>
#include <set>

#include "common/task_pool.h"
#include "math/berlekamp_welch.h"
#include "math/weight_cache.h"

namespace pisces::pss {

RecoveryPlan RecoveryPlan::For(std::size_t blocks, const Params& p,
                               std::span<const std::uint32_t> rebooting) {
  std::vector<std::uint32_t> all(p.n);
  for (std::uint32_t i = 0; i < p.n; ++i) all[i] = i;
  return For(blocks, p, rebooting, all);
}

RecoveryPlan RecoveryPlan::For(std::size_t blocks, const Params& p,
                               std::span<const std::uint32_t> rebooting,
                               std::span<const std::uint32_t> available) {
  Require(!rebooting.empty(), "RecoveryPlan: nothing to recover");
  Require(rebooting.size() <= p.r,
          "RecoveryPlan: reboot batch exceeds configured r");
  RecoveryPlan plan;
  plan.blocks = blocks;
  plan.targets.assign(rebooting.begin(), rebooting.end());
  Require(std::set(rebooting.begin(), rebooting.end()).size() ==
              rebooting.size(), "RecoveryPlan: duplicate target");
  for (std::uint32_t i : available) {
    Require(i < p.n, "RecoveryPlan: available host out of range");
    if (std::find(rebooting.begin(), rebooting.end(), i) == rebooting.end()) {
      plan.survivors.push_back(i);
    }
  }
  std::sort(plan.survivors.begin(), plan.survivors.end());
  Require(plan.survivors.size() > p.check_rows(),
          "RecoveryPlan: not enough survivors for verification");
  Require(plan.survivors.size() >= p.degree() + 1,
          "RecoveryPlan: not enough survivors to interpolate");
  plan.usable = plan.survivors.size() - p.check_rows();
  plan.groups = GroupsFor(std::max<std::size_t>(blocks, 1), plan.usable);
  return plan;
}

VssBatch MakeRecoveryBatch(const PackedShamir& shamir,
                           const RecoveryPlan& plan) {
  const Params& p = shamir.params();
  std::vector<std::vector<std::uint64_t>> segments;
  for (std::uint32_t target : plan.targets) {
    segments.push_back({shamir.points().alpha_node(target)});
  }
  return VssBatch(shamir.ctx(), shamir.points(), plan.survivors,
                  std::move(segments), p.degree(), p.check_rows(), plan.groups,
                  /*recovery=*/true);
}

namespace {

// One recovery VSS run as the survivors run it: randomness first (serial,
// RNG order fixed), then per-dealer and per-holder fan-out on the task pool,
// then every check row of every group verified. Returns outputs[k][a],
// survivor k's transform output row a (element g: group g).
std::vector<std::vector<Bytes>> RunMaskBatch(
    const PackedShamir& shamir, const VssBatch& batch, Rng& rng) {
  const std::size_t ns = batch.dealers();
  std::vector<std::vector<math::Poly>> us_by_dealer;
  us_by_dealer.reserve(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    us_by_dealer.push_back(batch.DrawDealRandomness(rng));
  }
  std::vector<std::vector<Bytes>> deals(ns);
  GlobalPool().ParallelFor(0, ns, [&](std::size_t i) {
    deals[i] = batch.DealFrom(us_by_dealer[i]);
  });
  std::vector<std::vector<Bytes>> outputs(ns);
  GlobalPool().ParallelFor(0, ns, [&](std::size_t k) {
    std::vector<Bytes> col(ns);
    for (std::size_t i = 0; i < ns; ++i) col[i] = deals[i][k];
    outputs[k] = batch.Transform(col, shamir.params().b);
  });
  // Verify check rows (independent; failures rethrow on this thread).
  GlobalPool().ParallelFor(0, batch.check_rows(), [&](std::size_t a) {
    std::vector<const std::uint8_t*> rows;
    for (const auto& out : outputs) rows.push_back(out[a].data());
    Invariant(batch.VerifyCheckRows(rows),
              "ReferenceRecover: check row failed");
  });
  return outputs;
}

}  // namespace

void ReferenceRecover(const PackedShamir& shamir,
                      std::vector<std::vector<FpElem>>& shares_by_party,
                      std::span<const std::uint32_t> rebooting, Rng& rng) {
  const Params& p = shamir.params();
  const FpCtx& ctx = shamir.ctx();
  Require(shares_by_party.size() == p.n, "ReferenceRecover: wrong party count");
  const std::size_t blocks = shares_by_party[0].size();
  const RecoveryPlan plan = RecoveryPlan::For(blocks, p, rebooting);
  const VssBatch batch = MakeRecoveryBatch(shamir, plan);
  const auto outputs = RunMaskBatch(shamir, batch, rng);

  // Survivors send masked shares; each target interpolates at its alpha.
  std::vector<FpElem> xs;
  xs.reserve(plan.survivors.size());
  for (std::uint32_t s : plan.survivors) xs.push_back(shamir.points().alpha(s));
  const std::size_t m = p.degree() + 1;
  for (std::size_t j = 0; j < plan.targets.size(); ++j) {
    const FpElem target_alpha = shamir.points().alpha(plan.targets[j]);
    auto w = math::CachedLagrangeWeights(
        ctx, std::span<const FpElem>(xs.data(), m),
        std::span<const FpElem>(&target_alpha, 1));
    std::vector<FpElem>& target_shares = shares_by_party[plan.targets[j]];
    target_shares.assign(blocks, ctx.Zero());
    // Each block interpolates independently and writes only its own slot.
    GlobalPool().ParallelFor(0, blocks, [&](std::size_t blk) {
      const std::size_t g = j * plan.groups + blk / plan.usable;
      const std::size_t a = batch.check_rows() + blk % plan.usable;
      // masked[k] = f_blk(alpha_k) + q_blk(alpha_k).
      const std::size_t eb = ctx.elem_bytes();
      Bytes masked((m + 1) * eb);
      std::vector<const std::uint8_t*> ys(m);
      for (std::size_t k = 0; k < m; ++k) {
        ctx.ToBytes(ctx.Add(shares_by_party[plan.survivors[k]][blk],
                            field::ElemAt(ctx, outputs[k][a], g)),
                    masked.data() + k * eb);
        ys[k] = masked.data() + k * eb;
      }
      // q_blk(alpha_target) == 0, so this is f_blk(alpha_target).
      std::uint8_t* const at = masked.data() + m * eb;
      w->EvalInto(ctx, ys, {&at, 1});
      target_shares[blk] = ctx.FromBytes({at, eb});
    });
  }
}

std::vector<std::uint32_t> ReferenceRecoverRobust(
    const PackedShamir& shamir,
    std::vector<std::vector<FpElem>>& shares_by_party,
    std::span<const std::uint32_t> rebooting, Rng& rng,
    std::span<const std::uint32_t> liars) {
  const Params& p = shamir.params();
  const FpCtx& ctx = shamir.ctx();
  Require(shares_by_party.size() == p.n,
          "ReferenceRecoverRobust: wrong party count");
  const std::size_t blocks = shares_by_party[0].size();
  const RecoveryPlan plan = RecoveryPlan::For(blocks, p, rebooting);
  const std::size_t ns = plan.survivors.size();
  const std::size_t max_errors =
      ns > p.degree() + 1 ? (ns - p.degree() - 1) / 2 : 0;
  Require(liars.size() <= max_errors,
          "ReferenceRecoverRobust: liars exceed the decoding radius");
  // Mask generation is honest here (dealer-side attacks are refresh.h's
  // ReferenceRefreshDetect); the attack is wrong MASKED shares in flight.
  const VssBatch batch = MakeRecoveryBatch(shamir, plan);
  const auto outputs = RunMaskBatch(shamir, batch, rng);

  std::vector<FpElem> xs;
  xs.reserve(ns);
  for (std::uint32_t s : plan.survivors) xs.push_back(shamir.points().alpha(s));
  std::set<std::uint32_t> accused;
  for (std::size_t j = 0; j < plan.targets.size(); ++j) {
    const FpElem target_alpha = shamir.points().alpha(plan.targets[j]);
    std::vector<FpElem>& target_shares = shares_by_party[plan.targets[j]];
    target_shares.assign(blocks, ctx.Zero());
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      const std::size_t g = j * plan.groups + blk / plan.usable;
      const std::size_t a = batch.check_rows() + blk % plan.usable;
      // Every survivor mails masked[k] = f_blk(alpha_k) + q_blk(alpha_k);
      // liars add their own (nonzero) alpha as a deterministic offset.
      std::vector<FpElem> ys(ns, ctx.Zero());
      for (std::size_t k = 0; k < ns; ++k) {
        const std::uint32_t s = plan.survivors[k];
        ys[k] = ctx.Add(shares_by_party[s][blk],
                        field::ElemAt(ctx, outputs[k][a], g));
        if (std::find(liars.begin(), liars.end(), s) != liars.end()) {
          ys[k] = ctx.Add(ys[k], xs[k]);
        }
      }
      auto f = math::RobustInterpolate(ctx, xs, ys, p.degree(), max_errors);
      Invariant(f.has_value(), "ReferenceRecoverRobust: decode failed");
      for (std::size_t bad : math::Mismatches(ctx, *f, xs, ys)) {
        accused.insert(plan.survivors[bad]);
      }
      target_shares[blk] = f->Eval(ctx, target_alpha);
    }
  }
  return {accused.begin(), accused.end()};
}

}  // namespace pisces::pss
