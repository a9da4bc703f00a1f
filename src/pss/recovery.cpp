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
                           const RecoveryPlan& plan, std::uint32_t target) {
  const Params& p = shamir.params();
  std::vector<std::uint64_t> vanish{shamir.points().alpha_node(target)};
  return VssBatch(shamir.ctx(), shamir.points(), plan.survivors,
                  std::move(vanish), p.degree(), p.check_rows(), plan.groups,
                  /*recovery=*/true);
}

void ReferenceRecover(const PackedShamir& shamir,
                      std::vector<std::vector<FpElem>>& shares_by_party,
                      std::span<const std::uint32_t> rebooting, Rng& rng) {
  const Params& p = shamir.params();
  const FpCtx& ctx = shamir.ctx();
  Require(shares_by_party.size() == p.n, "ReferenceRecover: wrong party count");
  const std::size_t blocks = shares_by_party[0].size();
  RecoveryPlan plan = RecoveryPlan::For(blocks, p, rebooting);
  const std::size_t ns = plan.survivors.size();

  for (std::uint32_t target : rebooting) {
    VssBatch batch = MakeRecoveryBatch(shamir, plan, target);

    // Survivors deal masks and transform: randomness first (serial, RNG
    // order fixed), then per-dealer and per-holder fan-out on the task pool.
    std::vector<std::vector<math::Poly>> us_by_dealer;
    us_by_dealer.reserve(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      us_by_dealer.push_back(batch.DrawDealRandomness(rng));
    }
    std::vector<std::vector<std::vector<FpElem>>> deals(ns);
    GlobalPool().ParallelFor(0, ns, [&](std::size_t i) {
      deals[i] = batch.DealFrom(us_by_dealer[i]);
    });
    std::vector<std::vector<std::vector<FpElem>>> outputs(ns);
    GlobalPool().ParallelFor(0, ns, [&](std::size_t k) {
      std::vector<std::vector<FpElem>> col(ns);
      for (std::size_t i = 0; i < ns; ++i) col[i] = deals[i][k];
      outputs[k] = batch.Transform(col, p.b);
    });

    // Verify check rows (independent; failures rethrow on this thread).
    GlobalPool().ParallelFor(0, batch.check_rows(), [&](std::size_t a) {
      for (std::size_t g = 0; g < batch.groups(); ++g) {
        std::vector<FpElem> values(ns, ctx.Zero());
        for (std::size_t k = 0; k < ns; ++k) values[k] = outputs[k][a][g];
        Invariant(batch.VerifyCheckVector(values),
                  "ReferenceRecover: check row failed");
      }
    });

    // Survivors send masked shares; target interpolates at alpha_target.
    std::vector<FpElem> xs;
    xs.reserve(ns);
    for (std::uint32_t s : plan.survivors) xs.push_back(shamir.points().alpha(s));
    const std::size_t m = p.degree() + 1;
    const FpElem target_alpha = shamir.points().alpha(target);
    auto w = math::CachedLagrangeWeights(
        ctx, std::span<const FpElem>(xs.data(), m),
        std::span<const FpElem>(&target_alpha, 1));

    std::vector<FpElem>& target_shares = shares_by_party[target];
    target_shares.assign(blocks, ctx.Zero());
    // Each block interpolates independently and writes only its own slot.
    GlobalPool().ParallelFor(0, blocks, [&](std::size_t blk) {
      std::size_t g = blk / plan.usable;
      std::size_t a = batch.check_rows() + (blk % plan.usable);
      // masked[k] = f_blk(alpha_k) + q_blk(alpha_k).
      std::vector<FpElem> masked(m);
      for (std::size_t k = 0; k < m; ++k) {
        masked[k] = ctx.Add(shares_by_party[plan.survivors[k]][blk],
                            outputs[k][a][g]);
      }
      // q_blk(alpha_target) == 0, so this is f_blk(alpha_target).
      target_shares[blk] = w->Eval(ctx, 0, masked);
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
  RecoveryPlan plan = RecoveryPlan::For(blocks, p, rebooting);
  const std::size_t ns = plan.survivors.size();

  std::vector<std::uint32_t> accused;
  for (std::uint32_t target : rebooting) {
    VssBatch batch = MakeRecoveryBatch(shamir, plan, target);

    // Mask generation is honest here (dealer-side attacks are refresh.h's
    // ReferenceRefreshDetect); the attack is wrong MASKED shares in flight.
    std::vector<std::vector<math::Poly>> us_by_dealer;
    us_by_dealer.reserve(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      us_by_dealer.push_back(batch.DrawDealRandomness(rng));
    }
    std::vector<std::vector<std::vector<FpElem>>> deals(ns);
    GlobalPool().ParallelFor(0, ns, [&](std::size_t i) {
      deals[i] = batch.DealFrom(us_by_dealer[i]);
    });
    std::vector<std::vector<std::vector<FpElem>>> outputs(ns);
    GlobalPool().ParallelFor(0, ns, [&](std::size_t k) {
      std::vector<std::vector<FpElem>> col(ns);
      for (std::size_t i = 0; i < ns; ++i) col[i] = deals[i][k];
      outputs[k] = batch.Transform(col, p.b);
    });
    GlobalPool().ParallelFor(0, batch.check_rows(), [&](std::size_t a) {
      for (std::size_t g = 0; g < batch.groups(); ++g) {
        std::vector<FpElem> values(ns, ctx.Zero());
        for (std::size_t k = 0; k < ns; ++k) values[k] = outputs[k][a][g];
        Invariant(batch.VerifyCheckVector(values),
                  "ReferenceRecoverRobust: check row failed");
      }
    });

    // Every survivor mails masked[k] = f_blk(alpha_k) + q_blk(alpha_k);
    // liars add their own (nonzero) alpha as a deterministic offset.
    std::vector<FpElem> xs;
    xs.reserve(ns);
    for (std::uint32_t s : plan.survivors) {
      xs.push_back(shamir.points().alpha(s));
    }
    const FpElem target_alpha = shamir.points().alpha(target);
    const std::size_t max_errors = ns > p.degree() + 1
                                       ? (ns - p.degree() - 1) / 2
                                       : 0;
    Require(liars.size() <= max_errors,
            "ReferenceRecoverRobust: liars exceed the decoding radius");

    std::vector<FpElem>& target_shares = shares_by_party[target];
    target_shares.assign(blocks, ctx.Zero());
    std::set<std::uint32_t> accused_here;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      std::size_t g = blk / plan.usable;
      std::size_t a = batch.check_rows() + (blk % plan.usable);
      std::vector<FpElem> ys(ns, ctx.Zero());
      for (std::size_t k = 0; k < ns; ++k) {
        std::uint32_t s = plan.survivors[k];
        FpElem masked = ctx.Add(shares_by_party[s][blk], outputs[k][a][g]);
        if (std::find(liars.begin(), liars.end(), s) != liars.end()) {
          masked = ctx.Add(masked, xs[k]);
        }
        ys[k] = masked;
      }
      auto f = math::RobustInterpolate(ctx, xs, ys, p.degree(), max_errors);
      Invariant(f.has_value(), "ReferenceRecoverRobust: decode failed");
      for (std::size_t bad : math::Mismatches(ctx, *f, xs, ys)) {
        accused_here.insert(plan.survivors[bad]);
      }
      target_shares[blk] = f->Eval(ctx, target_alpha);
    }
    for (std::uint32_t s : accused_here) {
      if (std::find(accused.begin(), accused.end(), s) == accused.end()) {
        accused.push_back(s);
      }
    }
  }
  std::sort(accused.begin(), accused.end());
  return accused;
}

}  // namespace pisces::pss
