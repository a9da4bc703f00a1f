#include "pss/refresh.h"

#include "common/task_pool.h"

namespace pisces::pss {

RefreshPlan RefreshPlan::For(std::size_t blocks, const Params& p) {
  return For(blocks, p, p.n);
}

RefreshPlan RefreshPlan::For(std::size_t blocks, const Params& p,
                             std::size_t dealers) {
  Require(dealers > p.check_rows(),
          "RefreshPlan: need more than 2t dealers to refresh");
  Require(dealers <= p.n, "RefreshPlan: more dealers than parties");
  RefreshPlan plan;
  plan.blocks = blocks;
  plan.usable = p.UsableRows(dealers);
  plan.groups = GroupsFor(std::max<std::size_t>(blocks, 1), plan.usable);
  return plan;
}

VssBatch MakeRefreshBatch(const PackedShamir& shamir, std::size_t blocks) {
  const Params& p = shamir.params();
  std::vector<std::uint32_t> holders(p.n);
  for (std::size_t i = 0; i < p.n; ++i) holders[i] = static_cast<std::uint32_t>(i);
  return MakeRefreshBatch(shamir, blocks, holders);
}

VssBatch MakeRefreshBatch(const PackedShamir& shamir, std::size_t blocks,
                          std::span<const std::uint32_t> participants) {
  const Params& p = shamir.params();
  Require(!participants.empty(), "MakeRefreshBatch: empty participant set");
  for (std::uint32_t id : participants) {
    Require(id < p.n, "MakeRefreshBatch: participant out of range");
  }
  RefreshPlan plan = RefreshPlan::For(blocks, p, participants.size());
  std::vector<std::uint32_t> holders(participants.begin(), participants.end());
  std::vector<std::uint64_t> vanish(p.l);
  for (std::size_t j = 0; j < p.l; ++j) {
    vanish[j] = shamir.points().beta_node(j);
  }
  return VssBatch(shamir.ctx(), shamir.points(), std::move(holders),
                  {std::move(vanish)}, p.degree(), p.check_rows(), plan.groups);
}

void ReferenceRefresh(const PackedShamir& shamir,
                      std::vector<std::vector<FpElem>>& shares_by_party,
                      Rng& rng) {
  const Params& p = shamir.params();
  const FpCtx& ctx = shamir.ctx();
  Require(shares_by_party.size() == p.n, "ReferenceRefresh: wrong party count");
  const std::size_t blocks = shares_by_party[0].size();
  RefreshPlan plan = RefreshPlan::For(blocks, p);
  VssBatch batch = MakeRefreshBatch(shamir, blocks);

  // Phase 1: every party deals. deals[i][k] = dealer i's row for holder k
  // (element g: group g).
  // Randomness for ALL dealers is drawn serially first (RNG order is part of
  // the determinism contract); the pure-compute dealing evaluation then fans
  // out per dealer over the task pool.
  std::vector<std::vector<math::Poly>> us_by_dealer;
  us_by_dealer.reserve(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    us_by_dealer.push_back(batch.DrawDealRandomness(rng));
  }
  std::vector<std::vector<Bytes>> deals(p.n);
  GlobalPool().ParallelFor(0, p.n, [&](std::size_t i) {
    deals[i] = batch.DealFrom(us_by_dealer[i]);
  });

  // Phase 2: every holder transforms its received column (per-holder fan-out;
  // the per-call `workers` cap models the paper's b inside each host).
  // outputs[k][a] = holder k's output row a (element g: group g).
  std::vector<std::vector<Bytes>> outputs(p.n);
  GlobalPool().ParallelFor(0, p.n, [&](std::size_t k) {
    std::vector<Bytes> col(p.n);
    for (std::size_t i = 0; i < p.n; ++i) col[i] = deals[i][k];
    outputs[k] = batch.Transform(col, p.b);
  });

  // Phase 3: verify the first 2t rows across all holders (independent rows;
  // a failure throws and the pool rethrows it here).
  GlobalPool().ParallelFor(0, batch.check_rows(), [&](std::size_t a) {
    std::vector<const std::uint8_t*> rows;
    for (const auto& out : outputs) rows.push_back(out[a].data());
    Invariant(batch.VerifyCheckRows(rows),
              "ReferenceRefresh: check row failed");
  });

  // Phase 4: apply usable rows to blocks and discard old shares. Party k's
  // share vector is owned by iteration k.
  GlobalPool().ParallelFor(0, p.n, [&](std::size_t k) {
    for (std::size_t g = 0; g < batch.groups(); ++g) {
      for (std::size_t a_rel = 0; a_rel < batch.usable_rows(); ++a_rel) {
        auto blk = plan.BlockFor(a_rel, g);
        if (!blk) continue;
        std::size_t a = batch.check_rows() + a_rel;
        shares_by_party[k][*blk] = ctx.Add(
            shares_by_party[k][*blk], field::ElemAt(ctx, outputs[k][a], g));
      }
    }
  });
}

std::vector<std::uint32_t> ReferenceRefreshDetect(
    const PackedShamir& shamir,
    std::vector<std::vector<FpElem>>& shares_by_party, Rng& rng,
    std::uint32_t cheater, DealTamper& tamper) {
  const Params& p = shamir.params();
  const FpCtx& ctx = shamir.ctx();
  Require(shares_by_party.size() == p.n,
          "ReferenceRefreshDetect: wrong party count");
  Require(cheater < p.n, "ReferenceRefreshDetect: cheater out of range");
  const std::size_t blocks = shares_by_party[0].size();
  RefreshPlan plan = RefreshPlan::For(blocks, p);
  VssBatch batch = MakeRefreshBatch(shamir, blocks);

  // Phase 1 mirrors ReferenceRefresh, except the cheater's dealing passes
  // through the tamper hook after evaluation.
  std::vector<std::vector<math::Poly>> us_by_dealer;
  us_by_dealer.reserve(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    us_by_dealer.push_back(batch.DrawDealRandomness(rng));
  }
  std::vector<std::vector<Bytes>> deals(p.n);
  GlobalPool().ParallelFor(0, p.n, [&](std::size_t i) {
    deals[i] = batch.DealFrom(us_by_dealer[i], nullptr,
                              i == cheater ? &tamper : nullptr);
  });

  // Phase 2: holder transforms.
  std::vector<std::vector<Bytes>> outputs(p.n);
  GlobalPool().ParallelFor(0, p.n, [&](std::size_t k) {
    std::vector<Bytes> col(p.n);
    for (std::size_t i = 0; i < p.n; ++i) col[i] = deals[i][k];
    outputs[k] = batch.Transform(col, p.b);
  });

  // Phase 3: open the check rows. Any tampered dealing perturbs every output
  // row of its group (the hyperinvertible matrix mixes all dealer inputs into
  // each output), so a check row fails with overwhelming probability.
  bool check_failed = false;
  for (std::size_t a = 0; a < batch.check_rows() && !check_failed; ++a) {
    std::vector<const std::uint8_t*> rows;
    for (const auto& out : outputs) rows.push_back(out[a].data());
    check_failed = !batch.VerifyCheckRows(rows);
  }

  if (!check_failed) {
    // Clean round: apply as usual.
    GlobalPool().ParallelFor(0, p.n, [&](std::size_t k) {
      for (std::size_t g = 0; g < batch.groups(); ++g) {
        for (std::size_t a_rel = 0; a_rel < batch.usable_rows(); ++a_rel) {
          auto blk = plan.BlockFor(a_rel, g);
          if (!blk) continue;
          std::size_t a = batch.check_rows() + a_rel;
          shares_by_party[k][*blk] =
              ctx.Add(shares_by_party[k][*blk],
                      field::ElemAt(ctx, outputs[k][a], g));
        }
      }
    });
    return {};
  }

  // Attribution: each dealer's dealing is itself a claimed degree-<=d
  // polynomial vanishing on the betas, evaluated at every holder point -- the
  // exact vector shape VerifyCheckVector validates. An equivocating dealer
  // has no single polynomial consistent with all receivers (degree check
  // fails w.h.p.); a degree/vanishing violator fails directly. Honest
  // dealings always pass, so exactly the cheaters are attributed.
  std::vector<std::uint32_t> attributed;
  for (std::size_t i = 0; i < p.n; ++i) {
    std::vector<const std::uint8_t*> rows;
    for (const Bytes& row : deals[i]) rows.push_back(row.data());
    if (!batch.VerifyCheckRows(rows)) {
      attributed.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return attributed;
}

}  // namespace pisces::pss
