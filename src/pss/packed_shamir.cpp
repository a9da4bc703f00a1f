#include "pss/packed_shamir.h"

#include "common/task_pool.h"
#include "math/berlekamp_welch.h"
#include "math/weight_cache.h"

namespace pisces::pss {

PackedShamir::PackedShamir(std::shared_ptr<const FpCtx> ctx, Params params)
    : ctx_(std::move(ctx)),
      params_(params),
      points_(*ctx_, params.n, params.l) {
  params_.Validate();
}

std::vector<FpElem> PackedShamir::ShareBlock(std::span<const FpElem> secrets,
                                             Rng& rng) const {
  const std::vector<FpElem> block(secrets.begin(), secrets.end());
  return ShareBlocks({&block, 1}, rng).front();
}

std::vector<std::vector<FpElem>> PackedShamir::ShareBlocks(
    std::span<const std::vector<FpElem>> blocks, Rng& rng,
    std::uint64_t* extra_cpu_ns) const {
  const std::size_t l = params_.l;
  const std::size_t d = params_.degree();
  for (const auto& block : blocks) {
    Require(block.size() == l, "ShareBlocks: need exactly l secrets");
  }
  // su[b] = [s_b ; u_b]: the block's secrets, then its d - l + 1 mask
  // coefficients. The masks are drawn serially in block order, exactly as
  // Poly::Random(d - l) per block would, which is what keeps multi-threaded
  // runs bit-identical to serial ones.
  std::vector<std::vector<FpElem>> su(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    su[b].reserve(d + 1);
    su[b].assign(blocks[b].begin(), blocks[b].end());
    for (std::size_t k = l; k <= d; ++k) su[b].push_back(ctx_->Random(rng));
  }
  std::vector<std::vector<FpElem>> out(
      blocks.size(), std::vector<FpElem>(params_.n, ctx_->Zero()));
  // Party i's share is row i of the cached generator applied to [s ; u]:
  // one DotI64 (or Dot, in the field form) per share, no per-block
  // interpolation or inversion.
  auto gen = math::CachedSharingGenerator(*ctx_, points_.alphas(),
                                          points_.betas(), d);
  GlobalPool().ParallelFor(
      0, blocks.size(),
      [&](std::size_t b) {
        for (std::size_t i = 0; i < params_.n; ++i) {
          out[b][i] = gen->Eval(*ctx_, i, su[b]);
        }
      },
      extra_cpu_ns);
  return out;
}

std::vector<FpElem> PackedShamir::ReconstructBlock(
    std::span<const std::uint32_t> parties,
    std::span<const FpElem> shares) const {
  const std::vector<FpElem> block(shares.begin(), shares.end());
  return ReconstructBlocks(parties, {&block, 1}).front();
}

bool PackedShamir::ConsistentShares(std::span<const std::uint32_t> parties,
                                    std::span<const FpElem> shares) const {
  std::vector<FpElem> xs = points_.AlphasOf(parties);
  return math::PointsOnLowDegree(*ctx_, xs, shares, params_.degree());
}

std::optional<std::vector<FpElem>> PackedShamir::RobustReconstructBlock(
    std::span<const std::uint32_t> parties, std::span<const FpElem> shares,
    std::vector<std::size_t>* corrupted) const {
  Require(parties.size() == shares.size(),
          "RobustReconstructBlock: size mismatch");
  const std::size_t d = params_.degree();
  if (parties.size() < d + 1) return std::nullopt;
  std::vector<FpElem> xs = points_.AlphasOf(parties);
  const std::size_t max_errors = (parties.size() - d - 1) / 2;
  auto f = math::RobustInterpolate(*ctx_, xs, shares, d, max_errors);
  if (!f) return std::nullopt;
  if (corrupted != nullptr) *corrupted = math::Mismatches(*ctx_, *f, xs, shares);
  std::vector<FpElem> secrets;
  secrets.reserve(params_.l);
  for (std::size_t j = 0; j < params_.l; ++j) {
    secrets.push_back(f->Eval(*ctx_, points_.beta(j)));
  }
  return secrets;
}

std::shared_ptr<const math::WeightRows> PackedShamir::ReconstructionWeights(
    std::span<const std::uint32_t> parties) const {
  Require(parties.size() >= params_.degree() + 1,
          "ReconstructionWeights: not enough parties");
  std::vector<FpElem> xs = points_.AlphasOf(parties);
  std::span<const FpElem> xs_used(xs.data(), params_.degree() + 1);
  return math::CachedLagrangeWeights(*ctx_, xs_used, points_.betas());
}

std::vector<std::vector<FpElem>> PackedShamir::ReconstructBlocks(
    std::span<const std::uint32_t> parties,
    std::span<const std::vector<FpElem>> shares_by_block,
    std::uint64_t* extra_cpu_ns) const {
  auto weights = ReconstructionWeights(parties);
  for (const auto& shares : shares_by_block) {
    Require(shares.size() == parties.size(),
            "ReconstructBlocks: size mismatch");
  }
  std::vector<std::vector<FpElem>> out(
      shares_by_block.size(), std::vector<FpElem>(params_.l, ctx_->Zero()));
  GlobalPool().ParallelFor(
      0, shares_by_block.size(),
      [&](std::size_t b) {
        for (std::size_t j = 0; j < params_.l; ++j) {
          out[b][j] = weights->Eval(*ctx_, j, shares_by_block[b]);
        }
      },
      extra_cpu_ns);
  return out;
}

std::vector<FpElem> PackedShamir::ReconstructRows(
    std::span<const std::uint32_t> parties,
    std::span<const std::vector<FpElem>* const> rows, std::size_t blocks,
    std::uint64_t* extra_cpu_ns) const {
  auto weights = ReconstructionWeights(parties);
  const std::size_t m = params_.degree() + 1, l = params_.l;
  Require(rows.size() >= m, "ReconstructRows: not enough rows");
  for (std::size_t k = 0; k < m; ++k) {
    Require(rows[k]->size() >= blocks, "ReconstructRows: short row");
  }
  std::vector<FpElem> out(blocks * l);
  GlobalPool().ParallelChunks(
      0, blocks,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<FpElem> ys(m);
        for (std::size_t b = lo; b < hi; ++b) {
          for (std::size_t k = 0; k < m; ++k) ys[k] = (*rows[k])[b];
          for (std::size_t j = 0; j < l; ++j) {
            out[b * l + j] = weights->Eval(*ctx_, j, ys);
          }
        }
      },
      extra_cpu_ns);
  return out;
}

}  // namespace pisces::pss
