#include "pss/packed_shamir.h"

#include <algorithm>

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

void PackedShamir::ShareBlocks(std::span<const std::uint8_t> secrets, Rng& rng,
                               std::span<std::uint8_t* const> out,
                               std::uint64_t* extra_cpu_ns) const {
  const std::size_t l = params_.l;
  const std::size_t d = params_.degree();
  const std::size_t masks = d + 1 - l;
  const std::size_t eb = ctx_->elem_bytes();
  Require(secrets.size() % (l * eb) == 0,
          "ShareBlocks: need exactly l secrets per block");
  Require(out.size() == params_.n, "ShareBlocks: one output per party");
  const std::size_t blocks = secrets.size() / (l * eb);
  // Each block's d - l + 1 mask coefficients, drawn serially in block order
  // exactly as Poly::Random(d - l) per block would, which is what keeps
  // multi-threaded runs bit-identical to serial ones.
  Bytes mask(blocks * masks * eb);
  for (std::size_t e = 0; e < blocks * masks; ++e) {
    ctx_->RandomInto(rng, mask.data() + e * eb);
  }
  // Party i's share is row i of the cached generator applied to [s ; u]:
  // one DotI64Into per block (or one Dot per share, in the field form),
  // no per-block interpolation or inversion.
  auto gen = math::CachedSharingGenerator(*ctx_, points_.alphas(),
                                          points_.betas(), d);
  GlobalPool().ParallelChunks(
      0, blocks,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<const std::uint8_t*> su(d + 1);
        std::vector<std::uint8_t*> dst(params_.n);
        for (std::size_t b = lo; b < hi; ++b) {
          for (std::size_t j = 0; j < l; ++j) {
            su[j] = secrets.data() + (b * l + j) * eb;
          }
          for (std::size_t u = 0; u < masks; ++u) {
            su[l + u] = mask.data() + (b * masks + u) * eb;
          }
          for (std::size_t i = 0; i < params_.n; ++i) dst[i] = out[i] + b * eb;
          gen->EvalInto(*ctx_, su, dst);
        }
      },
      extra_cpu_ns);
}

std::vector<std::vector<FpElem>> PackedShamir::ShareBlocks(
    std::span<const std::vector<FpElem>> blocks, Rng& rng,
    std::uint64_t* extra_cpu_ns) const {
  const std::size_t n = params_.n;
  Bytes secrets;
  for (const auto& block : blocks) {
    Require(block.size() == params_.l, "ShareBlocks: need exactly l secrets");
    const Bytes enc = field::SerializeElems(*ctx_, block);
    secrets.insert(secrets.end(), enc.begin(), enc.end());
  }
  std::vector<Bytes> rows(n, Bytes(blocks.size() * ctx_->elem_bytes()));
  std::vector<std::uint8_t*> out;
  for (Bytes& row : rows) out.push_back(row.data());
  ShareBlocks(secrets, rng, out, extra_cpu_ns);
  std::vector<std::vector<FpElem>> by_block(blocks.size(),
                                            std::vector<FpElem>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<FpElem> shares = field::DeserializeElems(*ctx_, rows[i]);
    for (std::size_t b = 0; b < blocks.size(); ++b) by_block[b][i] = shares[b];
  }
  return by_block;
}

std::vector<FpElem> PackedShamir::ReconstructBlock(
    std::span<const std::uint32_t> parties,
    std::span<const FpElem> shares) const {
  const std::vector<FpElem> block(shares.begin(), shares.end());
  return ReconstructBlocks(parties, {&block, 1}).front();
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
  for (const auto& shares : shares_by_block) {
    Require(shares.size() == parties.size(),
            "ReconstructBlocks: size mismatch");
  }
  // Lay the shares out by party, encoded: row k holds parties[k]'s share of
  // every block.
  const std::size_t m = std::min(parties.size(), params_.degree() + 1);
  const std::size_t blocks = shares_by_block.size();
  const std::size_t eb = ctx_->elem_bytes();
  std::vector<Bytes> rows(m, Bytes(blocks * eb));
  std::vector<const std::uint8_t*> row_ptrs;
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t b = 0; b < blocks; ++b) {
      ctx_->ToBytes(shares_by_block[b][k], rows[k].data() + b * eb);
    }
    row_ptrs.push_back(rows[k].data());
  }
  Bytes encoded(blocks * params_.l * eb);
  ReconstructRows(parties, row_ptrs, blocks, encoded.data(), extra_cpu_ns);
  const std::vector<FpElem> secrets = field::DeserializeElems(*ctx_, encoded);
  std::vector<std::vector<FpElem>> out;
  out.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    out.emplace_back(secrets.begin() + b * params_.l,
                     secrets.begin() + (b + 1) * params_.l);
  }
  return out;
}

void PackedShamir::ReconstructRows(std::span<const std::uint32_t> parties,
                                   std::span<const std::uint8_t* const> rows,
                                   std::size_t blocks, std::uint8_t* out,
                                   std::uint64_t* extra_cpu_ns) const {
  auto weights = ReconstructionWeights(parties);
  const std::size_t m = params_.degree() + 1, l = params_.l;
  const std::size_t eb = ctx_->elem_bytes();
  Require(rows.size() >= m, "ReconstructRows: not enough rows");
  GlobalPool().ParallelChunks(
      0, blocks,
      [&](std::size_t lo, std::size_t hi) {
        std::vector<const std::uint8_t*> ys(m);
        std::vector<std::uint8_t*> dst(l);
        for (std::size_t b = lo; b < hi; ++b) {
          for (std::size_t k = 0; k < m; ++k) ys[k] = rows[k] + b * eb;
          for (std::size_t j = 0; j < l; ++j) dst[j] = out + (b * l + j) * eb;
          weights->EvalInto(*ctx_, ys, dst);
        }
      },
      extra_cpu_ns);
}

}  // namespace pisces::pss
