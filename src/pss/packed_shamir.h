// Packed Shamir secret sharing (Franklin-Yung [22] in the paper).
//
// A block of l secrets (s_1..s_l) is shared with one random polynomial f of
// degree <= d = t + l satisfying f(beta_j) = s_j; party i's share is
// f(alpha_i). Privacy holds against any t shares; any d+1 shares reconstruct.
#pragma once

#include <memory>
#include <optional>

#include "common/rng.h"
#include "math/poly.h"
#include "math/weight_cache.h"
#include "pss/params.h"

namespace pisces::pss {

using field::FpCtx;
using field::FpElem;

class PackedShamir {
 public:
  PackedShamir(std::shared_ptr<const FpCtx> ctx, Params params);

  const FpCtx& ctx() const { return *ctx_; }
  const Params& params() const { return params_; }
  const EvalPoints& points() const { return points_; }

  // Shares one block; secrets.size() must be exactly l. Returns n shares,
  // indexed by party: ShareBlocks on a single block, kept for the scalar
  // call sites.
  std::vector<FpElem> ShareBlock(std::span<const FpElem> secrets,
                                 Rng& rng) const;

  // Shares many blocks at once, on element encodings (elem_bytes() little-
  // endian bytes each, the wire and storage encoding): `secrets` holds
  // blocks * l elements below p, block b's at [b*l, b*l + l), and party i's
  // share of block b is written to out[i] + b * elem_bytes(). Randomness is
  // drawn serially in block order (so the result is bit-identical to
  // calling ShareBlock per block with the same rng), then the share
  // evaluation -- one row of the process-wide cached generator
  // (math::CachedSharingGenerator) per share -- fans out over the global
  // task pool, each block writing its own slice of every party's buffer.
  // extra_cpu_ns accumulates pool-worker CPU (see common/task_pool.h).
  void ShareBlocks(std::span<const std::uint8_t> secrets, Rng& rng,
                   std::span<std::uint8_t* const> out,
                   std::uint64_t* extra_cpu_ns = nullptr) const;
  // The same over elements: out[b][i] is party i's share of block b.
  std::vector<std::vector<FpElem>> ShareBlocks(
      std::span<const std::vector<FpElem>> blocks, Rng& rng,
      std::uint64_t* extra_cpu_ns = nullptr) const;

  // Reconstructs the l secrets of one block from shares held by `parties`
  // (at least d+1 of them; the first d+1 are used): ReconstructBlocks on a
  // single block.
  std::vector<FpElem> ReconstructBlock(std::span<const std::uint32_t> parties,
                                       std::span<const FpElem> shares) const;

  // Reconstructs many blocks against one responder set: out[b] is the secret
  // block recovered from shares_by_block[b] (aligned with `parties`). The
  // Lagrange weights are computed once (memoized across calls, see
  // ReconstructionWeights) and the per-block weighted sums fan out over the
  // global task pool.
  std::vector<std::vector<FpElem>> ReconstructBlocks(
      std::span<const std::uint32_t> parties,
      std::span<const std::vector<FpElem>> shares_by_block,
      std::uint64_t* extra_cpu_ns = nullptr) const;

  // The same over shares laid out by party, on element encodings:
  // rows[k] points at parties[k]'s shares of blocks 0..blocks-1, elem_bytes()
  // each and below p. The l secrets of every block are written back to back
  // to `out` (blocks * l * elem_bytes() bytes); blocks fan out over the
  // global task pool, each writing its own slice.
  void ReconstructRows(std::span<const std::uint32_t> parties,
                       std::span<const std::uint8_t* const> rows,
                       std::size_t blocks, std::uint8_t* out,
                       std::uint64_t* extra_cpu_ns = nullptr) const;

  // Reconstruction tolerating corrupted share values (Berlekamp-Welch):
  // succeeds when at most floor((parties.size() - d - 1) / 2) shares are
  // wrong -- with the paper's 3t + l < n this covers t actively corrupted
  // responders when all n respond. nullopt when decoding fails. When
  // `corrupted` is non-null it receives the indices into `parties` whose
  // shares disagreed with the decoded polynomial (empty on clean input).
  std::optional<std::vector<FpElem>> RobustReconstructBlock(
      std::span<const std::uint32_t> parties, std::span<const FpElem> shares,
      std::vector<std::size_t>* corrupted = nullptr) const;

  // Precomputed reconstruction rows: row j maps the first d+1 parties'
  // shares to secret j. Memoized process-wide per responder set
  // (math/weight_cache.h), so reconstructing many blocks -- or many files --
  // against the same responders pays the O(d^2) Lagrange work once.
  std::shared_ptr<const math::WeightRows> ReconstructionWeights(
      std::span<const std::uint32_t> parties) const;

 private:
  std::shared_ptr<const FpCtx> ctx_;
  Params params_;
  EvalPoints points_;
};

}  // namespace pisces::pss
