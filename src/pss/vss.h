// Verifiable batch generation of random vanishing sharings via
// hyperinvertible matrices (the VSS technique of [16], [15] as used by the
// paper's underlying PSS scheme [7]).
//
// One batch run among `dealers` live parties:
//   1. every dealer samples G random degree-<=d polynomials that vanish on a
//      designated point set V and sends each holder its evaluations (Deal);
//   2. every holder applies a hyperinvertible matrix M across the dealer
//      dimension, producing `dealers` output sharings per group (M is the
//      Lagrange map between integer nodes, applied by finite differences);
//   3. the first 2t output rows are opened toward verifier parties, who check
//      degree <= d and vanishing on V (Check/Verdict);
//   4. the remaining dealers-2t rows are guaranteed uniformly random
//      vanishing sharings even against t corrupt dealers.
//
// With V = {beta_1..beta_l} the usable outputs are zero-sharings for refresh;
// with V = {alpha_rho} they are recovery masks for rebooted host rho; one
// recovery batch holds a segment of groups per target, each with its own V.
// The functions here are pure compute; pisces::Host wires them to messages.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "math/poly.h"
#include "math/weight_cache.h"
#include "pss/params.h"
#include "pss/tamper.h"

namespace pisces::pss {

using field::FpCtx;
using field::FpElem;

// Static description of one batch run, shared by all participants.
class VssBatch {
 public:
  // `holders` are the live parties (dealer set == holder set), in a globally
  // agreed order. `segments[s]` is the V of segment s, by its integer nodes
  // (EvalPoints' alpha_node/beta_node); group g belongs to segment
  // g / segment_groups. `degree` is d. `ctx` must outlive the batch.
  // `recovery` marks recovery-mask batches (set by MakeRecoveryBatch); it
  // cannot be inferred from the vanishing sets -- a refresh batch at packing
  // l = 1 also vanishes on a single point. Requires 2 * dealers < p, so that
  // the 2 * dealers nodes of M are distinct field elements.
  VssBatch(const FpCtx& ctx, const EvalPoints& points,
           std::vector<std::uint32_t> holders,
           std::vector<std::vector<std::uint64_t>> segments,
           std::size_t degree, std::size_t check_rows,
           std::size_t segment_groups, bool recovery = false);

  const FpCtx& ctx() const { return *ctx_; }
  std::size_t dealers() const { return holders_.size(); }
  std::size_t groups() const { return segments_.size() * segment_groups_; }
  std::size_t segment_groups() const { return segment_groups_; }
  std::size_t check_rows() const { return check_rows_; }
  std::size_t usable_rows() const { return holders_.size() - check_rows_; }
  std::size_t degree() const { return degree_; }
  const std::vector<std::uint32_t>& holders() const { return holders_; }
  // Position of a party in the holder order, or npos.
  std::size_t IndexOf(std::uint32_t party) const;

  // Rows are element encodings: groups() elements of ctx().elem_bytes()
  // each, element g at g * elem_bytes() -- the payloads of the Deal and
  // CheckShare messages as they go on the wire.

  // --- dealer side ---
  // Samples a vanishing polynomial per group, evaluated for every holder:
  // element g of row k is z_g(alpha of holders()[k]). Row k is the payload
  // of the Deal message to holder k. Randomness is drawn serially (RNG order
  // is part of the determinism contract); the evaluations fan out across the
  // global task pool. extra_cpu_ns accumulates pool-worker CPU time (the
  // caller's ambient CpuTimer cannot see it). `tamper`, when non-null, is
  // applied to the finished rows on the caller's thread (after the pool
  // fan-out) -- the active-adversary seam; see pss/tamper.h.
  std::vector<Bytes> Deal(Rng& rng, std::uint64_t* extra_cpu_ns = nullptr,
                          DealTamper* tamper = nullptr) const;

  // The two halves of Deal, separated so batch callers (refresh: one dealing
  // per live party) can draw every dealer's randomness serially and then
  // evaluate all dealings in parallel. us[g] is the uniform mask polynomial
  // of group g (segment-major: r one-segment batches draw the same back to
  // back); DealFrom is pure compute (apart from the optional tamper). It
  // evaluates z_g = u_g * V, V = prod_{v in V of g's segment} (x - v), at
  // each holder's integer node x over the integers: u_g(x) by Horner (a wide
  // accumulator times x plus a coefficient, one multiply-add row per step),
  // times |V(x)| as one word (or as word-sized factors once it outgrows
  // one), reduced once (FpCtx::ReduceWide) and negated when V(x) < 0; no
  // field multiplication.
  std::vector<math::Poly> DrawDealRandomness(Rng& rng) const;
  std::vector<Bytes> DealFrom(std::span<const math::Poly> us,
                              std::uint64_t* extra_cpu_ns = nullptr,
                              DealTamper* tamper = nullptr) const;

  // True for recovery-mask batches (V = {alpha_rho}), false for refresh
  // zero-sharing batches (V = betas). Forwarded to the tamper hook so
  // strategies can target one phase.
  bool recovery_shape() const { return recovery_; }

  // --- holder side ---
  // deals_by_dealer[i]: the row received from dealer i (order of
  // holders()), groups() elements below p (a receiver checks a payload
  // with field::ValidateElems before keeping it). Returns rows out[a],
  // a < dealers(), whose element g is sum_i M[a][i] * (element g of
  // deals_by_dealer[i]), M = math::HyperInvertible(dealers, dealers),
  // computed by finite differences on exact wide integers (carry chains
  // only, one FpCtx::ReduceWide per output). `workers` caps the group
  // fan-out (the paper's b); the chunks run on the global task pool. When
  // extra_cpu_ns is non-null it accumulates the CPU time consumed on pool
  // worker threads -- the caller's own chunk is visible to the caller's
  // thread-CPU clock and is not included.
  std::vector<Bytes> Transform(const std::vector<Bytes>& deals_by_dealer,
                               std::size_t workers = 1,
                               std::uint64_t* extra_cpu_ns = nullptr) const;

  // --- verifier side ---
  // values[k] points at holder k's evaluation of one check-row sharing of
  // `group` (element `group` of holder k's output row), an element encoding
  // below p. Checks degree <= d and vanishing on the V of the group's
  // segment.
  bool VerifyCheckVector(std::span<const std::uint8_t* const> values,
                         std::size_t group = 0) const;
  // rows[k] points at holder k's row of one output or dealing (groups()
  // element encodings below p, as a CheckShare or Deal payload): every
  // group's column passes VerifyCheckVector.
  bool VerifyCheckRows(std::span<const std::uint8_t* const> rows) const;

  // Verifier responsible for check row a (round-robin over holders).
  std::uint32_t VerifierOf(std::size_t check_row) const {
    return holders_[check_row % holders_.size()];
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  const FpCtx* ctx_;
  std::vector<std::uint32_t> holders_;
  std::vector<std::uint64_t> holder_nodes_;  // integer alphas, for Horner
  std::vector<std::vector<std::uint64_t>> segments_;  // each V, as nodes
  // Limbs beyond the modulus width that DealFrom's and Transform's exact
  // integer accumulators need, derived from the shape (see the constructor).
  std::size_t deal_extra_ = 1;
  std::size_t transform_extra_ = 1;
  std::size_t degree_;
  std::size_t check_rows_;
  std::size_t segment_groups_;
  bool recovery_ = false;
  // Verification rows over the first degree+1 holder points, cached across
  // batches keyed by the point sets (see math/weight_cache.h): one per extra
  // holder point (degree check) and, per segment, one per vanishing point
  // (zero check). Separate sets, so the degree checks keep the integer form
  // where the zero checks, which extrapolate to the betas, outgrow it.
  std::shared_ptr<const math::WeightRows> parity_rows_;
  std::vector<std::shared_ptr<const math::WeightRows>> vanish_rows_;
};

// Groups needed so that usable_rows * groups >= wanted sharings.
std::size_t GroupsFor(std::size_t wanted, std::size_t usable_rows);

}  // namespace pisces::pss
