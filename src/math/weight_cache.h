// Linear rows over a point set -- Lagrange weight sets (reconstruction,
// checks, decoding) and the packed-sharing generator (share generation) --
// and their memo. Every row the protocol applies maps values at small-integer
// nodes (alpha_i = l+1+i, beta_j = j) to one field element, so a WeightRows
// holds each set in whichever form fits (DESIGN.md section 3, "Integer rows"):
//   * integer form: row r is scaled by the lcm L_r of its denominators, so
//     its coefficients N_r[k] are signed words and its value is
//     L_r^{-1} * sum_k N_r[k] * ys[k] (FpCtx::DotI64Into over every row, the
//     cached L_r^{-1} folded in, skipped when L_r = 1). Used when the modulus
//     is wider than 63 bits and every |N_r[k]| and L_r fits in 63 bits; every
//     prime factor of them is at most the largest node difference, below p,
//     so nothing vanishes mod p and the values are those of the field form;
//   * field form: row r is its field weights, applied by FpCtx::Dot. The
//     fallback (small moduli, wide coefficients, non-integer nodes), and the
//     test oracle.
// Rows read their values as element encodings (elem_bytes() little-endian
// bytes each, the wire and storage encoding, values below p) through
// pointers, so a caller gathers a column straight out of payload or share
// bytes. EvalInto/Predicts/Vanishes hide the form, so no caller branches on
// it.
//
// The cached sets live in math::DomainCache instances (math/domain_cache.h),
// which state the keying, immutability and eviction rules, and count into
// the `math.wc_hits` / `math.wc_misses` registry pair.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "math/domain_cache.h"

namespace pisces::math {

class WeightRows {
 public:
  // Lagrange weights: row r evaluates at eval_points[r] the interpolant of
  // values at the distinct points xs (width xs.size()).
  static WeightRows Lagrange(const FpCtx& ctx, std::span<const FpElem> xs,
                             std::span<const FpElem> eval_points);
  // Generator of packed Shamir sharing of degree `deg` with secrets at
  // `betas` and shares at `alphas` (the systematic generator view of
  // Hineman-Blaum). Row i is
  //   [L_0(a_i) .. L_{l-1}(a_i) | w(a_i)*a_i^0 .. w(a_i)*a_i^{deg-l}]
  // with L_j the Lagrange basis over the l betas and w their vanishing
  // polynomial, so Eval(i, [s ; u]) is f(a_i) for f = w*u + I, the
  // polynomial Poly::ConstrainedFrom(u, deg, betas, s) builds.
  static WeightRows Generator(const FpCtx& ctx, std::span<const FpElem> alphas,
                              std::span<const FpElem> betas, std::size_t deg);

  std::size_t rows() const { return rows_; }
  std::size_t width() const { return width_; }
  bool integer() const { return integer_; }

  // Every row applied to the elements at ys[0..width()), with row r's value
  // written to out[r] (out.size() == rows()), in the encoding above. The
  // integer form is one FpCtx::DotI64Into, each L_r^{-1} folded in; the
  // field form decodes the values once and runs one Dot per row.
  void EvalInto(const FpCtx& ctx, std::span<const std::uint8_t* const> ys,
                std::span<std::uint8_t* const> out) const;
  // Every row r maps ys to expected[r] (expected.size() == rows()). The
  // integer form is one unscaled DotI64Into, sum_k N_r[k]*ys[k] compared
  // with L_r*expected[r] (no inverse).
  bool Predicts(const FpCtx& ctx, std::span<const std::uint8_t* const> ys,
                std::span<const std::uint8_t* const> expected) const;
  // Every row maps ys to 0 (sum_k N_r[k]*ys[k] == 0 in the integer form).
  bool Vanishes(const FpCtx& ctx,
                std::span<const std::uint8_t* const> ys) const;
  // Row r as field weights (N_r[k] * L_r^{-1} in the integer form), for
  // callers that combine rows and for the tests.
  std::vector<FpElem> FieldRow(const FpCtx& ctx, std::size_t r) const;

 private:
  std::span<const std::int64_t> Num(std::size_t r) const {
    return {num_.data() + r * width_, width_};
  }
  std::span<const FpElem> Weights(std::size_t r) const {
    return {weights_.data() + r * width_, width_};
  }
  // Every row's sum_k c_k * ys[k] over its stored coefficients (N_r, times
  // L_r^{-1} when `scaled`, or w_r) into out[r].
  void Apply(const FpCtx& ctx, std::span<const std::uint8_t* const> ys,
             bool scaled, std::span<std::uint8_t* const> out) const;
  // Every row r maps ys to expected[r], or to 0 when expected is empty.
  bool Matches(const FpCtx& ctx, std::span<const std::uint8_t* const> ys,
               std::span<const std::uint8_t* const> expected) const;
  // The integer form of `num` (rows x width, row-major) with row lcms
  // `lcm`; computes the cached inverses.
  static WeightRows Integer(const FpCtx& ctx, std::size_t width,
                            std::vector<std::int64_t> num,
                            std::vector<std::uint64_t> lcm);

  std::size_t rows_ = 0;
  std::size_t width_ = 0;
  bool integer_ = false;
  // Integer form: num_ is rows x width_, row-major.
  std::vector<std::int64_t> num_;
  std::vector<std::uint64_t> lcm_;
  std::vector<field::FpMont> lcm_inv_;
  // Field form: rows x width_, row-major.
  std::vector<FpElem> weights_;
};

// Memoized WeightRows::Lagrange (pure lookup on a hit).
std::shared_ptr<const WeightRows> CachedLagrangeWeights(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points);

// Memoized WeightRows::Generator.
std::shared_ptr<const WeightRows> CachedSharingGenerator(
    const FpCtx& ctx, std::span<const FpElem> alphas,
    std::span<const FpElem> betas, std::size_t deg);

// Consistency/evaluation rows for a fixed point set, built uncached.
//
// Construction does the Lagrange work (the extra points' rows over the first
// deg+1, in whichever WeightRows form fits); Consistent() and WeightsAt()'s
// rows are then applied per block, which matters when the same point set is
// checked for hundreds of blocks (recovery's masked-share decode, the
// hypervisor's public check, reshare verification).
class PointChecker {
 public:
  // xs must have at least deg+1 distinct entries.
  PointChecker(const FpCtx& ctx, std::vector<FpElem> xs, std::size_t deg);

  // ys (element encodings aligned with xs, values below p) lies on a
  // polynomial of degree <= deg?
  bool Consistent(std::span<const std::uint8_t* const> ys) const;

  // Rows evaluating at each of `at` the interpolant of the first deg+1
  // points, reused across blocks.
  WeightRows WeightsAt(std::span<const FpElem> at) const;

  std::size_t deg() const { return deg_; }

 private:
  const FpCtx* ctx_;
  std::vector<FpElem> xs_;
  std::size_t deg_;
  // Row e predicts ys[deg+1+e] from the first deg+1 values.
  WeightRows extra_;
};

}  // namespace pisces::math
