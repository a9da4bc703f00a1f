// Polynomials over F_p: the algebraic core of packed secret sharing.
//
// Shares are evaluations of degree-<=d polynomials; secrets sit at the packed
// evaluation points beta_1..beta_l; refresh deals polynomials constrained to
// vanish on a point set. Everything here is coefficient-form and O(m^2),
// which is the cheap regime at the paper's degrees (d + 1 = t + l + 1 <= ~40
// points). Every Lagrange weight and interpolant shares one memo: the
// inverted denominators 1 / prod_{j != i} (x_i - x_j) of each point set,
// held in a math::DomainCache (math/domain_cache.h) and counted by
// math.pd_hits / math.pd_misses.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "field/fp.h"

namespace pisces::math {

using field::FpCtx;
using field::FpElem;

class Poly {
 public:
  Poly() = default;  // the zero polynomial
  explicit Poly(std::vector<FpElem> coeffs) : c_(std::move(coeffs)) {}

  // Number of coefficients; the zero polynomial has size 0. degree() is
  // size()-1 with the convention that deg(0) reports 0.
  std::size_t size() const { return c_.size(); }
  std::size_t degree() const { return c_.empty() ? 0 : c_.size() - 1; }
  bool IsZero(const FpCtx& ctx) const;

  const std::vector<FpElem>& coeffs() const { return c_; }

  FpElem Eval(const FpCtx& ctx, const FpElem& x) const;

  // Uniformly random polynomial of degree <= deg (deg+1 coefficients).
  static Poly Random(const FpCtx& ctx, Rng& rng, std::size_t deg);

  // Uniformly random polynomial f of degree <= deg subject to
  // f(xs[i]) == ys[i] for all i. Requires distinct xs and xs.size() <= deg+1.
  // The result is f = W(x)*u(x) + I(x) with W the vanishing polynomial of xs,
  // u uniform of degree <= deg - xs.size(), and I the interpolant. This is the
  // dealer's sampling step in packed sharing, zero-sharing, and mask dealing.
  static Poly RandomWithConstraints(const FpCtx& ctx, Rng& rng,
                                    std::size_t deg,
                                    std::span<const FpElem> xs,
                                    std::span<const FpElem> ys);

  // Deterministic half of RandomWithConstraints: builds W(x)*u(x) + I(x) from
  // a pre-drawn mask polynomial u of degree <= deg - xs.size(). Splitting the
  // randomness draw (serial, RNG-ordered) from the constraint solve (pure
  // compute) is what lets the task pool fan blocks out across threads without
  // changing which random values any block consumes.
  static Poly ConstrainedFrom(const FpCtx& ctx, const Poly& u, std::size_t deg,
                              std::span<const FpElem> xs,
                              std::span<const FpElem> ys);

  // Unique interpolating polynomial of degree <= xs.size()-1 in coefficient
  // form, by the Lagrange form over the cached denominators. xs must be
  // distinct.
  static Poly Interpolate(const FpCtx& ctx, std::span<const FpElem> xs,
                          std::span<const FpElem> ys);

  static Poly Add(const FpCtx& ctx, const Poly& a, const Poly& b);
  // Schoolbook product, one lazy reduction per coefficient (field::DotAcc).
  // Empty if either factor is empty.
  static Poly Mul(const FpCtx& ctx, const Poly& a, const Poly& b);

  // Vanishing polynomial prod_i (x - xs[i]).
  static Poly Vanishing(const FpCtx& ctx, std::span<const FpElem> xs);

  // Euclidean division: a = q*b + r with deg(r) < deg(b). b must be nonzero.
  static std::pair<Poly, Poly> DivMod(const FpCtx& ctx, const Poly& a,
                                      const Poly& b);

  // Drops zero leading coefficients (degree normalization).
  Poly Trimmed(const FpCtx& ctx) const;

 private:
  std::vector<FpElem> c_;  // c_[i] is the coefficient of x^i
};

// f(x) for the interpolant of (xs, ys), evaluated directly (no coefficient
// form). O(m) once the point set's denominators are cached; the workhorse of
// reconstruction.
FpElem LagrangeEval(const FpCtx& ctx, std::span<const FpElem> xs,
                    std::span<const FpElem> ys, const FpElem& x);

// Weights w_i with f(x) = sum_i w_i * ys[i] for any degree <= xs.size()-1
// interpolant. Reused across many blocks sharing the same point set.
std::vector<FpElem> LagrangeCoeffs(const FpCtx& ctx,
                                   std::span<const FpElem> xs,
                                   const FpElem& x);

// Weight vectors for many evaluation points over one base set: one lookup of
// the (point-independent) denominators, then O(m) per point. The field form
// of math::WeightRows (math/weight_cache.h) is built with it.
std::vector<std::vector<FpElem>> LagrangeCoeffsMulti(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points);

// True iff the points (xs, ys) lie on a polynomial of degree <= deg.
// This is the well-formedness check used by VSS verifiers.
bool PointsOnLowDegree(const FpCtx& ctx, std::span<const FpElem> xs,
                       std::span<const FpElem> ys, std::size_t deg);

}  // namespace pisces::math
