// Memoized point-set precomputations the protocol re-derives every window and
// every upload: Lagrange weight sets (reconstruction, VSS check rows) and the
// packed-sharing generator matrix (share generation). Both live in
// math::DomainCache instances (math/domain_cache.h), which state the keying,
// immutability and eviction rules, and count into the `math.wc_hits` /
// `math.wc_misses` registry pair.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "math/domain_cache.h"
#include "math/matrix.h"

namespace pisces::math {

// Memoized LagrangeCoeffsMulti: weight vectors for `eval_points` over the
// base set `xs` (one batch inversion on a miss, pure lookup on a hit).
std::shared_ptr<const std::vector<std::vector<FpElem>>> CachedLagrangeWeights(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points);

// Memoized generator matrix of packed Shamir sharing of degree `deg` with
// secrets at `betas` and shares at `alphas` (the systematic generator view
// of Hineman-Blaum). Row i is
//   [L_0(a_i) .. L_{l-1}(a_i) | w(a_i)*a_i^0 .. w(a_i)*a_i^{deg-l}]
// with L_j the Lagrange basis over the l betas and w their vanishing
// polynomial, so Dot(row i, [s ; u]) is f(a_i) for f = w*u + I, the
// polynomial Poly::ConstrainedFrom(u, deg, betas, s) builds.
std::shared_ptr<const Matrix> CachedSharingGenerator(
    const FpCtx& ctx, std::span<const FpElem> alphas,
    std::span<const FpElem> betas, std::size_t deg);

}  // namespace pisces::math
