#include "math/berlekamp_welch.h"

#include "math/matrix.h"

namespace pisces::math {

namespace {

// One Berlekamp-Welch attempt at a fixed error-locator degree e.
std::optional<Poly> TryDecode(const FpCtx& ctx, std::span<const FpElem> xs,
                              std::span<const FpElem> ys, std::size_t deg,
                              std::size_t e) {
  const std::size_t n = xs.size();
  const std::size_t nq = deg + e + 1;  // coefficients of Q
  const std::size_t unknowns = nq + e;  // plus e_0..e_{e-1} (E monic)
  if (n < unknowns) return std::nullopt;  // underdetermined, cannot certify

  // Row i: sum_j q_j x^j - y_i * sum_k e_k x^k = y_i * x^e.
  Matrix a(n, unknowns);
  std::vector<FpElem> b(n, ctx.Zero());
  for (std::size_t i = 0; i < n; ++i) {
    const field::FpMont x = ctx.ToMont(xs[i]), y = ctx.ToMont(ys[i]);
    FpElem pow = ctx.One();
    for (std::size_t j = 0; j < nq; ++j) {
      a.At(i, j) = pow;
      pow = ctx.Mul(x, pow);
    }
    pow = ctx.One();
    for (std::size_t k = 0; k < e; ++k) {
      a.At(i, nq + k) = ctx.Neg(ctx.Mul(y, pow));
      pow = ctx.Mul(x, pow);
    }
    // pow is now xs[i]^e.
    b[i] = ctx.Mul(y, pow);
  }
  auto sol = SolveLinearSystem(ctx, std::move(a), std::move(b));
  if (!sol) return std::nullopt;

  Poly q(std::vector<FpElem>(sol->begin(), sol->begin() + nq));
  std::vector<FpElem> e_coeffs(sol->begin() + nq, sol->end());
  e_coeffs.push_back(ctx.One());  // monic
  Poly locator(std::move(e_coeffs));

  auto [f, rem] = Poly::DivMod(ctx, q, locator);
  if (rem.size() != 0) return std::nullopt;  // E does not divide Q
  if (f.Trimmed(ctx).size() > deg + 1) return std::nullopt;
  return f.Trimmed(ctx);
}

}  // namespace

std::vector<std::size_t> Mismatches(const FpCtx& ctx, const Poly& f,
                                    std::span<const FpElem> xs,
                                    std::span<const FpElem> ys) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!ctx.Eq(f.Eval(ctx, xs[i]), ys[i])) out.push_back(i);
  }
  return out;
}

std::optional<Poly> RobustInterpolate(const FpCtx& ctx,
                                      std::span<const FpElem> xs,
                                      std::span<const FpElem> ys,
                                      std::size_t deg,
                                      std::size_t max_errors) {
  Require(xs.size() == ys.size(), "RobustInterpolate: xs/ys mismatch");
  Require(xs.size() >= deg + 1, "RobustInterpolate: too few points");

  // e = 0 fast path: the interpolant of the first deg+1 points, when every
  // other point lies on it too.
  Poly f0 = Poly::Interpolate(ctx, xs.first(deg + 1), ys.first(deg + 1));
  bool fits = true;
  for (std::size_t i = deg + 1; fits && i < xs.size(); ++i) {
    fits = ctx.Eq(f0.Eval(ctx, xs[i]), ys[i]);
  }
  if (fits) return f0;

  for (std::size_t e = 1; e <= max_errors; ++e) {
    if (xs.size() < deg + 2 * e + 1) break;  // outside the decoding radius
    auto f = TryDecode(ctx, xs, ys, deg, e);
    if (f && Mismatches(ctx, *f, xs, ys).size() <= e) return f;
  }
  return std::nullopt;
}

}  // namespace pisces::math
