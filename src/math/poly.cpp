#include "math/poly.h"

#include <algorithm>

#include "field/limbs.h"
#include "math/domain_cache.h"
#include "obs/registry.h"

namespace pisces::math {

using field::FpMont;

namespace {

// (a, b) -> a*x + b for one fixed x, at one kernel call or less: MulU64Add
// when x is a plain word (every evaluation point the protocol uses is a
// small integer), x hoisted to FpMont once otherwise.
auto MulAddBy(const FpCtx& ctx, const FpElem& x) {
  const bool word = field::IsZeroN(x.v.data() + 1, ctx.limbs() - 1);
  const FpMont xm = word ? FpMont{} : ctx.ToMont(x);
  return [&ctx, word, w = x.v[0], xm](const FpElem& a, const FpElem& b) {
    return word ? ctx.MulU64Add(a, w, b) : ctx.Add(ctx.Mul(xm, a), b);
  };
}

obs::Counter& g_pd_hits = obs::RegisterCounter(
    "math.pd_hits", "Lagrange denominator cache hits");
obs::Counter& g_pd_misses = obs::RegisterCounter(
    "math.pd_misses", "Lagrange denominator cache misses");

DomainCache<std::vector<FpMont>> g_inv_dens(g_pd_hits, g_pd_misses);

// 1 / prod_{j != i} (xs[i] - xs[j]) for every i, in Montgomery form: the
// point-set half of every Lagrange weight, memoized per point set. This is
// the only place src/math forms Lagrange denominators. The product is P'(xs[i])
// for the vanishing polynomial P of xs, so it is zero exactly at a repeated
// point.
std::shared_ptr<const std::vector<FpMont>> InvDenominators(
    const FpCtx& ctx, std::span<const FpElem> xs) {
  return g_inv_dens.Get(DomainKey(ctx).Points(xs), [&] {
    const std::size_t m = xs.size();
    const Poly vanishing = Poly::Vanishing(ctx, xs);
    std::vector<FpElem> dc(m);
    for (std::size_t j = 0; j < m; ++j) {
      dc[j] = ctx.MulU64Add(vanishing.coeffs()[j + 1], j + 1, ctx.Zero());
    }
    const Poly deriv(std::move(dc));
    std::vector<FpElem> dens(m);
    for (std::size_t i = 0; i < m; ++i) {
      dens[i] = deriv.Eval(ctx, xs[i]);
      Require(!ctx.IsZero(dens[i]), "Lagrange: duplicate x");
    }
    ctx.BatchInv(dens);
    std::vector<FpMont> inv(m);
    for (std::size_t i = 0; i < m; ++i) inv[i] = ctx.ToMont(dens[i]);
    return inv;
  });
}

// w_i = inv_dens[i] * prod_{j != i} (x - xs[j]); the numerators are the O(m)
// prefix (Montgomery form) and suffix (plain) products of (x - xs[j]), so
// every product is one kernel call.
std::vector<FpElem> BarycentricWeights(const FpCtx& ctx,
                                       std::span<const FpElem> xs,
                                       std::span<const FpMont> inv_dens,
                                       const FpElem& x) {
  const std::size_t m = xs.size();
  std::vector<FpMont> diff(m);
  for (std::size_t j = 0; j < m; ++j) diff[j] = ctx.ToMont(ctx.Sub(x, xs[j]));
  std::vector<FpMont> prefix(m + 1, ctx.MontOne());
  std::vector<FpElem> suffix(m + 1, ctx.One());
  for (std::size_t j = 0; j < m; ++j) {
    prefix[j + 1] = ctx.Mul(prefix[j], diff[j]);
  }
  for (std::size_t j = m; j-- > 0;) {
    suffix[j] = ctx.Mul(diff[j], suffix[j + 1]);
  }
  std::vector<FpElem> w(m);
  for (std::size_t i = 0; i < m; ++i) {
    w[i] = ctx.Mul(ctx.Mul(inv_dens[i], prefix[i]), suffix[i + 1]);
  }
  return w;
}

// Lagrange form, given the vanishing polynomial P of xs:
//   Q_i   = P / (x - x_i)         (synthetic division, O(m) each)
//   f     = sum_i y_i * Q_i / prod_{j != i} (x_i - x_j)
Poly InterpolateOver(const FpCtx& ctx, const Poly& vanishing,
                     std::span<const FpElem> xs, std::span<const FpElem> ys) {
  const std::size_t m = xs.size();
  const std::vector<FpElem>& pc = vanishing.coeffs();  // degree m
  const auto inv_dens = InvDenominators(ctx, xs);
  std::vector<FpElem> c(m, ctx.Zero());
  std::vector<FpElem> q(m);
  for (std::size_t i = 0; i < m; ++i) {
    const FpElem scale = ctx.Mul((*inv_dens)[i], ys[i]);
    if (ctx.IsZero(scale)) continue;
    const auto by_x = MulAddBy(ctx, xs[i]);
    FpElem carry = pc[m];  // leading coefficient (== 1)
    for (std::size_t j = m; j-- > 0;) {
      q[j] = carry;
      carry = by_x(carry, pc[j]);
    }
    const FpMont by_scale = ctx.ToMont(scale);
    for (std::size_t j = 0; j < m; ++j) {
      c[j] = ctx.Add(c[j], ctx.Mul(by_scale, q[j]));
    }
  }
  return Poly(std::move(c));
}

}  // namespace

bool Poly::IsZero(const FpCtx& ctx) const {
  return std::all_of(c_.begin(), c_.end(),
                     [&](const FpElem& e) { return ctx.IsZero(e); });
}

FpElem Poly::Eval(const FpCtx& ctx, const FpElem& x) const {
  const auto by_x = MulAddBy(ctx, x);
  FpElem acc = ctx.Zero();
  for (std::size_t i = c_.size(); i-- > 0;) acc = by_x(acc, c_[i]);
  return acc;
}

Poly Poly::Random(const FpCtx& ctx, Rng& rng, std::size_t deg) {
  std::vector<FpElem> c(deg + 1);
  for (auto& e : c) e = ctx.Random(rng);
  return Poly(std::move(c));
}

Poly Poly::RandomWithConstraints(const FpCtx& ctx, Rng& rng, std::size_t deg,
                                 std::span<const FpElem> xs,
                                 std::span<const FpElem> ys) {
  Require(xs.size() == ys.size(), "RandomWithConstraints: xs/ys mismatch");
  Require(xs.size() >= 1, "RandomWithConstraints: need >= 1 constraint");
  Require(xs.size() <= deg + 1, "RandomWithConstraints: too many constraints");
  if (xs.size() == deg + 1) return Interpolate(ctx, xs, ys);
  Poly u = Random(ctx, rng, deg - xs.size());
  return ConstrainedFrom(ctx, u, deg, xs, ys);
}

Poly Poly::ConstrainedFrom(const FpCtx& ctx, const Poly& u, std::size_t deg,
                           std::span<const FpElem> xs,
                           std::span<const FpElem> ys) {
  Require(xs.size() == ys.size(), "ConstrainedFrom: xs/ys mismatch");
  Require(xs.size() >= 1, "ConstrainedFrom: need >= 1 constraint");
  Require(xs.size() <= deg + 1, "ConstrainedFrom: too many constraints");
  if (xs.size() == deg + 1) return Interpolate(ctx, xs, ys);  // u unused
  Require(u.size() == deg - xs.size() + 1, "ConstrainedFrom: wrong mask size");
  const Poly w = Vanishing(ctx, xs);
  return Add(ctx, Mul(ctx, w, u), InterpolateOver(ctx, w, xs, ys));
}

Poly Poly::Interpolate(const FpCtx& ctx, std::span<const FpElem> xs,
                       std::span<const FpElem> ys) {
  Require(xs.size() == ys.size() && !xs.empty(), "Interpolate: bad input");
  if (xs.size() == 1) return Poly(std::vector<FpElem>{ys[0]});
  return InterpolateOver(ctx, Vanishing(ctx, xs), xs, ys);
}

Poly Poly::Add(const FpCtx& ctx, const Poly& a, const Poly& b) {
  std::vector<FpElem> c(std::max(a.c_.size(), b.c_.size()), ctx.Zero());
  for (std::size_t i = 0; i < a.c_.size(); ++i) c[i] = a.c_[i];
  for (std::size_t i = 0; i < b.c_.size(); ++i) c[i] = ctx.Add(c[i], b.c_[i]);
  return Poly(std::move(c));
}

Poly Poly::Mul(const FpCtx& ctx, const Poly& a, const Poly& b) {
  if (a.c_.empty() || b.c_.empty()) return Poly();
  // out[k] = sum_{i+j=k} a[i]*b[j], one wide reduction per coefficient.
  std::vector<FpElem> out(a.c_.size() + b.c_.size() - 1);
  field::DotAcc acc(ctx);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t lo = k >= b.c_.size() ? k - b.c_.size() + 1 : 0;
    const std::size_t hi = std::min(a.c_.size() - 1, k);
    acc.Reset();
    for (std::size_t i = lo; i <= hi; ++i) acc.MulAdd(a.c_[i], b.c_[k - i]);
    out[k] = acc.Reduce();
  }
  return Poly(std::move(out));
}

Poly Poly::Vanishing(const FpCtx& ctx, std::span<const FpElem> xs) {
  std::vector<FpElem> c{ctx.One()};
  for (const FpElem& root : xs) {
    // c <- c * (x - root), in place from the top coefficient down.
    const auto by_root = MulAddBy(ctx, root);
    c.push_back(ctx.Zero());
    for (std::size_t j = c.size() - 1; j-- > 0;) {
      c[j + 1] = ctx.Add(c[j + 1], c[j]);
      c[j] = ctx.Neg(by_root(c[j], ctx.Zero()));
    }
  }
  return Poly(std::move(c));
}

Poly Poly::Trimmed(const FpCtx& ctx) const {
  std::size_t size = c_.size();
  while (size > 0 && ctx.IsZero(c_[size - 1])) --size;
  return Poly(std::vector<FpElem>(c_.begin(), c_.begin() + size));
}

std::pair<Poly, Poly> Poly::DivMod(const FpCtx& ctx, const Poly& a,
                                   const Poly& b) {
  Poly divisor = b.Trimmed(ctx);
  Require(divisor.size() > 0, "DivMod: division by zero polynomial");
  std::vector<FpElem> rem(a.c_);
  const std::size_t db = divisor.size() - 1;
  if (rem.size() <= db) return {Poly(), Poly(std::move(rem))};
  std::vector<FpElem> quot(rem.size() - db, ctx.Zero());
  const FpMont lead_inv = ctx.ToMont(ctx.Inv(divisor.coeffs()[db]));
  for (std::size_t i = rem.size(); i-- > db;) {
    FpElem factor = ctx.Mul(lead_inv, rem[i]);
    if (ctx.IsZero(factor)) continue;
    quot[i - db] = factor;
    const auto by_neg_factor = MulAddBy(ctx, ctx.Neg(factor));
    for (std::size_t j = 0; j <= db; ++j) {
      rem[i - db + j] = by_neg_factor(divisor.coeffs()[j], rem[i - db + j]);
    }
  }
  rem.resize(db);
  return {Poly(std::move(quot)).Trimmed(ctx), Poly(std::move(rem)).Trimmed(ctx)};
}

std::vector<FpElem> LagrangeCoeffs(const FpCtx& ctx,
                                   std::span<const FpElem> xs,
                                            const FpElem& x) {
  Require(!xs.empty(), "LagrangeCoeffs: empty points");
  return BarycentricWeights(ctx, xs, *InvDenominators(ctx, xs), x);
}

std::vector<std::vector<FpElem>> LagrangeCoeffsMulti(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points) {
  Require(!xs.empty(), "LagrangeCoeffsMulti: empty points");
  const auto inv_dens = InvDenominators(ctx, xs);
  std::vector<std::vector<FpElem>> out;
  out.reserve(eval_points.size());
  for (const FpElem& x : eval_points) {
    out.push_back(BarycentricWeights(ctx, xs, *inv_dens, x));
  }
  return out;
}

FpElem LagrangeEval(const FpCtx& ctx, std::span<const FpElem> xs,
                    std::span<const FpElem> ys, const FpElem& x) {
  Require(xs.size() == ys.size(), "LagrangeEval: xs/ys mismatch");
  std::vector<FpElem> w = LagrangeCoeffs(ctx, xs, x);
  return ctx.Dot(w, ys);
}

bool PointsOnLowDegree(const FpCtx& ctx, std::span<const FpElem> xs,
                       std::span<const FpElem> ys, std::size_t deg) {
  Require(xs.size() == ys.size(), "PointsOnLowDegree: xs/ys mismatch");
  if (xs.size() <= deg + 1) return true;  // always interpolatable
  Poly f = Poly::Interpolate(ctx, xs.subspan(0, deg + 1), ys.subspan(0, deg + 1));
  for (std::size_t i = deg + 1; i < xs.size(); ++i) {
    if (!ctx.Eq(f.Eval(ctx, xs[i]), ys[i])) return false;
  }
  return true;
}

}  // namespace pisces::math
