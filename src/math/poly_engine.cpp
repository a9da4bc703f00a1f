#include "math/poly_engine.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "math/domain_cache.h"
#include "obs/registry.h"

namespace pisces::math {

namespace {

obs::Counter& g_pd_hits =
    obs::RegisterCounter("math.pd_hits", "poly-domain (subproduct tree) cache hits");
obs::Counter& g_pd_misses =
    obs::RegisterCounter("math.pd_misses", "poly-domain (subproduct tree) cache misses");
obs::Counter& g_tree_evals =
    obs::RegisterCounter("math.tree_evals", "multipoint evaluations on a subproduct tree");
obs::Counter& g_tree_interps =
    obs::RegisterCounter("math.tree_interps", "interpolations on a subproduct tree");

DomainCache<SubproductTree> g_domains(g_pd_hits, g_pd_misses);

// Karatsuba recurses while both operands are larger than this; below it the
// lazy-dot schoolbook convolution (one Montgomery reduction per output
// coefficient) is faster than the recursion's add/copy overhead.
constexpr std::size_t kKaratsubaBase = 24;

// Subproduct-tree leaves cover at most this many points; leaf work (Horner
// evaluation, synthetic-division combination) is O(leaf^2) with tiny
// constants, so small leaves just add node overhead.
constexpr std::size_t kTreeLeafSize = 8;

// out[k] = sum_{i+j=k} a[i]*b[j], one wide reduction per coefficient.
std::vector<FpElem> SchoolbookMul(const FpCtx& ctx, std::span<const FpElem> a,
                                  std::span<const FpElem> b) {
  std::vector<FpElem> out(a.size() + b.size() - 1);
  field::DotAcc acc(ctx);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t lo = k >= b.size() ? k - b.size() + 1 : 0;
    const std::size_t hi = std::min(a.size() - 1, k);
    acc.Reset();
    for (std::size_t i = lo; i <= hi; ++i) acc.MulAdd(a[i], b[k - i]);
    out[k] = acc.Reduce();
  }
  return out;
}

std::vector<FpElem> MulRec(const FpCtx& ctx, std::span<const FpElem> a,
                           std::span<const FpElem> b) {
  if (a.size() < b.size()) std::swap(a, b);
  if (b.size() <= kKaratsubaBase) return SchoolbookMul(ctx, a, b);
  const std::size_t h = (a.size() + 1) / 2;
  std::span<const FpElem> a0 = a.first(h);
  std::span<const FpElem> a1 = a.subspan(h);
  std::vector<FpElem> out(a.size() + b.size() - 1, ctx.Zero());
  if (b.size() <= h) {
    // Unbalanced split: b * (a0 + x^h * a1) as two recursive products.
    std::vector<FpElem> lo = MulRec(ctx, a0, b);
    std::vector<FpElem> hi = MulRec(ctx, a1, b);
    for (std::size_t i = 0; i < lo.size(); ++i) out[i] = lo[i];
    for (std::size_t i = 0; i < hi.size(); ++i) {
      out[h + i] = ctx.Add(out[h + i], hi[i]);
    }
    return out;
  }
  std::span<const FpElem> b0 = b.first(h);
  std::span<const FpElem> b1 = b.subspan(h);
  std::vector<FpElem> z0 = MulRec(ctx, a0, b0);
  std::vector<FpElem> z2 = MulRec(ctx, a1, b1);
  std::vector<FpElem> as(a0.begin(), a0.end());
  for (std::size_t i = 0; i < a1.size(); ++i) as[i] = ctx.Add(as[i], a1[i]);
  std::vector<FpElem> bs(b0.begin(), b0.end());
  for (std::size_t i = 0; i < b1.size(); ++i) bs[i] = ctx.Add(bs[i], b1[i]);
  std::vector<FpElem> z1 = MulRec(ctx, as, bs);
  for (std::size_t i = 0; i < z0.size(); ++i) out[i] = z0[i];
  for (std::size_t i = 0; i < z2.size(); ++i) {
    out[2 * h + i] = ctx.Add(out[2 * h + i], z2[i]);
  }
  for (std::size_t i = 0; i < z1.size(); ++i) {
    FpElem mid = z1[i];
    if (i < z0.size()) mid = ctx.Sub(mid, z0[i]);
    if (i < z2.size()) mid = ctx.Sub(mid, z2[i]);
    out[h + i] = ctx.Add(out[h + i], mid);
  }
  return out;
}

// a*b mod x^l, returned as exactly l coefficients (zero-padded).
std::vector<FpElem> TruncMul(const FpCtx& ctx, std::span<const FpElem> a,
                             std::span<const FpElem> b, std::size_t l) {
  a = a.first(std::min(a.size(), l));
  b = b.first(std::min(b.size(), l));
  std::vector<FpElem> out;
  if (!a.empty() && !b.empty()) out = MulRec(ctx, a, b);
  out.resize(l, ctx.Zero());
  return out;
}

// b^{-1} mod x^l by Newton iteration; requires b[0] == 1 (rev of a monic
// polynomial), so no field inversion is ever needed.
std::vector<FpElem> InverseSeries(const FpCtx& ctx, std::span<const FpElem> b,
                                  std::size_t l) {
  std::vector<FpElem> g{ctx.One()};
  const FpElem two = ctx.Add(ctx.One(), ctx.One());
  std::size_t k = 1;
  while (k < l) {
    k = std::min(2 * k, l);
    std::vector<FpElem> e = TruncMul(ctx, b, g, k);
    for (FpElem& v : e) v = ctx.Neg(v);
    e[0] = ctx.Add(e[0], two);  // e = 2 - b*g mod x^k
    g = TruncMul(ctx, g, e, k);
  }
  return g;
}

// Schoolbook remainder of a by the monic b (leading coefficient 1, so no
// inversions). Only used for dividends larger than the tree root, which the
// protocol paths never produce.
std::vector<FpElem> ReduceByMonic(const FpCtx& ctx, std::vector<FpElem> a,
                                  std::span<const FpElem> b) {
  const std::size_t db = b.size() - 1;
  for (std::size_t i = a.size(); i-- > db;) {
    const FpElem factor = a[i];
    if (ctx.IsZero(factor)) continue;
    for (std::size_t j = 0; j < db; ++j) {
      a[i - db + j] = ctx.Sub(a[i - db + j], ctx.Mul(factor, b[j]));
    }
  }
  a.resize(db);
  return a;
}

}  // namespace

std::vector<FpElem> MulPolys(const FpCtx& ctx, std::span<const FpElem> a,
                             std::span<const FpElem> b) {
  if (a.empty() || b.empty()) return {};
  return MulRec(ctx, a, b);
}

SubproductTree::SubproductTree(const FpCtx& ctx, std::vector<FpElem> xs)
    : ctx_(ctx), xs_(std::move(xs)) {
  Require(!xs_.empty(), "SubproductTree: empty point set");
  const std::size_t m = xs_.size();
  nodes_.reserve(4 * (m / kTreeLeafSize + 1));
  root_ = Build(0, m);
  // Inverse-series pass: each child carries rev(child)^{-1} to the precision
  // its sibling's degree demands, making every remainder-tree division two
  // truncated products (RemByNode) with zero field inversions.
  for (const Node& n : nodes_) {
    if (n.left == npos) continue;
    Node& l = nodes_[n.left];
    Node& r = nodes_[n.right];
    std::vector<FpElem> rev(l.poly.rbegin(), l.poly.rend());
    l.inv_rev = InverseSeries(ctx_, rev, r.count);
    rev.assign(r.poly.rbegin(), r.poly.rend());
    r.inv_rev = InverseSeries(ctx_, rev, l.count);
  }
  // Barycentric weights: P'(x_i) for all i by one multipoint evaluation of
  // the derivative, then a single batch inversion. A zero derivative value
  // is exactly a repeated point.
  const std::vector<FpElem>& pc = nodes_[root_].poly;
  std::vector<FpElem> dp(m);
  FpElem idx = ctx_.Zero();
  for (std::size_t i = 1; i <= m; ++i) {
    idx = ctx_.Add(idx, ctx_.One());
    dp[i - 1] = ctx_.Mul(pc[i], idx);
  }
  inv_derivs_ = EvalAll(dp);
  for (const FpElem& d : inv_derivs_) {
    Require(!ctx_.IsZero(d), "SubproductTree: duplicate point");
  }
  ctx_.BatchInv(inv_derivs_);
}

std::size_t SubproductTree::Build(std::size_t begin, std::size_t count) {
  Node n;
  n.begin = begin;
  n.count = count;
  if (count <= kTreeLeafSize) {
    n.left = n.right = npos;
    // Small monic vanishing polynomial, built root by root.
    n.poly.assign(1, ctx_.One());
    for (std::size_t i = 0; i < count; ++i) {
      const FpElem& root = xs_[begin + i];
      n.poly.push_back(ctx_.Zero());
      for (std::size_t j = n.poly.size() - 1; j-- > 0;) {
        n.poly[j + 1] = ctx_.Add(n.poly[j + 1], n.poly[j]);
        n.poly[j] = ctx_.Neg(ctx_.Mul(n.poly[j], root));
      }
    }
  } else {
    const std::size_t half = count / 2;
    n.left = Build(begin, half);
    n.right = Build(begin + half, count - half);
    n.poly = MulPolys(ctx_, nodes_[n.left].poly, nodes_[n.right].poly);
  }
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

const std::vector<FpElem>& SubproductTree::root() const {
  return nodes_[root_].poly;
}

std::vector<FpElem> SubproductTree::RemByNode(const Node& n,
                                              std::span<const FpElem> a) const {
  const std::size_t db = n.count;
  std::vector<FpElem> r(db, ctx_.Zero());
  if (a.size() <= db) {
    std::copy(a.begin(), a.end(), r.begin());
    return r;
  }
  // a = q*poly + r. rev(q) = rev(a) * rev(poly)^{-1} mod x^{deg a - db + 1};
  // the stored precision (sibling degree) always covers it because the
  // parent's remainder has degree < parent count = db + sibling count.
  const std::size_t qn = a.size() - db;
  Require(qn <= n.inv_rev.size(), "SubproductTree: inverse precision exceeded");
  std::vector<FpElem> arev(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) arev[i] = a[a.size() - 1 - i];
  const std::vector<FpElem> qrev = TruncMul(ctx_, arev, n.inv_rev, qn);
  std::vector<FpElem> q(qn);
  for (std::size_t i = 0; i < qn; ++i) q[i] = qrev[qn - 1 - i];
  const std::vector<FpElem> qb = TruncMul(ctx_, q, n.poly, db);
  for (std::size_t i = 0; i < db; ++i) r[i] = ctx_.Sub(a[i], qb[i]);
  return r;
}

void SubproductTree::DownEval(std::size_t node_idx, std::vector<FpElem> rem,
                              std::vector<FpElem>& out) const {
  const Node& n = nodes_[node_idx];
  if (n.left == npos) {
    for (std::size_t i = 0; i < n.count; ++i) {
      const FpElem& x = xs_[n.begin + i];
      FpElem acc = ctx_.Zero();
      for (std::size_t j = rem.size(); j-- > 0;) {
        acc = ctx_.Add(ctx_.Mul(acc, x), rem[j]);
      }
      out[n.begin + i] = acc;
    }
    return;
  }
  DownEval(n.left, RemByNode(nodes_[n.left], rem), out);
  DownEval(n.right, RemByNode(nodes_[n.right], rem), out);
}

std::vector<FpElem> SubproductTree::EvalAll(std::span<const FpElem> f) const {
  const std::size_t m = xs_.size();
  std::vector<FpElem> out(m, ctx_.Zero());
  if (f.empty()) return out;
  std::vector<FpElem> rem(f.begin(), f.end());
  if (rem.size() > m) rem = ReduceByMonic(ctx_, std::move(rem), root());
  rem.resize(m, ctx_.Zero());
  g_tree_evals.Add();
  DownEval(root_, std::move(rem), out);
  return out;
}

std::vector<FpElem> SubproductTree::UpCombine(
    std::size_t node_idx, std::span<const FpElem> scaled) const {
  const Node& n = nodes_[node_idx];
  if (n.left == npos) {
    // sum_i scaled[i] * poly/(x - x_i); each quotient by synthetic division
    // (the node polynomial is monic), O(count^2) at leaf sizes.
    std::vector<FpElem> out(n.count, ctx_.Zero());
    std::vector<FpElem> qi(n.count);
    for (std::size_t i = 0; i < n.count; ++i) {
      const FpElem& x = xs_[n.begin + i];
      FpElem carry = n.poly[n.count];  // leading coefficient (== 1)
      for (std::size_t j = n.count; j-- > 0;) {
        qi[j] = carry;
        carry = ctx_.Add(n.poly[j], ctx_.Mul(carry, x));
      }
      const FpElem& s = scaled[n.begin + i];
      if (ctx_.IsZero(s)) continue;
      for (std::size_t j = 0; j < n.count; ++j) {
        out[j] = ctx_.Add(out[j], ctx_.Mul(s, qi[j]));
      }
    }
    return out;
  }
  const std::vector<FpElem> fl = UpCombine(n.left, scaled);
  const std::vector<FpElem> fr = UpCombine(n.right, scaled);
  std::vector<FpElem> a = MulPolys(ctx_, fl, nodes_[n.right].poly);
  const std::vector<FpElem> b = MulPolys(ctx_, fr, nodes_[n.left].poly);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = ctx_.Add(a[i], b[i]);
  return a;  // n.count coefficients
}

std::vector<FpElem> SubproductTree::Interpolate(
    std::span<const FpElem> ys) const {
  Require(ys.size() == xs_.size(), "SubproductTree: ys size mismatch");
  std::vector<FpElem> scaled(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i) {
    scaled[i] = ctx_.Mul(ys[i], inv_derivs_[i]);
  }
  g_tree_interps.Add();
  return UpCombine(root_, scaled);
}

std::vector<FpElem> EvalMany(const FpCtx& ctx, std::span<const FpElem> f,
                             std::span<const FpElem> xs) {
  std::vector<FpElem> out(xs.size(), ctx.Zero());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    FpElem acc = ctx.Zero();
    for (std::size_t j = f.size(); j-- > 0;) {
      acc = ctx.Add(ctx.Mul(acc, xs[i]), f[j]);
    }
    out[i] = acc;
  }
  return out;
}

std::shared_ptr<const SubproductTree> CachedSubproductTree(
    const FpCtx& ctx, std::span<const FpElem> xs) {
  return g_domains.Get(DomainKey(ctx).Points(xs), [&] {
    return SubproductTree(ctx, std::vector<FpElem>(xs.begin(), xs.end()));
  });
}

void ClearPolyDomainCache() { g_domains.Clear(); }

std::size_t PolyDomainCacheSize() { return g_domains.Size(); }

PolyEngineStats GetPolyEngineStats() {
  return {g_pd_hits.Load(), g_pd_misses.Load(), g_tree_evals.Load(),
          g_tree_interps.Load()};
}

void ResetPolyEngineStats() {
  g_pd_hits.Reset();
  g_pd_misses.Reset();
  g_tree_evals.Reset();
  g_tree_interps.Reset();
}

}  // namespace pisces::math
