#include "math/weight_cache.h"

#include "common/error.h"
#include "math/poly.h"

namespace pisces::math {

namespace {

obs::Counter& g_wc_hits = obs::RegisterCounter(
    "math.wc_hits", "weight/generator cache hits");
obs::Counter& g_wc_misses = obs::RegisterCounter(
    "math.wc_misses", "weight/generator cache misses");

DomainCache<std::vector<std::vector<FpElem>>> g_weights(g_wc_hits,
                                                        g_wc_misses);
DomainCache<Matrix> g_generators(g_wc_hits, g_wc_misses);

}  // namespace

std::shared_ptr<const std::vector<std::vector<FpElem>>> CachedLagrangeWeights(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points) {
  return g_weights.Get(DomainKey(ctx).Points(xs).Points(eval_points), [&] {
    return LagrangeCoeffsMulti(ctx, xs, eval_points);
  });
}

std::shared_ptr<const Matrix> CachedSharingGenerator(
    const FpCtx& ctx, std::span<const FpElem> alphas,
    std::span<const FpElem> betas, std::size_t deg) {
  Require(!betas.empty() && betas.size() <= deg,
          "CachedSharingGenerator: need 1 <= l <= deg");
  auto key = DomainKey(ctx).Points(alphas).Points(betas).Tag(deg);
  return g_generators.Get(std::move(key), [&] {
    const std::size_t l = betas.size();
    const auto lagrange = LagrangeCoeffsMulti(ctx, betas, alphas);
    const Poly w = Poly::Vanishing(ctx, betas);
    Matrix g(alphas.size(), deg + 1);
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      for (std::size_t j = 0; j < l; ++j) g.At(i, j) = lagrange[i][j];
      FpElem mask = w.Eval(ctx, alphas[i]);  // w(a_i) * a_i^k, k = 0..deg-l
      const field::FpMont alpha = ctx.ToMont(alphas[i]);
      for (std::size_t k = l; k <= deg; ++k) {
        g.At(i, k) = mask;
        mask = ctx.Mul(alpha, mask);
      }
    }
    return g;
  });
}

}  // namespace pisces::math
