// Differential suite for the quasi-linear polynomial engine
// (math/poly_engine.h): every engine path against the generic
// Lagrange/Vandermonde oracle it replaces, across all four standard prime
// sizes and across the crossover boundary. The contract under test is
// BIT-identity, not numerical closeness: F_p arithmetic is exact and FpElem's
// canonical Montgomery form means equal values are equal bytes, so EXPECT_EQ
// on element vectors is exactly the "wire bytes unchanged" guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.h"
#include "common/task_pool.h"
#include "field/fp.h"
#include "field/primes.h"
#include "math/poly.h"
#include "math/poly_engine.h"

namespace pisces::math {
namespace {

using field::FpCtx;
using field::FpElem;

constexpr std::size_t kPrimeBits[] = {256, 512, 1024, 2048};

std::vector<FpElem> RandomElems(const FpCtx& ctx, Rng& rng, std::size_t n) {
  std::vector<FpElem> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(ctx.Random(rng));
  return out;
}

// Distinct evaluation points 1..n (the share-domain shape: small consecutive
// field elements, exactly what EvalPoints produces).
std::vector<FpElem> DomainPoints(const FpCtx& ctx, std::size_t n) {
  std::vector<FpElem> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(ctx.FromUint64(i + 1));
  return xs;
}

// The O(a*b) convolution the Karatsuba product must reproduce exactly.
std::vector<FpElem> NaiveConvolution(const FpCtx& ctx,
                                     std::span<const FpElem> a,
                                     std::span<const FpElem> b) {
  if (a.empty() || b.empty()) return {};
  std::vector<FpElem> out(a.size() + b.size() - 1, ctx.Zero());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = ctx.Add(out[i + j], ctx.Mul(a[i], b[j]));
    }
  }
  return out;
}

TEST(PolyEngine, MulMatchesNaiveConvolutionAcrossPrimes) {
  // Sizes straddle the Karatsuba base case (24) and the unbalanced-split
  // branch (one operand much shorter than the other).
  const std::size_t shapes[][2] = {{1, 1},  {2, 3},   {23, 23}, {24, 24},
                                   {25, 25}, {40, 7},  {7, 40},  {64, 33},
                                   {100, 100}, {129, 64}};
  for (std::size_t bits : kPrimeBits) {
    FpCtx ctx(field::StandardPrimeBe(bits));
    Rng rng(bits);
    for (const auto& s : shapes) {
      auto a = RandomElems(ctx, rng, s[0]);
      auto b = RandomElems(ctx, rng, s[1]);
      EXPECT_EQ(MulPolys(ctx, a, b), NaiveConvolution(ctx, a, b))
          << bits << "-bit, " << s[0] << "x" << s[1];
    }
  }
  // Empty operands: empty product.
  FpCtx ctx(field::StandardPrimeBe(256));
  Rng rng(9);
  auto a = RandomElems(ctx, rng, 5);
  EXPECT_TRUE(MulPolys(ctx, a, {}).empty());
  EXPECT_TRUE(MulPolys(ctx, {}, a).empty());
}

TEST(PolyEngine, EvalAllMatchesHornerAcrossPrimes) {
  for (std::size_t bits : kPrimeBits) {
    FpCtx ctx(field::StandardPrimeBe(bits));
    Rng rng(bits + 1);
    // Crossover-boundary and non-power-of-two domain sizes; polynomial both
    // shorter and longer than the domain (the latter exercises the
    // reduce-dividend-first path).
    for (std::size_t n : {2u, 8u, 16u, 17u, 33u, 64u}) {
      auto xs = DomainPoints(ctx, n);
      SubproductTree tree(ctx, xs);
      for (std::size_t deg :
           {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n + 5}) {
        Poly f = Poly::Random(ctx, rng, deg);
        std::vector<FpElem> expect;
        for (const FpElem& x : xs) expect.push_back(f.Eval(ctx, x));
        EXPECT_EQ(tree.EvalAll(f.coeffs()), expect)
            << bits << "-bit, n=" << n << ", deg=" << deg;
      }
    }
  }
}

TEST(PolyEngine, InterpolateMatchesLagrangeOracleAcrossPrimes) {
  for (std::size_t bits : kPrimeBits) {
    FpCtx ctx(field::StandardPrimeBe(bits));
    Rng rng(bits + 2);
    for (std::size_t n : {2u, 9u, 16u, 17u, 18u, 31u, 64u}) {
      auto xs = DomainPoints(ctx, n);
      auto ys = RandomElems(ctx, rng, n);
      SubproductTree tree(ctx, xs);
      Poly oracle = Poly::InterpolateLagrange(ctx, xs, ys);
      EXPECT_EQ(tree.Interpolate(ys), oracle.coeffs())
          << bits << "-bit, n=" << n;
    }
  }
}

TEST(PolyEngine, DispatcherBitIdenticalAroundCrossover) {
  // Poly::Interpolate / Vanishing / LagrangeCoeffs switch implementation at
  // PolyEngineCrossover(); the switch must be invisible on bytes. Random
  // (n, t)-style share shapes spanning both sides of the boundary.
  FpCtx ctx(field::StandardPrimeBe(256));
  Rng rng(404);
  const std::size_t cross = PolyEngineCrossover();
  for (std::size_t n :
       {std::size_t{4}, cross - 2, cross - 1, cross, cross + 1, cross + 7,
        std::size_t{48}}) {
    auto xs = DomainPoints(ctx, n);
    auto ys = RandomElems(ctx, rng, n);
    Poly via_dispatch = Poly::Interpolate(ctx, xs, ys);
    Poly via_oracle = Poly::InterpolateLagrange(ctx, xs, ys);
    EXPECT_EQ(via_dispatch.coeffs(), via_oracle.coeffs()) << "n=" << n;
    // Vanishing: the tree root vs the legacy running product.
    Poly v = Poly::Vanishing(ctx, xs);
    std::vector<FpElem> legacy = {ctx.One()};
    for (const FpElem& x : xs) {
      std::vector<FpElem> node = {ctx.Neg(x), ctx.One()};
      legacy = NaiveConvolution(ctx, legacy, node);
    }
    EXPECT_EQ(v.coeffs(), legacy) << "n=" << n;
    // Interpolant actually passes through the points.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(via_dispatch.Eval(ctx, xs[i]), ys[i]);
    }
  }
}

TEST(PolyEngine, EvalManyMatchesPerPointEval) {
  FpCtx ctx(field::StandardPrimeBe(512));
  Rng rng(77);
  for (std::size_t n : {1u, 16u, 100u}) {
    auto xs = RandomElems(ctx, rng, n);
    Poly f = Poly::Random(ctx, rng, 20);
    std::vector<FpElem> expect;
    for (const FpElem& x : xs) expect.push_back(f.Eval(ctx, x));
    EXPECT_EQ(EvalMany(ctx, f.coeffs(), xs), expect) << "n=" << n;
  }
}

TEST(PolyEngine, DuplicatePointsRejected) {
  FpCtx ctx(field::StandardPrimeBe(256));
  auto xs = DomainPoints(ctx, 8);
  xs[5] = xs[2];
  EXPECT_THROW(SubproductTree(ctx, xs), Error);
}

TEST(PolyEngine, DomainCacheHitsMissesAndClear) {
  FpCtx ctx(field::StandardPrimeBe(256));
  ClearPolyDomainCache();
  ResetPolyEngineStats();
  auto xs = DomainPoints(ctx, 20);
  auto a = CachedSubproductTree(ctx, xs);
  auto b = CachedSubproductTree(ctx, xs);
  EXPECT_EQ(a.get(), b.get());  // second lookup reuses the built tree
  PolyEngineStats st = GetPolyEngineStats();
  EXPECT_EQ(st.domain_misses, 1u);
  EXPECT_GE(st.domain_hits, 1u);
  EXPECT_GE(PolyDomainCacheSize(), 1u);
  ClearPolyDomainCache();
  EXPECT_EQ(PolyDomainCacheSize(), 0u);
  // Distinct point sets are distinct cache entries.
  auto c = CachedSubproductTree(ctx, DomainPoints(ctx, 21));
  EXPECT_NE(c->size(), a->size());
}

TEST(PolyEngine, TreeBuildEvalInterpBitIdenticalAcrossPoolSizes) {
  // Many workers racing to build/lookup the same cached domain and running
  // eval/interp concurrently must produce exactly the serial results -- the
  // engine is pure serial compute and the cache resolves build races by
  // first-insert-wins over identical values.
  FpCtx ctx(field::StandardPrimeBe(256));
  const std::size_t n = 33;
  auto run = [&](std::size_t pool_threads) {
    SetGlobalPoolThreads(pool_threads);
    ClearPolyDomainCache();
    Rng rng(555);
    auto xs = DomainPoints(ctx, n);
    std::vector<std::vector<FpElem>> ys(8);
    for (auto& y : ys) y = RandomElems(ctx, rng, n);
    std::vector<std::vector<FpElem>> coeffs(ys.size());
    std::vector<std::vector<FpElem>> evals(ys.size());
    GlobalPool().ParallelFor(0, ys.size(), [&](std::size_t i) {
      auto tree = CachedSubproductTree(ctx, xs);
      coeffs[i] = tree->Interpolate(ys[i]);
      evals[i] = tree->EvalAll(coeffs[i]);
    });
    return std::pair{coeffs, evals};
  };
  auto base = run(1);
  auto pool2 = run(2);
  auto pool8 = run(8);
  SetGlobalPoolThreads(1);
  EXPECT_EQ(base, pool2);
  EXPECT_EQ(base, pool8);
  // Round trip: evaluating the interpolant reproduces the inputs.
  Rng rng(555);
  auto first = RandomElems(ctx, rng, n);
  EXPECT_EQ(base.second[0], first);
}

TEST(BatchInv, MatchesScalarInverseAcrossPrimes) {
  for (std::size_t bits : kPrimeBits) {
    FpCtx ctx(field::StandardPrimeBe(bits));
    Rng rng(bits + 3);
    std::vector<FpElem> v = RandomElems(ctx, rng, 17);
    std::vector<FpElem> expect;
    for (const FpElem& e : v) expect.push_back(ctx.Inv(e));
    ctx.BatchInv(v);
    EXPECT_EQ(v, expect) << bits << "-bit";
  }
}

TEST(BatchInv, ZeroElementsStayZeroWithoutPoisoningNeighbors) {
  // A zero anywhere in the batch used to be undefined behavior of the
  // prefix-product trick (0 poisons every prefix); now zeros are skipped via
  // a compacted view and every nonzero entry still gets its exact inverse.
  FpCtx ctx(field::StandardPrimeBe(256));
  Rng rng(31337);
  auto check = [&](std::vector<std::size_t> zero_at, std::size_t n) {
    std::vector<FpElem> v = RandomElems(ctx, rng, n);
    for (std::size_t i : zero_at) v[i] = ctx.Zero();
    std::vector<FpElem> expect;
    for (const FpElem& e : v) {
      expect.push_back(ctx.IsZero(e) ? ctx.Zero() : ctx.Inv(e));
    }
    ctx.BatchInv(v);
    EXPECT_EQ(v, expect);
  };
  check({0}, 8);             // first
  check({7}, 8);             // last
  check({3}, 8);             // middle
  check({0, 2, 4, 6}, 8);    // sprinkled
  check({0, 1, 2, 3}, 4);    // all zero
  check({0}, 1);             // single zero element
  check({}, 6);              // control: no zeros, fast path
}

TEST(BatchInv, EmptySpanIsANoOp) {
  FpCtx ctx(field::StandardPrimeBe(256));
  std::vector<FpElem> v;
  ctx.BatchInv(v);  // must not crash
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace pisces::math
