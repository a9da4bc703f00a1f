// Polynomial, interpolation, matrix and hyperinvertibility tests.
#include <gtest/gtest.h>

#include "common/task_pool.h"
#include "field/primes.h"
#include "math/matrix.h"
#include "math/poly.h"
#include "math/weight_cache.h"
#include "obs/registry.h"

namespace pisces::math {
namespace {

// Point counts d + 1 that the figure shapes reach (n = 21..37 hosts); the
// generic algebra must be exact there as well as at the small sizes.
constexpr std::size_t kFigurePointCounts[] = {17, 23, 31, 37};

// Random points from one process-wide stream: no earlier call handed them out
// (with overwhelming probability), so a test meets a cold denominator-cache
// entry without clearing the cache, also under --gtest_repeat. Random rather
// than consecutive: the denominators of consecutive integers do not depend on
// where the run starts, so a cache keyed on the wrong thing would go unseen.
std::vector<FpElem> FreshPoints(const field::FpCtx& ctx, std::size_t n) {
  static Rng rng(2024);
  std::vector<FpElem> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(ctx.Random(rng));
  return xs;
}

std::uint64_t DenominatorMisses() {
  return obs::Value(obs::TakeSnapshot(), "math.pd_misses");
}

class MathTest : public ::testing::Test {
 protected:
  MathTest() : ctx_(field::StandardPrimeBe(256)), rng_(11) {}
  field::FpCtx ctx_;
  Rng rng_;

  FpElem E(std::uint64_t v) { return ctx_.FromUint64(v); }
};

TEST_F(MathTest, EvalHorner) {
  // f(x) = 3 + 2x + x^2
  Poly f(std::vector<FpElem>{E(3), E(2), E(1)});
  EXPECT_TRUE(ctx_.Eq(f.Eval(ctx_, E(0)), E(3)));
  EXPECT_TRUE(ctx_.Eq(f.Eval(ctx_, E(1)), E(6)));
  EXPECT_TRUE(ctx_.Eq(f.Eval(ctx_, E(10)), E(123)));
}

TEST_F(MathTest, InterpolateRecoversPolynomial) {
  std::vector<std::size_t> degs{0, 1, 3, 7, 15};
  for (std::size_t m : kFigurePointCounts) degs.push_back(m - 1);
  for (std::size_t deg : degs) {
    Poly f = Poly::Random(ctx_, rng_, deg);
    std::vector<FpElem> xs, ys;
    for (std::size_t i = 0; i <= deg; ++i) {
      xs.push_back(E(i + 1));
      ys.push_back(f.Eval(ctx_, xs.back()));
    }
    Poly g = Poly::Interpolate(ctx_, xs, ys);
    for (int probe = 0; probe < 5; ++probe) {
      FpElem x = ctx_.Random(rng_);
      EXPECT_TRUE(ctx_.Eq(f.Eval(ctx_, x), g.Eval(ctx_, x))) << deg;
    }
  }
}

TEST_F(MathTest, InterpolateDuplicateXThrows) {
  std::vector<FpElem> xs{E(1), E(1)};
  std::vector<FpElem> ys{E(2), E(3)};
  EXPECT_THROW(Poly::Interpolate(ctx_, xs, ys), Error);
}

TEST_F(MathTest, RandomWithConstraintsHitsConstraints) {
  std::vector<FpElem> xs{E(1), E(2), E(3)};
  std::vector<FpElem> ys{ctx_.Random(rng_), ctx_.Random(rng_), ctx_.Random(rng_)};
  for (int iter = 0; iter < 5; ++iter) {
    Poly f = Poly::RandomWithConstraints(ctx_, rng_, 8, xs, ys);
    EXPECT_LE(f.degree(), 8u);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_TRUE(ctx_.Eq(f.Eval(ctx_, xs[i]), ys[i]));
    }
  }
}

TEST_F(MathTest, RandomWithConstraintsIsActuallyRandom) {
  std::vector<FpElem> xs{E(1)};
  std::vector<FpElem> ys{E(5)};
  Poly f = Poly::RandomWithConstraints(ctx_, rng_, 4, xs, ys);
  Poly g = Poly::RandomWithConstraints(ctx_, rng_, 4, xs, ys);
  // Two independent draws agree at the constraint but (whp) nowhere else.
  EXPECT_TRUE(ctx_.Eq(f.Eval(ctx_, E(1)), g.Eval(ctx_, E(1))));
  EXPECT_FALSE(ctx_.Eq(f.Eval(ctx_, E(2)), g.Eval(ctx_, E(2))));
}

TEST_F(MathTest, VanishingPolyVanishes) {
  std::vector<FpElem> roots{E(3), E(5), E(9)};
  Poly w = Poly::Vanishing(ctx_, roots);
  EXPECT_EQ(w.degree(), 3u);
  for (const auto& r : roots) EXPECT_TRUE(ctx_.IsZero(w.Eval(ctx_, r)));
  EXPECT_FALSE(ctx_.IsZero(w.Eval(ctx_, E(4))));

  for (std::size_t m : kFigurePointCounts) {
    roots.clear();
    for (std::size_t i = 0; i < m; ++i) roots.push_back(E(2 * i + 3));
    w = Poly::Vanishing(ctx_, roots);
    EXPECT_EQ(w.degree(), m);
    EXPECT_TRUE(ctx_.Eq(w.coeffs().back(), ctx_.One())) << m;  // monic
    for (const auto& r : roots) EXPECT_TRUE(ctx_.IsZero(w.Eval(ctx_, r))) << m;
    EXPECT_FALSE(ctx_.IsZero(w.Eval(ctx_, E(4)))) << m;
  }
}

TEST_F(MathTest, AddMulDegreeAndValues) {
  Poly f = Poly::Random(ctx_, rng_, 3);
  Poly g = Poly::Random(ctx_, rng_, 5);
  Poly sum = Poly::Add(ctx_, f, g);
  Poly prod = Poly::Mul(ctx_, f, g);
  FpElem x = ctx_.Random(rng_);
  EXPECT_TRUE(ctx_.Eq(sum.Eval(ctx_, x),
                      ctx_.Add(f.Eval(ctx_, x), g.Eval(ctx_, x))));
  EXPECT_TRUE(ctx_.Eq(prod.Eval(ctx_, x),
                      ctx_.Mul(f.Eval(ctx_, x), g.Eval(ctx_, x))));
  EXPECT_EQ(prod.degree(), 8u);
}

// The O(a*b) convolution Poly::Mul's lazy-dot schoolbook must reproduce
// exactly.
std::vector<FpElem> NaiveConvolution(const field::FpCtx& ctx,
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

TEST(Poly, MulMatchesNaiveConvolutionAcrossPrimes) {
  // Square, unbalanced and single-coefficient shapes, up to well past the
  // largest product the protocol forms (vanishing polynomial times mask).
  const std::size_t shapes[][2] = {{1, 1},  {2, 3},   {23, 23}, {24, 24},
                                   {25, 25}, {40, 7},  {7, 40},  {64, 33},
                                   {100, 100}, {129, 64}};
  for (std::size_t bits : {256, 512, 1024, 2048}) {
    field::FpCtx ctx(field::StandardPrimeBe(bits));
    Rng rng(bits);
    for (const auto& s : shapes) {
      Poly a = Poly::Random(ctx, rng, s[0] - 1);
      Poly b = Poly::Random(ctx, rng, s[1] - 1);
      EXPECT_EQ(Poly::Mul(ctx, a, b).coeffs(),
                NaiveConvolution(ctx, a.coeffs(), b.coeffs()))
          << bits << "-bit, " << s[0] << "x" << s[1];
    }
  }
  // Empty operands: empty product.
  field::FpCtx ctx(field::StandardPrimeBe(256));
  Rng rng(9);
  Poly a = Poly::Random(ctx, rng, 4);
  EXPECT_EQ(Poly::Mul(ctx, a, Poly()).size(), 0u);
  EXPECT_EQ(Poly::Mul(ctx, Poly(), a).size(), 0u);
}

TEST_F(MathTest, LagrangeEvalMatchesInterpolation) {
  Poly f = Poly::Random(ctx_, rng_, 6);
  std::vector<FpElem> xs, ys;
  for (std::size_t i = 0; i < 7; ++i) {
    xs.push_back(E(i + 2));
    ys.push_back(f.Eval(ctx_, xs.back()));
  }
  FpElem x = E(100);
  EXPECT_TRUE(ctx_.Eq(LagrangeEval(ctx_, xs, ys, x), f.Eval(ctx_, x)));
}

TEST_F(MathTest, LagrangeCoeffsMultiMatchesSingle) {
  std::vector<std::size_t> counts{9};
  counts.insert(counts.end(), std::begin(kFigurePointCounts),
                std::end(kFigurePointCounts));
  for (std::size_t m : counts) {
    std::vector<FpElem> xs, ys;
    Poly f = Poly::Random(ctx_, rng_, m - 1);
    for (std::size_t i = 0; i < m; ++i) {
      xs.push_back(E(i + 1));
      ys.push_back(f.Eval(ctx_, xs.back()));
    }
    std::vector<FpElem> points{E(50), E(61), E(72)};
    auto multi = LagrangeCoeffsMulti(ctx_, xs, points);
    ASSERT_EQ(multi.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      auto single = LagrangeCoeffs(ctx_, xs, points[p]);
      ASSERT_EQ(multi[p].size(), single.size());
      for (std::size_t i = 0; i < single.size(); ++i) {
        EXPECT_TRUE(ctx_.Eq(multi[p][i], single[i])) << m;
      }
      // The weights reproduce the polynomial off the base set.
      EXPECT_TRUE(ctx_.Eq(ctx_.Dot(single, ys), f.Eval(ctx_, points[p])))
          << m;
    }
  }
}

TEST_F(MathTest, PointsOnLowDegreeDetects) {
  Poly f = Poly::Random(ctx_, rng_, 4);
  std::vector<FpElem> xs, ys;
  for (std::size_t i = 0; i < 10; ++i) {
    xs.push_back(E(i + 1));
    ys.push_back(f.Eval(ctx_, xs.back()));
  }
  EXPECT_TRUE(PointsOnLowDegree(ctx_, xs, ys, 4));
  EXPECT_TRUE(PointsOnLowDegree(ctx_, xs, ys, 6));  // deg 4 is also deg <= 6
  ys[7] = ctx_.Add(ys[7], ctx_.One());
  EXPECT_FALSE(PointsOnLowDegree(ctx_, xs, ys, 4));
}

TEST_F(MathTest, PointCheckerAgreesWithPointsOnLowDegree) {
  Poly f = Poly::Random(ctx_, rng_, 5);
  std::vector<FpElem> xs, ys;
  for (std::size_t i = 0; i < 12; ++i) {
    xs.push_back(E(i + 3));
    ys.push_back(f.Eval(ctx_, xs.back()));
  }
  PointChecker checker(ctx_, xs, 5);
  EXPECT_TRUE(checker.Consistent(ys));
  FpElem probe = E(999);
  EXPECT_TRUE(ctx_.Eq(checker.EvalAt(probe, ys), f.Eval(ctx_, probe)));
  ys[11] = ctx_.Add(ys[11], ctx_.One());
  EXPECT_FALSE(checker.Consistent(ys));
}

TEST_F(MathTest, MatrixInverseRoundTrip) {
  const std::size_t n = 6;
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m.At(i, j) = ctx_.Random(rng_);
  }
  auto inv = m.Inverse(ctx_);
  ASSERT_TRUE(inv.has_value());  // random matrix is invertible whp
  Matrix prod = m.Mul(ctx_, *inv);
  EXPECT_TRUE(prod.Eq(ctx_, Matrix::Identity(ctx_, n)));
}

TEST_F(MathTest, SingularMatrixHasNoInverse) {
  Matrix m(2, 2);
  m.At(0, 0) = E(1);
  m.At(0, 1) = E(2);
  m.At(1, 0) = E(2);
  m.At(1, 1) = E(4);
  EXPECT_FALSE(m.Inverse(ctx_).has_value());
}

TEST_F(MathTest, VandermondeShape) {
  std::vector<FpElem> xs{E(2), E(3)};
  Matrix v = Vandermonde(ctx_, xs, 3);
  EXPECT_TRUE(ctx_.Eq(v.At(0, 0), E(1)));
  EXPECT_TRUE(ctx_.Eq(v.At(0, 1), E(2)));
  EXPECT_TRUE(ctx_.Eq(v.At(0, 2), E(4)));
  EXPECT_TRUE(ctx_.Eq(v.At(1, 2), E(9)));
}

TEST_F(MathTest, HyperInvertibleEverySquareSubmatrixInvertible) {
  const std::size_t n = 6;
  Matrix m = HyperInvertible(ctx_, n, n);
  // Exhaustively check all square submatrices of size 1..3 plus the full
  // matrix (checking all sizes is exponential; these cover the property).
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5};
  for (std::size_t size : {1u, 2u, 3u}) {
    // a few deterministic index subsets per size
    for (std::size_t shift = 0; shift + size <= n; ++shift) {
      std::vector<std::size_t> rows(idx.begin() + shift,
                                    idx.begin() + shift + size);
      for (std::size_t cshift = 0; cshift + size <= n; ++cshift) {
        std::vector<std::size_t> cols(idx.begin() + cshift,
                                      idx.begin() + cshift + size);
        Matrix sub = m.Select(rows, cols);
        EXPECT_TRUE(sub.Inverse(ctx_).has_value())
            << "singular submatrix size=" << size << " r=" << shift
            << " c=" << cshift;
      }
    }
  }
  EXPECT_TRUE(m.Inverse(ctx_).has_value());
}

TEST_F(MathTest, HyperInvertibleActsAsInterpolationMap) {
  // M maps (f(1..n)) to (f(n+1..2n)) for deg <= n-1 polynomials.
  const std::size_t n = 5;
  Matrix m = HyperInvertible(ctx_, n, n);
  Poly f = Poly::Random(ctx_, rng_, n - 1);
  std::vector<FpElem> in(n), expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = f.Eval(ctx_, E(i + 1));
    expected[i] = f.Eval(ctx_, E(n + 1 + i));
  }
  auto out = m.MulVec(ctx_, in);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(ctx_.Eq(out[i], expected[i]));
  }
}

// Every DomainCache keys on the modulus, never the FpCtx address: two live
// contexts over one prime share each entry, a cached entry outlives the
// context that built it, and two primes never share an entry even when the
// point limbs are identical.
TEST(DomainCacheKey, SamePrimeSharesEntriesDifferentPrimesNever) {
  const Bytes prime = field::StandardPrimeBe(256);
  field::FpCtx a(prime);
  field::FpCtx b(prime);
  std::vector<FpElem> xs, ev;
  for (std::uint64_t i = 1; i <= 20; ++i) xs.push_back(a.FromUint64(i));
  for (std::uint64_t i = 21; i <= 24; ++i) ev.push_back(a.FromUint64(i));
  std::span<const FpElem> betas(xs.data(), 3);

  EXPECT_EQ(CachedLagrangeWeights(a, xs, ev).get(),
            CachedLagrangeWeights(b, xs, ev).get());
  EXPECT_EQ(CachedLagrangeWeights(a, betas, ev).get(),
            CachedLagrangeWeights(b, betas, ev).get());
  EXPECT_EQ(CachedSharingGenerator(a, ev, betas, 5).get(),
            CachedSharingGenerator(b, ev, betas, 5).get());

  // The denominator cache: a context that is gone fills a cold entry (one
  // miss), and both live contexts over the same prime then reuse it.
  const std::vector<FpElem> fresh = FreshPoints(a, 20);
  const std::uint64_t misses = DenominatorMisses();
  std::vector<FpElem> w;
  {
    field::FpCtx gone(prime);
    w = LagrangeCoeffs(gone, fresh, ev[0]);
  }
  EXPECT_EQ(DenominatorMisses(), misses + 1);
  EXPECT_EQ(LagrangeCoeffs(a, fresh, ev[0]), w);
  EXPECT_EQ(LagrangeCoeffs(b, fresh, ev[0]), w);
  EXPECT_EQ(DenominatorMisses(), misses + 1);

  // Two primes of the same byte length, 2^61 - 1 and 2^63 - 25, and points
  // whose raw limbs are the same small values in both fields: only the
  // modulus bytes tell the keys apart.
  const Bytes m61{0x1F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  const Bytes m63{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xE7};
  Rng mr_rng(5);
  ASSERT_TRUE(field::MillerRabinIsPrime(m61, 20, mr_rng));
  ASSERT_TRUE(field::MillerRabinIsPrime(m63, 20, mr_rng));
  field::FpCtx p61(m61);
  field::FpCtx p63(m63);
  std::vector<FpElem> raw(5);
  for (std::size_t i = 0; i < raw.size(); ++i) raw[i].v[0] = i + 1;
  const std::span<const FpElem> base(raw.data(), 3), at(raw.data() + 3, 2);
  auto w61 = CachedLagrangeWeights(p61, base, at);
  auto w63 = CachedLagrangeWeights(p63, base, at);
  EXPECT_NE(w61.get(), w63.get());
  EXPECT_EQ(*w61, LagrangeCoeffsMulti(p61, base, at));
  EXPECT_EQ(*w63, LagrangeCoeffsMulti(p63, base, at));
  // Limbs fresh to p61, and valid (and so far unused) in p63 as well.
  const std::vector<FpElem> cold = FreshPoints(p61, 4);
  const std::uint64_t before = DenominatorMisses();
  LagrangeCoeffs(p61, cold, raw[0]);
  LagrangeCoeffs(p63, cold, raw[0]);
  EXPECT_EQ(DenominatorMisses(), before + 2);
}

// Pool workers race to fill one cold denominator entry while interpolating
// and forming weights over it. Every pool size gets its own fresh point set,
// but the values are those of fixed polynomials g_k, so the interpolants are
// g_k's coefficients and the weights give g_k(at): the serial and pooled
// runs must agree bit for bit.
TEST(DomainCacheKey, DenominatorFillRaceBitIdenticalAcrossPoolSizes) {
  field::FpCtx ctx(field::StandardPrimeBe(256));
  const std::size_t n = 33;
  Rng rng(555);
  std::vector<Poly> gs;
  for (int k = 0; k < 8; ++k) gs.push_back(Poly::Random(ctx, rng, n - 1));
  const FpElem at = ctx.FromUint64(7);
  auto run = [&](std::size_t pool_threads) {
    SetGlobalPoolThreads(pool_threads);
    const std::vector<FpElem> xs = FreshPoints(ctx, n);
    std::vector<std::vector<FpElem>> coeffs(gs.size());
    std::vector<FpElem> at_values(gs.size());
    GlobalPool().ParallelFor(0, gs.size(), [&](std::size_t k) {
      std::vector<FpElem> ys;
      for (const FpElem& x : xs) ys.push_back(gs[k].Eval(ctx, x));
      coeffs[k] = Poly::Interpolate(ctx, xs, ys).coeffs();
      at_values[k] = ctx.Dot(LagrangeCoeffsMulti(ctx, xs, {&at, 1})[0], ys);
    });
    return std::pair{coeffs, at_values};
  };
  auto base = run(1);
  auto pool2 = run(2);
  auto pool8 = run(8);
  SetGlobalPoolThreads(1);
  EXPECT_EQ(base, pool2);
  EXPECT_EQ(base, pool8);
  for (std::size_t k = 0; k < gs.size(); ++k) {
    EXPECT_EQ(base.first[k], gs[k].coeffs()) << k;
    EXPECT_EQ(base.second[k], gs[k].Eval(ctx, at)) << k;
  }
}

}  // namespace
}  // namespace pisces::math
