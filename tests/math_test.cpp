// Polynomial, interpolation, matrix and hyperinvertibility tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

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

// Every row of a WeightRows as field weights.
std::vector<std::vector<FpElem>> FieldRows(const field::FpCtx& ctx,
                                           const WeightRows& rows) {
  std::vector<std::vector<FpElem>> out;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    out.push_back(rows.FieldRow(ctx, r));
  }
  return out;
}

// Values as element encodings from an odd byte offset: rows read them
// through pointers and may assume no alignment.
struct Encodings {
  Encodings(const field::FpCtx& ctx, std::span<const FpElem> vals)
      : bytes(1 + vals.size() * ctx.elem_bytes()) {
    for (std::size_t i = 0; i < vals.size(); ++i) {
      std::uint8_t* at = bytes.data() + 1 + i * ctx.elem_bytes();
      ctx.ToBytes(vals[i], at);
      ptrs.push_back(at);
    }
  }
  Bytes bytes;
  std::vector<const std::uint8_t*> ptrs;
};

// Every row applied to vals by EvalInto, read from and written to odd
// offsets.
std::vector<FpElem> EvalAll(const field::FpCtx& ctx, const WeightRows& rows,
                            std::span<const FpElem> vals) {
  const Encodings ys(ctx, vals);
  const std::size_t eb = ctx.elem_bytes();
  Bytes out(1 + rows.rows() * eb);
  std::vector<std::uint8_t*> dst;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    dst.push_back(out.data() + 1 + r * eb);
  }
  rows.EvalInto(ctx, ys.ptrs, dst);
  std::vector<FpElem> got;
  for (const std::uint8_t* y : dst) got.push_back(ctx.FromBytes({y, eb}));
  return got;
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
  EXPECT_TRUE(checker.Consistent(Encodings(ctx_, ys).ptrs));
  FpElem probe = E(999);
  EXPECT_TRUE(ctx_.Eq(EvalAll(ctx_, checker.WeightsAt({&probe, 1}), ys)[0],
                      f.Eval(ctx_, probe)));
  ys[11] = ctx_.Add(ys[11], ctx_.One());
  EXPECT_FALSE(checker.Consistent(Encodings(ctx_, ys).ptrs));
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
  EXPECT_EQ(FieldRows(p61, *w61), LagrangeCoeffsMulti(p61, base, at));
  EXPECT_EQ(FieldRows(p63, *w63), LagrangeCoeffsMulti(p63, base, at));
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

// Integer rows against today's field weights (the oracle) at the protocol's
// nodes: secrets at beta_j = j + 1, shares at alpha_i = l + 1 + i. Seeded
// random responder and survivor subsets; each row must equal the
// LagrangeCoeffsMulti weights (N_k * L^{-1}) and give the oracle's
// parity/vanish verdict, on consistent values and with one value corrupted.
struct RowShape {
  std::size_t n, t, l;
};

// Which row sets of a shape took the integer form, over every trial.
struct RowForms {
  bool recon = true;   // responders' rows at the betas (downloads)
  bool decode = true;  // survivors' parity rows and the row at a rebooted
                       // host's alpha (recovery's masked-share decode)
  bool parity = true;  // VSS degree checks over the holders
  bool vanish = true;  // VSS zero checks at the betas
  bool gen = true;     // the sharing generator (uploads)
  bool any = false;

  void Note(bool& all, const WeightRows& rows) {
    all = all && rows.integer();
    any = any || rows.integer();
  }
};

std::vector<FpElem> Nodes(const field::FpCtx& ctx, std::uint64_t first,
                          std::size_t count) {
  std::vector<FpElem> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(ctx.FromUint64(first + i));
  }
  return out;
}

// The parties 0..n-1 in random order.
std::vector<std::size_t> Shuffled(Rng& rng, std::size_t n) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t i = n; i-- > 1;) std::swap(all[i], all[rng.Below(i + 1)]);
  return all;
}

// Rows over the first `width` of pts at `at`, applied to element encodings
// at odd offsets: equal to the oracle weights, with the oracle's values and
// set-level verdicts on the values of f (degree <= d, zero at the betas) at
// pts, clean and with one value corrupted. Rows below `parity` predict the
// value at at[r] (which is pts[width + r]); the rest evaluate, and must
// vanish when `vanish` is set. A set with exactly one wrong row fails
// Predicts, and (for a vanish set) Vanishes.
void CheckVerdicts(const field::FpCtx& ctx, const WeightRows& rows,
                   std::span<const FpElem> pts, std::size_t width,
                   std::span<const FpElem> at, std::size_t parity,
                   bool vanish, const Poly& f, Rng& rng) {
  const auto oracle = LagrangeCoeffsMulti(ctx, pts.first(width), at);
  EXPECT_EQ(FieldRows(ctx, rows), oracle);
  // The oracle's value of every row on the values of g at pts.
  auto predict = [&](const Poly& g) {
    std::vector<FpElem> vals, out;
    for (const FpElem& x : pts) vals.push_back(g.Eval(ctx, x));
    for (const auto& row : oracle) {
      out.push_back(ctx.Dot(row, std::span(vals).first(width)));
    }
    return std::pair{vals, out};
  };
  auto [vals, predicted] = predict(f);
  for (int corrupt = 0; corrupt < 2; ++corrupt) {
    if (corrupt == 1) {
      const std::size_t c = rng.Below(vals.size());
      vals[c] = ctx.Add(vals[c], ctx.RandomNonZero(rng));
      for (std::size_t r = 0; r < at.size(); ++r) {
        predicted[r] = ctx.Dot(oracle[r], std::span(vals).first(width));
      }
    }
    const Encodings ys(ctx, vals);
    EXPECT_EQ(EvalAll(ctx, rows, vals), predicted);
    // Parity rows expect the value at their point, the others the oracle's.
    std::vector<FpElem> expected = predicted;
    bool parity_ok = true;
    for (std::size_t r = 0; r < parity; ++r) {
      expected[r] = vals[width + r];
      parity_ok = parity_ok && predicted[r] == expected[r];
    }
    const bool verdict =
        rows.Predicts(ctx, ys.ptrs, Encodings(ctx, expected).ptrs);
    EXPECT_EQ(verdict, parity_ok);
    const bool zero = std::all_of(predicted.begin(), predicted.end(),
                                  [&](const FpElem& y) { return ctx.IsZero(y); });
    EXPECT_EQ(rows.Vanishes(ctx, ys.ptrs), zero);
    if (corrupt == 0) {
      EXPECT_TRUE(verdict);
      if (vanish) {
        EXPECT_TRUE(zero);
      }
    }
  }
  // Exactly one wrong row r.
  const std::size_t r = rng.Below(at.size());
  std::tie(vals, predicted) = predict(f);
  std::vector<FpElem> expected = predicted;
  expected[r] = ctx.Add(expected[r], ctx.RandomNonZero(rng));
  EXPECT_FALSE(rows.Predicts(ctx, Encodings(ctx, vals).ptrs,
                             Encodings(ctx, expected).ptrs));
  if (!vanish) return;
  // f plus a polynomial of degree < width that is zero at every other row's
  // point and not at at[r].
  std::vector<FpElem> others(at.begin(), at.end());
  others.erase(others.begin() + r);
  std::tie(vals, predicted) =
      predict(Poly::Add(ctx, f, Poly::Vanishing(ctx, others)));
  for (std::size_t s = 0; s < at.size(); ++s) {
    ASSERT_EQ(ctx.IsZero(predicted[s]), s != r) << s;
  }
  EXPECT_FALSE(rows.Vanishes(ctx, Encodings(ctx, vals).ptrs));
}

RowForms RowsMatchOracle(const field::FpCtx& ctx, const RowShape& s,
                         Rng& rng) {
  const std::size_t d = s.t + s.l;
  const std::vector<FpElem> betas = Nodes(ctx, 1, s.l);
  const std::vector<FpElem> alphas = Nodes(ctx, s.l + 1, s.n);
  const Poly f = Poly::Mul(ctx, Poly::Vanishing(ctx, betas),
                           Poly::Random(ctx, rng, d - s.l));
  RowForms forms;
  for (int trial = 0; trial < 3; ++trial) {
    // Reconstruction: d+1 responders in random order, one row per beta.
    const std::vector<std::size_t> order = Shuffled(rng, s.n);
    std::vector<FpElem> xs;
    for (std::size_t k = 0; k <= d; ++k) xs.push_back(alphas[order[k]]);
    const WeightRows recon = WeightRows::Lagrange(ctx, xs, betas);
    forms.Note(forms.recon, recon);
    const auto oracle = LagrangeCoeffsMulti(ctx, xs, betas);
    EXPECT_EQ(FieldRows(ctx, recon), oracle);
    std::vector<FpElem> ys;
    for (std::size_t k = 0; k <= d; ++k) ys.push_back(ctx.Random(rng));
    const std::vector<FpElem> secrets = EvalAll(ctx, recon, ys);
    for (std::size_t r = 0; r < s.l; ++r) {
      EXPECT_EQ(secrets[r], ctx.Dot(oracle[r], ys));
    }

    // Recovery: up to 3 rebooted hosts; a budget of d+3 survivors in random
    // order decodes at the first rebooted host's alpha.
    const std::size_t rebooted = std::min<std::size_t>(3, s.n - d - 2);
    const std::size_t budget = std::min(s.n - rebooted, d + 3);
    std::vector<FpElem> pts;
    for (std::size_t k = 0; k < budget; ++k) {
      pts.push_back(alphas[order[rebooted + k]]);
    }
    std::vector<FpElem> at(pts.begin() + d + 1, pts.end());
    const std::size_t extras = at.size();
    at.push_back(alphas[order[0]]);
    const WeightRows decode =
        WeightRows::Lagrange(ctx, std::span(pts).first(d + 1), at);
    forms.Note(forms.decode, decode);
    CheckVerdicts(ctx, decode, pts, d + 1, at, extras, false, f, rng);

    // VSS checks: the surviving holders in party order; parity rows for the
    // holders past d+1, zero rows at the betas.
    std::vector<std::size_t> live(order.begin() + rebooted, order.end());
    std::sort(live.begin(), live.end());
    std::vector<FpElem> holders;
    for (std::size_t i : live) holders.push_back(alphas[i]);
    const std::span<const FpElem> extra(holders.begin() + d + 1,
                                        holders.end());
    const WeightRows parity = WeightRows::Lagrange(
        ctx, std::span(holders).first(d + 1), extra);
    const WeightRows vanish = WeightRows::Lagrange(
        ctx, std::span(holders).first(d + 1), betas);
    forms.Note(forms.parity, parity);
    forms.Note(forms.vanish, vanish);
    CheckVerdicts(ctx, parity, holders, d + 1, extra, extra.size(), false, f,
                  rng);
    CheckVerdicts(ctx, vanish, holders, d + 1, betas, 0, true, f, rng);
  }

  // The generator, against the construction it replaces.
  const WeightRows gen = WeightRows::Generator(ctx, alphas, betas, d);
  forms.Note(forms.gen, gen);
  const auto lagrange = LagrangeCoeffsMulti(ctx, betas, alphas);
  const Poly w = Poly::Vanishing(ctx, betas);
  std::vector<FpElem> su;
  for (std::size_t k = 0; k <= d; ++k) su.push_back(ctx.Random(rng));
  const std::vector<FpElem> shares = EvalAll(ctx, gen, su);
  for (std::size_t i = 0; i < s.n; ++i) {
    std::vector<FpElem> row = lagrange[i];
    FpElem mask = w.Eval(ctx, alphas[i]);
    for (std::size_t k = s.l; k <= d; ++k) {
      row.push_back(mask);
      mask = ctx.Mul(mask, alphas[i]);
    }
    EXPECT_EQ(gen.FieldRow(ctx, i), row) << i;
    EXPECT_EQ(shares[i], ctx.Dot(row, su)) << i;
  }
  return forms;
}

TEST(IntegerRows, FigureShapesMatchFieldWeights) {
  const field::FpCtx ctx(field::StandardPrimeBe(256));
  Rng rng(0x1D07);
  // Every fig12 shape (maximal l at r = 3): the decode and parity rows fit
  // in a word; downloads and zero checks extrapolate to the betas and fit
  // only at the smaller l.
  for (std::size_t n : {21, 29, 37}) {
    for (std::size_t t = 2; t <= 6; ++t) {
      const std::size_t r = std::min<std::size_t>(3, n - 3 * t - 1);
      const RowForms forms = RowsMatchOracle(ctx, {n, t, n - 3 * t - r}, rng);
      EXPECT_TRUE(forms.decode && forms.parity) << "n=" << n << " t=" << t;
    }
  }
  // The paper-best point and the serving shape: every row set.
  for (const RowShape& s : {RowShape{21, 4, 6}, RowShape{8, 1, 2}}) {
    const RowForms forms = RowsMatchOracle(ctx, s, rng);
    EXPECT_TRUE(forms.recon && forms.decode && forms.parity && forms.vanish &&
                forms.gen)
        << "n=" << s.n;
  }
  RowsMatchOracle(ctx, {41, 8, 12}, rng);
}

// Coefficients past 63 bits (n=64 t=10 l=20 reaches about 96) and moduli of
// at most 63 bits take the field form, and still match.
TEST(IntegerRows, WideCoefficientsAndSmallPrimesFallBack) {
  Rng rng(0xFA11);
  const field::FpCtx wide(field::StandardPrimeBe(256));
  EXPECT_FALSE(RowsMatchOracle(wide, {64, 10, 20}, rng).any);
  for (std::uint8_t p : {19, 23}) {
    const field::FpCtx small(Bytes{p});
    EXPECT_FALSE(RowsMatchOracle(small, {8, 1, 2}, rng).any) << int{p};
  }
}

// A node of the base set gives the unit row; nodes from 2^12 up take the
// field form; a repeated node falls back to the field form, which rejects
// it.
TEST(IntegerRows, NodeEvalPointIsUnitRowAndDuplicatesThrow) {
  const field::FpCtx ctx(field::StandardPrimeBe(256));
  const std::vector<FpElem> xs = Nodes(ctx, 3, 5);
  const WeightRows rows = WeightRows::Lagrange(ctx, xs, {&xs[2], 1});
  ASSERT_TRUE(rows.integer());
  EXPECT_EQ(rows.FieldRow(ctx, 0),
            LagrangeCoeffsMulti(ctx, xs, {&xs[2], 1})[0]);
  const std::vector<FpElem> far = Nodes(ctx, 4095, 3);
  const WeightRows wide = WeightRows::Lagrange(ctx, far, {&xs[0], 1});
  EXPECT_FALSE(wide.integer());
  EXPECT_EQ(wide.FieldRow(ctx, 0),
            LagrangeCoeffsMulti(ctx, far, {&xs[0], 1})[0]);
  std::vector<FpElem> dup = xs;
  dup[4] = dup[1];
  EXPECT_THROW(WeightRows::Lagrange(ctx, dup, {&xs[0], 1}), InvalidArgument);
}

}  // namespace
}  // namespace pisces::math
