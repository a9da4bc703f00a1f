// Differential suite for the width-specialized Montgomery kernels and the
// lazy-reduction dot product (field/fp_kernels.h, docs/field_kernels.md),
// and of the single-limb scalar kernel FpCtx::MulU64Add.
//
// The contract under test: for every standard prime size, the specialized
// kernels (Mul, Sqr) and the lazy Dot/DotAcc produce limb-for-limb identical
// results to the generic runtime-width oracle (an FpCtx constructed with
// KernelDispatch::kGeneric) and to the naive fold of Add(Mul(...)). Operands
// cover the edges the reduction bounds care about: 0, 1, 2, p-1, p-2, and the
// top-bit value 2^{g-1} (p is the largest prime below 2^g, so p-1 is the
// largest representable value "just below 2^g").
//
// Everything is seeded -- a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "field/fp.h"
#include "field/fp_kernels.h"
#include "field/primes.h"

namespace pisces::field {
namespace {

// Plain elements and Montgomery forms never mix without a conversion.
static_assert(!std::is_convertible_v<FpMont, FpElem>);
static_assert(!std::is_convertible_v<FpElem, FpMont>);
template <typename A, typename B>
concept Multipliable = requires(const FpCtx& c, A a, B b) { c.Mul(a, b); };
template <typename A, typename B>
concept Addable = requires(const FpCtx& c, A a, B b) { c.Add(a, b); };
static_assert(Multipliable<FpMont, FpElem> && !Multipliable<FpElem, FpMont>);
static_assert(Addable<FpElem, FpElem> && !Addable<FpMont, FpMont>);

class FieldKernelTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  FieldKernelTest()
      : fast_(StandardPrimeBe(GetParam())),
        oracle_(StandardPrimeBe(GetParam()), KernelDispatch::kGeneric),
        rng_(0xD07D07 ^ GetParam()) {}

  // Edge operands plus seeded random draws. Elements are context-agnostic
  // bit patterns (both contexts share the modulus), so values built with
  // either context compare bitwise.
  std::vector<FpElem> Operands(int randoms) {
    std::vector<FpElem> ops;
    ops.push_back(fast_.Zero());
    ops.push_back(fast_.One());
    ops.push_back(fast_.FromUint64(2));
    Bytes p_be = fast_.ModulusBytes();
    // p - 1 and p - 2 as little-endian byte strings.
    Bytes le(p_be.rbegin(), p_be.rend());
    le[0] -= 1;  // p is odd, so p-1 only touches the low byte
    ops.push_back(fast_.FromBytes(le));
    le[0] -= 1;
    ops.push_back(fast_.FromBytes(le));
    // 2^{g-1}: the top-bit value (< p since p is a g-bit prime).
    Bytes top(fast_.elem_bytes(), 0);
    top[top.size() - 1] = 0x80;
    ops.push_back(fast_.FromBytes(top));
    for (int i = 0; i < randoms; ++i) ops.push_back(fast_.Random(rng_));
    return ops;
  }

  // Scale work down at the large widths (the oracle is slow by design).
  int Randoms() const { return GetParam() <= 512 ? 12 : 4; }

  FpCtx fast_;
  FpCtx oracle_;
  Rng rng_;
};

TEST_P(FieldKernelTest, DispatchSelectsSpecializedWidth) {
  EXPECT_EQ(fast_.kernel_width(), GetParam() / 64);
  EXPECT_EQ(oracle_.kernel_width(), 0u);
  EXPECT_EQ(fast_.limbs(), oracle_.limbs());
}

TEST_P(FieldKernelTest, MulMatchesGenericOracle) {
  auto ops = Operands(Randoms());
  for (const FpElem& a : ops) {
    for (const FpElem& b : ops) {
      EXPECT_EQ(fast_.Mul(a, b), oracle_.Mul(a, b));
    }
  }
}

TEST_P(FieldKernelTest, SqrMatchesMulAndOracle) {
  auto ops = Operands(Randoms());
  for (const FpElem& a : ops) {
    FpElem s = fast_.Sqr(a);
    EXPECT_EQ(s, fast_.Mul(a, a));       // specialized sqr vs specialized mul
    EXPECT_EQ(s, oracle_.Sqr(a));        // vs generic sqr kernel
    EXPECT_EQ(s, oracle_.Mul(a, a));     // vs generic multiply oracle
  }
}

TEST_P(FieldKernelTest, PowRidesOnSqr) {
  for (int i = 0; i < 4; ++i) {
    FpElem a = fast_.Random(rng_);
    EXPECT_EQ(fast_.PowUint64(a, 1), oracle_.PowUint64(a, 1));
    EXPECT_EQ(fast_.PowUint64(a, 2), oracle_.PowUint64(a, 2));
    EXPECT_EQ(fast_.PowUint64(a, 0x123456789), oracle_.PowUint64(a, 0x123456789));
  }
}

TEST_P(FieldKernelTest, DotMatchesNaiveFoldAtAllLengths) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u, 32u, 100u}) {
    std::vector<FpElem> a, b;
    for (std::size_t i = 0; i < n; ++i) {
      a.push_back(fast_.Random(rng_));
      b.push_back(fast_.Random(rng_));
    }
    FpElem naive = fast_.Zero();
    for (std::size_t i = 0; i < n; ++i) {
      naive = fast_.Add(naive, fast_.Mul(a[i], b[i]));
    }
    EXPECT_EQ(fast_.Dot(a, b), naive) << "n=" << n;
    EXPECT_EQ(oracle_.Dot(a, b), naive) << "generic lazy path, n=" << n;
  }
}

TEST_P(FieldKernelTest, DotEdgeOperandsMaximizeAccumulator) {
  // All-(p-1) vectors maximize every product; length 100 stresses the
  // carry ripple into the accumulator's top limb.
  auto ops = Operands(0);
  const FpElem pm1 = ops[3];
  std::vector<FpElem> a(100, pm1), b(100, pm1);
  FpElem naive = fast_.Zero();
  for (std::size_t i = 0; i < a.size(); ++i) {
    naive = fast_.Add(naive, fast_.Mul(a[i], b[i]));
  }
  EXPECT_EQ(fast_.Dot(a, b), naive);
  EXPECT_EQ(oracle_.Dot(a, b), naive);
  // Mixed edges against randoms.
  std::vector<FpElem> c = Operands(6);
  std::vector<FpElem> d(c.rbegin(), c.rend());
  FpElem naive2 = fast_.Zero();
  for (std::size_t i = 0; i < c.size(); ++i) {
    naive2 = fast_.Add(naive2, fast_.Mul(c[i], d[i]));
  }
  EXPECT_EQ(fast_.Dot(c, d), naive2);
  EXPECT_EQ(oracle_.Dot(c, d), naive2);
}

TEST_P(FieldKernelTest, DotAliasedInputs) {
  std::vector<FpElem> a;
  for (int i = 0; i < 17; ++i) a.push_back(fast_.Random(rng_));
  FpElem naive = fast_.Zero();
  for (const FpElem& x : a) naive = fast_.Add(naive, fast_.Sqr(x));
  // Same span passed as both arguments.
  EXPECT_EQ(fast_.Dot(a, a), naive);
  EXPECT_EQ(oracle_.Dot(a, a), naive);
  // DotAcc fed the same element object on both sides.
  DotAcc acc(fast_);
  for (const FpElem& x : a) acc.MulAdd(x, x);
  EXPECT_EQ(acc.Reduce(), naive);
}

TEST_P(FieldKernelTest, DotAccMatchesDotAndSurvivesReduceResetCycles) {
  std::vector<FpElem> a, b;
  for (int i = 0; i < 23; ++i) {
    a.push_back(fast_.Random(rng_));
    b.push_back(fast_.Random(rng_));
  }
  DotAcc acc(fast_);
  EXPECT_TRUE(fast_.IsZero(acc.Reduce()));  // empty accumulator
  for (std::size_t i = 0; i < a.size(); ++i) acc.MulAdd(a[i], b[i]);
  FpElem want = fast_.Dot(a, b);
  EXPECT_EQ(acc.Reduce(), want);
  // Reduce is non-destructive: a second call gives the same answer, and
  // further accumulation continues from the same state.
  EXPECT_EQ(acc.Reduce(), want);
  acc.MulAdd(a[0], b[0]);
  EXPECT_EQ(acc.Reduce(), fast_.Add(want, fast_.Mul(a[0], b[0])));
  acc.Reset();
  EXPECT_TRUE(fast_.IsZero(acc.Reduce()));
}

TEST_P(FieldKernelTest, DotPerformsExactlyOneReductionPerOutput) {
  std::vector<FpElem> a, b;
  for (int i = 0; i < 19; ++i) {
    a.push_back(fast_.Random(rng_));
    b.push_back(fast_.Random(rng_));
  }
  KernelStatsSnapshot before = GetKernelStats();
  FpElem r = fast_.Dot(a, b);
  KernelStatsSnapshot after = GetKernelStats();
  EXPECT_FALSE(fast_.IsZero(r));  // overwhelming probability
  EXPECT_EQ(after.dot_calls - before.dot_calls, 1u);
  EXPECT_EQ(after.dot_products - before.dot_products, a.size());
  EXPECT_EQ(after.dot_reductions - before.dot_reductions, 1u);
#ifndef NDEBUG
  // Debug builds also count Montgomery multiplies: the whole dot pays
  // exactly ONE (the 2^64 fixup) instead of one reduction per product.
  EXPECT_EQ(after.mont_muls - before.mont_muls, 1u);
#endif
}

// Oracle for MulU64Add: s enters as a field element built from two 32-bit
// halves (each below any modulus over 2^32), then one Mul and one Add.
FpElem MulAddOracle(const FpCtx& ctx, const FpElem& a, std::uint64_t s,
                    const FpElem& b) {
  const FpElem s_elem = ctx.Add(
      ctx.Mul(ctx.FromUint64(s >> 32), ctx.FromUint64(std::uint64_t{1} << 32)),
      ctx.FromUint64(s & 0xFFFFFFFFu));
  return ctx.Add(ctx.Mul(a, s_elem), b);
}

// t mod p by Horner over t's limbs with Mul and Add: the oracle for
// ReduceWide.
FpElem WideOracle(const FpCtx& ctx, std::span<const std::uint64_t> t) {
  const FpElem two32 = ctx.FromUint64(std::uint64_t{1} << 32);
  const FpElem two64 = ctx.Mul(two32, two32);
  FpElem r = ctx.Zero();
  for (std::size_t i = t.size(); i-- > 0;) {
    r = ctx.Add(ctx.Mul(r, two64), MulAddOracle(ctx, ctx.One(), t[i],
                                                 ctx.Zero()));
  }
  return r;
}

// ReduceWide over k + e limbs for e = 0..4: zero, the largest allowed value
// p * 2^(64e) - 1, (p - 1) * 2^(64e), and random values below the bound.
void CheckReduceWide(const FpCtx& ctx, Rng& rng) {
  const std::size_t k = ctx.limbs();
  const std::span<const std::uint64_t> p = ctx.modulus();
  for (std::size_t e = 0; e <= 4; ++e) {
    std::vector<std::vector<std::uint64_t>> cases;
    cases.emplace_back(k + e, 0);
    std::vector<std::uint64_t> top(k + e, ~std::uint64_t{0});
    std::copy(p.begin(), p.end(), top.begin() + e);
    top[e] -= 1;  // p is odd: no borrow
    cases.push_back(top);
    std::fill(top.begin(), top.begin() + e, 0);
    cases.push_back(top);
    for (int i = 0; i < 20; ++i) {
      std::vector<std::uint64_t> t(k + e);
      for (std::size_t j = 0; j < e; ++j) t[j] = rng.Next();
      const FpElem hi = ctx.Random(rng);
      std::copy_n(hi.v.data(), k, t.begin() + e);
      cases.push_back(t);
    }
    for (std::vector<std::uint64_t>& t : cases) {
      const FpElem want = WideOracle(ctx, t);
      ASSERT_EQ(ctx.ReduceWide(t), want) << ctx.bits() << "-bit e=" << e;
    }
  }
}

// The scalars where the quotient digit is extreme, then 300 random
// (a, s, b); a and b also run over the edge operands.
void CheckMulU64Add(const FpCtx& ctx, const std::vector<FpElem>& edges,
                    Rng& rng) {
  const std::uint64_t kScalars[] = {0,
                                    1,
                                    2,
                                    0xFFFFFFFFu,
                                    std::uint64_t{1} << 63,
                                    ~std::uint64_t{0} - 1,
                                    ~std::uint64_t{0}};
  for (std::uint64_t s : kScalars) {
    for (const FpElem& a : edges) {
      for (const FpElem& b : edges) {
        ASSERT_EQ(ctx.MulU64Add(a, s, b), MulAddOracle(ctx, a, s, b))
            << ctx.bits() << "-bit s=" << s;
      }
    }
  }
  for (int i = 0; i < 300; ++i) {
    const FpElem a = ctx.Random(rng), b = ctx.Random(rng);
    const std::uint64_t s = rng.Next();
    ASSERT_EQ(ctx.MulU64Add(a, s, b), MulAddOracle(ctx, a, s, b))
        << ctx.bits() << "-bit s=" << s;
  }
}

// Oracle for DotI64Into: Dot against the coefficients as field elements, |c|
// built from FromUint64 halves (MulAddOracle), negated for c < 0.
FpElem DotI64Oracle(const FpCtx& ctx, const std::vector<FpElem>& a,
                    const std::vector<std::int64_t>& c) {
  std::vector<FpElem> w;
  for (std::int64_t ci : c) {
    const std::uint64_t mag = ci < 0 ? 0 - static_cast<std::uint64_t>(ci)
                                     : static_cast<std::uint64_t>(ci);
    const FpElem e = MulAddOracle(ctx, ctx.One(), mag, ctx.Zero());
    w.push_back(ci < 0 ? ctx.Neg(e) : e);
  }
  return ctx.Dot(a, w);
}

// DotI64Into over element encodings placed at an odd byte offset (nothing
// may assume alignment), against Dot with field weights (DotI64Oracle):
// 1..64 terms of random signed coefficients with 0, +-(2^63-1) and
// INT64_MIN mixed in, the same all negative, and each with a Montgomery
// scale against Mul of the oracle; then sums that come out negative, zero
// and an exact multiple of p, a 200-term row, and several rows in one call.
std::vector<FpElem> DotI64IntoRows(
    const FpCtx& ctx, const std::vector<FpElem>& a,
    const std::vector<std::vector<std::int64_t>>& rows,
    const std::vector<FpMont>& scales = {}) {
  const std::size_t eb = ctx.elem_bytes();
  Bytes buf(1 + a.size() * eb);
  std::vector<const std::uint8_t*> ptrs;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Bytes e = ctx.ToBytes(a[i]);
    std::copy(e.begin(), e.end(), buf.begin() + 1 + i * eb);
    ptrs.push_back(buf.data() + 1 + i * eb);
  }
  std::vector<std::int64_t> c;
  Bytes out(1 + rows.size() * eb);
  std::vector<std::uint8_t*> dst;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    c.insert(c.end(), rows[r].begin(), rows[r].end());
    dst.push_back(out.data() + 1 + r * eb);
  }
  ctx.DotI64Into(ptrs, c, scales, dst);
  std::vector<FpElem> sums;
  for (const std::uint8_t* d : dst) sums.push_back(ctx.FromBytes({d, eb}));
  return sums;
}

FpElem DotI64Into(const FpCtx& ctx, const std::vector<FpElem>& a,
                  const std::vector<std::int64_t>& c,
                  const FpMont* scale = nullptr) {
  std::vector<FpMont> scales;
  if (scale != nullptr) scales.push_back(*scale);
  return DotI64IntoRows(ctx, a, {c}, scales)[0];
}

// One-row DotI64Into against DotI64Oracle: 1..64 terms mixing the edge
// operands (p-1 among them) with random ones, and the edge coefficients 0,
// +-1, +-(2^63-1) and INT64_MIN with random words; then the accumulator's
// worst case, 64 terms (p-1) * INT64_MIN and 64 terms (p-1) * (2^63-1), and
// the empty sum.
void CheckDotI64(const FpCtx& ctx, const std::vector<FpElem>& edges,
                 Rng& rng) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kCoeffs[] = {0, 1, -1, kMax, -kMax, kMin, 0, 2};
  for (std::size_t len = 1; len <= 64; ++len) {
    std::vector<FpElem> a;
    std::vector<std::int64_t> c;
    for (std::size_t i = 0; i < len; ++i) {
      a.push_back(i % 2 == 0 ? edges[(i / 2) % edges.size()]
                             : ctx.Random(rng));
      c.push_back(i % 3 == 0 ? static_cast<std::int64_t>(rng.Next())
                             : kCoeffs[(i + len) % 8]);
    }
    ASSERT_EQ(DotI64Into(ctx, a, c), DotI64Oracle(ctx, a, c))
        << ctx.bits() << "-bit len=" << len;
  }
  const FpElem p_minus_1 = edges[3];
  for (std::int64_t extreme : {kMin, kMax}) {
    const std::vector<FpElem> a(64, p_minus_1);
    const std::vector<std::int64_t> c(64, extreme);
    ASSERT_EQ(DotI64Into(ctx, a, c), DotI64Oracle(ctx, a, c)) << ctx.bits();
  }
  EXPECT_EQ(DotI64Into(ctx, {}, {}), ctx.Zero());
}

void CheckDotI64Into(const FpCtx& ctx, const std::vector<FpElem>& edges,
                     Rng& rng) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t kCoeffs[] = {0, kMax, -kMax, kMin, 1, -1};
  const FpElem x = ctx.Random(rng);
  const FpMont xm = ctx.ToMont(x);
  for (std::size_t len = 1; len <= 64; ++len) {
    std::vector<FpElem> a;
    std::vector<std::int64_t> c, neg;
    for (std::size_t i = 0; i < len; ++i) {
      a.push_back(i % 3 == 0 ? edges[i % edges.size()] : ctx.Random(rng));
      c.push_back(i % 2 == 0 ? static_cast<std::int64_t>(rng.Next())
                             : kCoeffs[(i + len) % 6]);
      neg.push_back(c.back() > 0 ? -c.back() : c.back());
    }
    for (const auto& coeffs : {c, neg}) {
      const FpElem want = DotI64Oracle(ctx, a, coeffs);
      ASSERT_EQ(DotI64Into(ctx, a, coeffs), want)
          << ctx.bits() << "-bit len=" << len;
      ASSERT_EQ(DotI64Into(ctx, a, coeffs, &xm), ctx.Mul(x, want))
          << ctx.bits() << "-bit len=" << len;
    }
  }
  const FpElem one = ctx.One(), p_minus_1 = edges[3];
  EXPECT_EQ(DotI64Into(ctx, {one}, {-3}), ctx.Neg(ctx.FromUint64(3)));
  EXPECT_EQ(DotI64Into(ctx, {p_minus_1}, {kMin}),
            DotI64Oracle(ctx, {p_minus_1}, {kMin}));
  EXPECT_EQ(DotI64Into(ctx, {x, x}, {5, -5}), ctx.Zero());
  EXPECT_EQ(DotI64Into(ctx, {x}, {0}), ctx.Zero());
  // (p-1)*c + 1*c = p*c for both signs of c: exact multiples of p.
  for (std::int64_t m : {std::int64_t{1}, kMax, kMin, std::int64_t{-7}}) {
    EXPECT_EQ(DotI64Into(ctx, {p_minus_1, one}, {m, m}), ctx.Zero()) << m;
  }
  // A 200-term row.
  std::vector<FpElem> wide;
  std::vector<std::int64_t> wide_c;
  for (std::size_t i = 0; i < 200; ++i) {
    wide.push_back(i % 7 == 0 ? p_minus_1 : ctx.Random(rng));
    wide_c.push_back(static_cast<std::int64_t>(rng.Next()));
  }
  EXPECT_EQ(DotI64Into(ctx, wide, wide_c), DotI64Oracle(ctx, wide, wide_c));
  // Three rows over the same elements in one call, scaled by x, by
  // MontOne() (the multiply skipped) and by x.
  std::vector<std::vector<std::int64_t>> rows(3);
  for (auto& row : rows) {
    for (std::size_t i = 0; i < 9; ++i) {
      row.push_back(static_cast<std::int64_t>(rng.Next()));
    }
  }
  const std::vector<FpElem> nine(wide.begin(), wide.begin() + 9);
  const std::vector<FpElem> sums =
      DotI64IntoRows(ctx, nine, rows, {xm, ctx.MontOne(), xm});
  ASSERT_EQ(sums.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    const FpElem want = DotI64Oracle(ctx, nine, rows[r]);
    EXPECT_EQ(sums[r], r == 1 ? want : ctx.Mul(x, want)) << "row " << r;
  }
}

TEST_P(FieldKernelTest, DotI64IntoMatchesDotOnEncodings) {
  const std::vector<FpElem> edges = Operands(0);
  CheckDotI64Into(fast_, edges, rng_);
  CheckDotI64Into(oracle_, edges, rng_);
  // One counter bump per output, and the products it accumulated.
  const KernelStatsSnapshot before = GetKernelStats();
  EXPECT_EQ(DotI64Into(fast_, {fast_.One(), fast_.FromUint64(2)}, {3, -4}),
            fast_.Neg(fast_.FromUint64(5)));
  const KernelStatsSnapshot after = GetKernelStats();
  EXPECT_EQ(after.int_dot_calls - before.int_dot_calls, 1u);
  EXPECT_EQ(after.int_dot_products - before.int_dot_products, 2u);
  // A call with three rows counts three outputs.
  DotI64IntoRows(fast_, {fast_.One(), fast_.One()}, {{1, 2}, {3, 4}, {5, 6}});
  const KernelStatsSnapshot rows = GetKernelStats();
  EXPECT_EQ(rows.int_dot_calls - after.int_dot_calls, 3u);
  EXPECT_EQ(rows.int_dot_products - after.int_dot_products, 6u);
}

// ValidateElems compares each encoding with p in place: p-1 passes; p,
// p+1 (the low limb differs) and 2^(64k)-1 (every limb at its maximum) are
// refused; a ragged tail is a ParseError.
TEST_P(FieldKernelTest, ValidateElemsAcceptsExactlyTheValuesBelowP) {
  const std::size_t eb = fast_.elem_bytes();
  const Bytes p_be = fast_.ModulusBytes();
  const Bytes p_le(p_be.rbegin(), p_be.rend());
  Bytes below = p_le, plus_one = p_le;
  below[0] -= 1;  // p is odd: no borrow
  for (std::uint8_t& byte : plus_one) {
    if (++byte != 0) break;
  }
  const Bytes top(eb, 0xFF);
  Bytes ok = fast_.ToBytes(fast_.Random(rng_));
  ok.insert(ok.end(), below.begin(), below.end());
  EXPECT_EQ(ValidateElems(fast_, ok), 2u);
  EXPECT_EQ(ValidateElems(oracle_, ok), 2u);
  for (const Bytes& bad : {p_le, plus_one, top}) {
    Bytes data = ok;
    data.insert(data.end(), bad.begin(), bad.end());
    EXPECT_THROW(ValidateElems(fast_, data), InvalidArgument);
  }
  ok.push_back(0);
  EXPECT_THROW(ValidateElems(fast_, ok), ParseError);
}

TEST_P(FieldKernelTest, MulU64AddMatchesMulThenAdd) {
  const std::vector<FpElem> edges = Operands(0);
  CheckMulU64Add(fast_, edges, rng_);
  CheckMulU64Add(oracle_, edges, rng_);
  // s < p as an integer gives a*s + b.
  const FpElem a = fast_.Random(rng_), b = fast_.Random(rng_);
  EXPECT_EQ(fast_.MulU64Add(a, 12345, b),
            fast_.Add(fast_.Mul(a, fast_.FromUint64(12345)), b));
}

TEST_P(FieldKernelTest, ReduceWideMatchesLimbHorner) {
  CheckReduceWide(fast_, rng_);
  CheckReduceWide(oracle_, rng_);
}

TEST_P(FieldKernelTest, DotI64MatchesDot) {
  const std::vector<FpElem> edges = Operands(0);
  CheckDotI64(fast_, edges, rng_);
  CheckDotI64(oracle_, edges, rng_);
}

// The word inverse against Inv, over small words and the widest ones.
TEST_P(FieldKernelTest, InvU64MatchesInv) {
  std::vector<std::uint64_t> words = {1, 2, 3, 120, 27720,
                                      (std::uint64_t{1} << 63) - 1,
                                      ~std::uint64_t{0}};
  for (int i = 0; i < 20; ++i) words.push_back(rng_.Next() | 1);
  for (std::uint64_t a : words) {
    const FpElem expected = fast_.Inv(MulAddOracle(fast_, fast_.One(), a,
                                                   fast_.Zero()));
    ASSERT_EQ(fast_.InvU64(a), expected) << a;
    ASSERT_EQ(oracle_.InvU64(a), expected) << a;
  }
  EXPECT_THROW(fast_.InvU64(0), InvalidArgument);
}

// The bare-reduction kernel (FromMont, and Random's output step) against
// the generic runtime-width reduction, on 0, 1, p-1 and 300 random limb
// patterns below p.
TEST_P(FieldKernelTest, RedcMatchesGenericOracle) {
  std::vector<FpElem> raws = {fast_.Zero(), fast_.One(), Operands(0)[3]};
  for (int i = 0; i < 300; ++i) raws.push_back(fast_.Random(rng_));
  for (const FpElem& raw : raws) {
    const FpMont m{raw.v};
    const FpElem r = fast_.FromMont(m);
    ASSERT_EQ(r, oracle_.FromMont(m));
    EXPECT_EQ(fast_.ToMont(r), m) << "r R mod p gives back the limbs";
  }
}

TEST_P(FieldKernelTest, MontgomeryFormRoundTripsAndMultiplies) {
  auto ops = Operands(Randoms());
  EXPECT_EQ(fast_.FromMont(fast_.MontOne()), fast_.One());
  for (const FpElem& a : ops) {
    const FpMont am = fast_.ToMont(a);
    EXPECT_EQ(fast_.FromMont(am), a);
    EXPECT_EQ(oracle_.ToMont(a), am);
    EXPECT_EQ(fast_.FromMont(fast_.Sqr(am)), fast_.Sqr(a));
    for (const FpElem& b : ops) {
      EXPECT_EQ(fast_.Mul(am, b), fast_.Mul(a, b));
      EXPECT_EQ(fast_.FromMont(fast_.Mul(am, fast_.ToMont(b))),
                fast_.Mul(a, b));
    }
  }
}

TEST_P(FieldKernelTest, PowBytesMatchesMulChain) {
  const FpElem a = fast_.Random(rng_);
  FpElem chain = fast_.One();
  for (std::uint64_t e = 0; e <= 300; ++e) {
    if (e <= 20 || e == 300) {
      const std::uint8_t be[2] = {static_cast<std::uint8_t>(e >> 8),
                                  static_cast<std::uint8_t>(e)};
      ASSERT_EQ(fast_.PowBytes(a, be), chain) << "e=" << e;
      ASSERT_EQ(oracle_.PowBytes(a, be), chain) << "e=" << e;
    }
    chain = fast_.Mul(chain, a);
  }
}

// An element's limbs are its wire encoding.
TEST_P(FieldKernelTest, ToBytesIsTheLimbDump) {
  for (const FpElem& a : Operands(Randoms())) {
    const Bytes le = fast_.ToBytes(a);
    ASSERT_EQ(le.size(), fast_.limbs() * 8);
    for (std::size_t i = 0; i < le.size(); ++i) {
      EXPECT_EQ(le[i], static_cast<std::uint8_t>(a.v[i / 8] >> (8 * (i % 8))));
    }
    EXPECT_EQ(fast_.FromBytes(le), a);
  }
}

// Random reads its raw limb draw as a Montgomery form: the seeded values
// every share, deal and golden vector was made from.
TEST_P(FieldKernelTest, RandomIsFromMontOfTheRawDraw) {
  const Bytes p_be = fast_.ModulusBytes();
  const Bytes p_le(p_be.rbegin(), p_be.rend());
  Limbs p{};
  for (std::size_t i = 0; i < p_le.size(); ++i) {
    p[i / 8] |= static_cast<std::uint64_t>(p_le[i]) << (8 * (i % 8));
  }
  Rng draws(0xD4A3), same(0xD4A3);
  for (int i = 0; i < 50; ++i) {
    FpMont raw;
    do {
      for (std::size_t j = 0; j < fast_.limbs(); ++j) raw.v[j] = same.Next();
    } while (CmpN(raw.v.data(), p.data(), fast_.limbs()) >= 0);
    ASSERT_EQ(fast_.Random(draws), fast_.FromMont(raw));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrimeSizes, FieldKernelTest,
                         ::testing::Values(256, 512, 1024, 2048));

// The flag-chained x86-64 kernels (field/fp_kernels_x86.cpp) against the
// portable width templates and the generic runtime-width path, at the widths
// they cover. Without ADX and BMI2 (or off x86-64, or in a sanitizer build)
// only the portable-versus-generic half runs.
class FlagChainKernelTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  FlagChainKernelTest()
      : oracle_(StandardPrimeBe(GetParam()), KernelDispatch::kGeneric),
        k_(oracle_.limbs()),
        p_(oracle_.modulus().begin(), oracle_.modulus().end()),
        n0inv_(MontgomeryN0Inv(p_[0])),
        portable_(kernels::PortableKernelsForWidth(k_)),
        adx_(kernels::AdxKernelsForWidth(k_)),
        rng_(0xF1A6 ^ GetParam()) {}

  // 0, 1, p - 1, p - 2, 2^(g-1), then uniform values below p.
  std::vector<Limbs> Operands(int randoms) {
    std::vector<Limbs> ops(5);
    ops[1][0] = 1;
    std::copy(p_.begin(), p_.end(), ops[2].begin());
    ops[2][0] -= 1;
    ops[3] = ops[2];
    ops[3][0] -= 1;
    ops[4][k_ - 1] = std::uint64_t{1} << 63;
    for (int i = 0; i < randoms; ++i) ops.push_back(oracle_.Random(rng_).v);
    return ops;
  }

  // (t + m p) / 2^(64 steps) before the final conditional subtraction, for
  // a t of len limbs; whether it is >= p, i.e. whether the kernel
  // subtracts. Every REDC of a given t reaches this value, whatever its
  // step order: m is the unique multiple below 2^(64 steps) that clears
  // the low limbs.
  bool Subtracts(std::vector<std::uint64_t> t, std::size_t steps) const {
    t.push_back(0);
    for (std::size_t s = 0; s < steps; ++s) {
      const std::uint64_t m = t[s] * n0inv_;
      unsigned __int128 carry = 0;
      for (std::size_t j = s; j < t.size(); ++j) {
        carry += t[j];
        if (j - s < k_) carry += static_cast<unsigned __int128>(m) * p_[j - s];
        t[j] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
    }
    for (std::size_t j = steps + k_; j < t.size(); ++j) {
      if (t[j] != 0) return true;
    }
    return CmpN(t.data() + steps, p_.data(), k_) >= 0;
  }

  // Runs `kernel` on the portable and flag-chained tables (when present)
  // and checks both against `want`.
  template <typename Run>
  void ExpectBothKernels(const Limbs& want, Run&& run, const char* what) {
    for (const kernels::KernelVTable* table : {portable_, adx_}) {
      if (table == nullptr) continue;
      Limbs r{};
      run(*table, r.data());
      ASSERT_EQ(r, want) << what << (table == adx_ ? " adx" : " portable");
    }
  }

  FpCtx oracle_;
  std::size_t k_;
  std::vector<std::uint64_t> p_;
  std::uint64_t n0inv_;
  const kernels::KernelVTable* portable_;
  const kernels::KernelVTable* adx_;
  Rng rng_;
};

TEST_P(FlagChainKernelTest, TablesAreBoundByCpuFeature) {
  ASSERT_NE(portable_, nullptr);
  EXPECT_EQ(portable_->width, k_);
  const FpCtx fast(StandardPrimeBe(GetParam()));
  EXPECT_EQ(fast.kernel_width(), k_);
  if (kernels::AdxAvailable()) {
    ASSERT_NE(adx_, nullptr);
    EXPECT_EQ(adx_->width, k_);
    EXPECT_EQ(kernels::KernelsForWidth(k_), adx_);
  } else {
    EXPECT_EQ(adx_, nullptr);
    EXPECT_EQ(kernels::KernelsForWidth(k_), portable_);
  }
  // k = 4 keeps the portable kernels; other widths have no table.
  EXPECT_EQ(kernels::AdxKernelsForWidth(4), nullptr);
  EXPECT_EQ(kernels::KernelsForWidth(4), kernels::PortableKernelsForWidth(4));
  EXPECT_EQ(kernels::PortableKernelsForWidth(5), nullptr);
  EXPECT_EQ(kernels::KernelsForWidth(5), nullptr);
}

TEST_P(FlagChainKernelTest, MulSqrRedcMatchPortableAndGeneric) {
  const std::vector<Limbs> ops = Operands(GetParam() <= 1024 ? 24 : 10);
  std::size_t subtracted = 0, kept = 0;
  for (const Limbs& a : ops) {
    const FpMont am{a};
    const Limbs sqr = oracle_.Sqr(am).v;
    ExpectBothKernels(
        sqr, [&](const auto& t, std::uint64_t* r) {
          t.sqr(p_.data(), n0inv_, a.data(), r);
        },
        "sqr");
    ExpectBothKernels(
        sqr, [&](const auto& t, std::uint64_t* r) {  // r aliases a
          std::copy(a.begin(), a.begin() + k_, r);
          t.sqr(p_.data(), n0inv_, r, r);
        },
        "aliased sqr");
    for (const Limbs& b : ops) {
      const Limbs mul = oracle_.Mul(am, FpMont{b}).v;
      ExpectBothKernels(
          mul, [&](const auto& t, std::uint64_t* r) {
            t.mul(p_.data(), n0inv_, a.data(), b.data(), r);
          },
          "mul");
      // The bare reduction of the product a*b is the same value.
      std::vector<std::uint64_t> ab(2 * k_);
      MulN(ab.data(), a.data(), b.data(), k_);
      ExpectBothKernels(
          mul, [&](const auto& t, std::uint64_t* r) {
            std::vector<std::uint64_t> scratch = ab;
            t.redc(p_.data(), n0inv_, scratch.data(), r);
          },
          "redc");
      (Subtracts(ab, k_) ? subtracted : kept) += 1;
    }
  }
  // Both outcomes of the final conditional subtraction were exercised.
  EXPECT_GT(subtracted, 0u);
  EXPECT_GT(kept, 0u);
  // (p - 1) R + 1 always subtracts: its one step adds m p >= R.
  std::vector<std::uint64_t> edge(2 * k_);
  edge[0] = 1;
  std::copy(p_.begin(), p_.end(), edge.begin() + k_);
  edge[k_] -= 1;
  ASSERT_TRUE(Subtracts(edge, k_));
  // Its reduction is (p - 1) + REDC(1) mod p.
  Limbs one{};
  one[0] = 1;
  FpElem p_minus_1{};
  std::copy(p_.begin(), p_.end(), p_minus_1.v.begin());
  p_minus_1.v[0] -= 1;
  const Limbs want =
      oracle_.Add(p_minus_1, oracle_.FromMont(FpMont{one})).v;
  ExpectBothKernels(
      want, [&](const auto& t, std::uint64_t* r) {
        std::vector<std::uint64_t> scratch = edge;
        t.redc(p_.data(), n0inv_, scratch.data(), r);
      },
      "redc edge");
}

// The wide reduction on accumulators up to 2^63 R^2 (> half of its 2^64 p^2
// bound), so both outcomes of its conditional subtraction occur, and on
// real accumulated sums, against the portable kernel and, times 2^64 R^2,
// the generic Dot.
TEST_P(FlagChainKernelTest, RedcWideMatchesPortableAndGenericDot) {
  std::size_t subtracted = 0, kept = 0;
  for (int i = 0; i < 60; ++i) {
    std::vector<std::uint64_t> t(2 * k_ + 2, 0);
    for (std::size_t j = 0; j < 2 * k_; ++j) t[j] = rng_.Next();
    t[2 * k_] = i == 0 ? 0 : rng_.Next() >> (i % 2 == 0 ? 1 : 40);
    (Subtracts({t.begin(), t.end() - 1}, k_ + 1) ? subtracted : kept) += 1;
    Limbs want{};
    {
      std::vector<std::uint64_t> scratch = t;
      portable_->redc_wide(p_.data(), n0inv_, scratch.data(), want.data());
    }
    ExpectBothKernels(
        want, [&](const auto& table, std::uint64_t* r) {
          std::vector<std::uint64_t> scratch = t;
          table.redc_wide(p_.data(), n0inv_, scratch.data(), r);
        },
        "redc_wide");
  }
  EXPECT_GT(subtracted, 0u);
  EXPECT_GT(kept, 0u);
  // Sums of products through the dispatched context and the generic one.
  const FpCtx fast(StandardPrimeBe(GetParam()));
  const std::vector<Limbs> ops = Operands(8);
  std::vector<FpElem> a, b;
  for (const Limbs& x : ops) {
    a.push_back(FpElem{x});
    b.push_back(FpElem{ops[2]});  // every product (p - 1) * x
  }
  EXPECT_EQ(fast.Dot(a, b), oracle_.Dot(a, b));
}

INSTANTIATE_TEST_SUITE_P(ChainWidths, FlagChainKernelTest,
                         ::testing::Values(512, 1024, 2048));

// Non-standard widths must fall back to the generic path and still satisfy
// the lazy-reduction contract (the wide REDC is width-agnostic).
TEST(FieldKernelFallback, OddWidthUsesGenericAndDotStaysExact) {
  // A 192-bit odd modulus with a nonzero top limb (primality is not needed
  // for Montgomery multiplication or the dot identity).
  Bytes mod_be(24, 0xFF);  // 2^192 - 1 (odd)
  FpCtx ctx(mod_be);
  EXPECT_EQ(ctx.kernel_width(), 0u);
  EXPECT_EQ(ctx.limbs(), 3u);
  Rng rng(0xFA11BACC);
  std::vector<FpElem> a, b;
  for (int i = 0; i < 33; ++i) {
    a.push_back(ctx.Random(rng));
    b.push_back(ctx.Random(rng));
  }
  FpElem naive = ctx.Zero();
  for (std::size_t i = 0; i < a.size(); ++i) {
    naive = ctx.Add(naive, ctx.Mul(a[i], b[i]));
  }
  EXPECT_EQ(ctx.Dot(a, b), naive);
  for (const FpElem& x : a) EXPECT_EQ(ctx.Sqr(x), ctx.Mul(x, x));
}

// MulU64Add at moduli whose top limb is not normalised (the quotient digit
// is estimated from shifted words): 2^61 - 1 in one limb, 2^127 - 1 in two.
// And at the odd 2^127 + 2^64 - 1, whose top word 2^63 underestimates it the
// most: (p - 1) * (2^64 - 2) + 0 overestimates the quotient digit by two,
// so the result needs both corrections.
TEST(FieldKernelFallback, MulU64AddAtNonWordAlignedModuli) {
  const Bytes m61{0x1F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  Bytes m127(16, 0xFF);
  m127[0] = 0x7F;
  Bytes m127_64(16, 0);
  m127_64[0] = 0x80;
  for (std::size_t i = 8; i < 16; ++i) m127_64[i] = 0xFF;
  Rng rng(0x61127);
  for (const Bytes& m : {m61, m127, m127_64}) {
    FpCtx ctx(m);
    Bytes le(m.rbegin(), m.rend());
    le[0] -= 1;  // p - 1
    const std::vector<FpElem> edges = {ctx.Zero(), ctx.One(),
                                       ctx.FromUint64(2), ctx.FromBytes(le)};
    CheckMulU64Add(ctx, edges, rng);
  }
  // One word, p = 0x80000002dfdc1c35 (odd): for this a*s + b the reciprocal
  // division's last adjustment (remainder still >= divisor) fires, about
  // once in 70000 random tries; the values were found by search.
  const FpCtx ctx(Bytes{0x80, 0x00, 0x00, 0x02, 0xDF, 0xDC, 0x1C, 0x35});
  FpElem a, b;
  a.v[0] = 0x80000002DFDC1C34;  // p - 1
  b.v[0] = 0x08689D77B02C8337;
  const std::uint64_t s = 0x86B76334B07C71D8;
  EXPECT_EQ(ctx.MulU64Add(a, s, b), MulAddOracle(ctx, a, s, b));
}

// ReduceWide where the quotient digits come from shifted words.
TEST(FieldKernelFallback, ReduceWideAtNonWordAlignedModuli) {
  Rng rng(0x61128);
  for (const Bytes& m :
       {Bytes{0x1F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
        Bytes{0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
              0xFF, 0xFF, 0xFF, 0xFF, 0xFF}}) {
    CheckReduceWide(FpCtx(m), rng);
  }
}

// CheckDotI64 at the non-word-aligned moduli (the quotient digits come
// from shifted words) and the odd 192-bit width; InvU64 there too, and its
// refusal of a word sharing a factor with the modulus.
TEST(FieldKernelFallback, DotI64AtNonWordAlignedModuli) {
  const Bytes m61{0x1F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  Bytes m127(16, 0xFF);
  m127[0] = 0x7F;
  Bytes m127_64(16, 0);
  m127_64[0] = 0x80;
  for (std::size_t i = 8; i < 16; ++i) m127_64[i] = 0xFF;
  const Bytes m192(24, 0xFF);
  Rng rng(0xD0761);
  for (const Bytes& m : {m61, m127, m127_64, m192}) {
    FpCtx ctx(m);
    Bytes le(m.rbegin(), m.rend());
    le[0] -= 1;  // p - 1
    const std::vector<FpElem> edges = {ctx.Zero(), ctx.One(),
                                       ctx.FromUint64(2), ctx.FromBytes(le)};
    CheckDotI64(ctx, edges, rng);
  }
  const FpCtx p61(m61);
  EXPECT_EQ(p61.InvU64(12345), p61.Inv(p61.FromUint64(12345)));
  EXPECT_THROW(p61.InvU64((std::uint64_t{1} << 61) - 1), InvalidArgument);
  const FpCtx p192(m192);  // 2^192 - 1 is divisible by 3
  EXPECT_THROW(p192.InvU64(3), InvalidArgument);
}

// DotI64Into at the same moduli: the quotient digits come from shifted
// words, and at 2^61 - 1 the kernel runs one limb wide.
TEST(FieldKernelFallback, DotI64IntoAtNonWordAlignedModuli) {
  const Bytes m61{0x1F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  Bytes m127(16, 0xFF);
  m127[0] = 0x7F;
  Bytes m127_64(16, 0);
  m127_64[0] = 0x80;
  for (std::size_t i = 8; i < 16; ++i) m127_64[i] = 0xFF;
  const Bytes m192(24, 0xFF);
  Rng rng(0xD0762);
  for (const Bytes& m : {m61, m127, m127_64, m192}) {
    FpCtx ctx(m);
    EXPECT_EQ(ctx.kernel_width(), 0u);
    Bytes le(m.rbegin(), m.rend());
    le[0] -= 1;  // p - 1
    const std::vector<FpElem> edges = {ctx.Zero(), ctx.One(),
                                       ctx.FromUint64(2), ctx.FromBytes(le)};
    CheckDotI64Into(ctx, edges, rng);
  }
}

}  // namespace
}  // namespace pisces::field
