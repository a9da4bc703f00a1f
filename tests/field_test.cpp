// Unit and property tests for the multiprecision prime-field substrate.
#include <gtest/gtest.h>

#include <vector>

#include "field/fp.h"
#include "field/limbs.h"
#include "field/primes.h"

namespace pisces::field {
namespace {

TEST(Limbs, AddSubRoundTrip) {
  std::uint64_t a[4] = {~0ull, ~0ull, 5, 0};
  std::uint64_t b[4] = {1, 0, 0, 0};
  std::uint64_t r[4];
  std::uint64_t carry = AddN(r, a, b, 4);
  EXPECT_EQ(carry, 0u);
  EXPECT_EQ(r[0], 0u);
  EXPECT_EQ(r[1], 0u);
  EXPECT_EQ(r[2], 6u);
  std::uint64_t s[4];
  std::uint64_t borrow = SubN(s, r, b, 4);
  EXPECT_EQ(borrow, 0u);
  EXPECT_EQ(CmpN(s, a, 4), 0);
}

TEST(Limbs, AddCarryOut) {
  std::uint64_t a[2] = {~0ull, ~0ull};
  std::uint64_t b[2] = {1, 0};
  std::uint64_t r[2];
  EXPECT_EQ(AddN(r, a, b, 2), 1u);
  EXPECT_TRUE(IsZeroN(r, 2));
}

TEST(Limbs, SubBorrowOut) {
  std::uint64_t a[2] = {0, 0};
  std::uint64_t b[2] = {1, 0};
  std::uint64_t r[2];
  EXPECT_EQ(SubN(r, a, b, 2), 1u);
  EXPECT_EQ(r[0], ~0ull);
  EXPECT_EQ(r[1], ~0ull);
}

TEST(Limbs, MulSchoolbook) {
  std::uint64_t a[2] = {~0ull, 0};
  std::uint64_t b[2] = {~0ull, 0};
  std::uint64_t r[4];
  MulN(r, a, b, 2);
  // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(r[0], 1u);
  EXPECT_EQ(r[1], ~0ull - 1);
  EXPECT_EQ(r[2], 0u);
  EXPECT_EQ(r[3], 0u);
}

TEST(Limbs, BitLength) {
  std::uint64_t a[4] = {0, 0, 0, 0};
  EXPECT_EQ(BitLengthN(a, 4), 0u);
  a[0] = 1;
  EXPECT_EQ(BitLengthN(a, 4), 1u);
  a[2] = 0x8000000000000000ull;
  EXPECT_EQ(BitLengthN(a, 4), 192u);
}

TEST(Limbs, MontgomeryN0Inv) {
  for (std::uint64_t m : {3ull, 0xFFFFFFFFFFFFFF43ull, 12345677ull}) {
    std::uint64_t inv = MontgomeryN0Inv(m);
    EXPECT_EQ(static_cast<std::uint64_t>(m * (~inv + 1)), 1ull) << m;
  }
}

TEST(Primes, AllStandardPrimesArePrime) {
  Rng rng(2024);
  for (std::size_t bits : kStandardFieldBits) {
    Bytes p = StandardPrimeBe(bits);
    EXPECT_EQ(p.size(), bits / 8);
    EXPECT_TRUE(MillerRabinIsPrime(p, 30, rng)) << bits;
    FpCtx ctx(p);
    EXPECT_EQ(ctx.bits(), bits);
  }
}

TEST(Primes, MillerRabinRejectsComposites) {
  Rng rng(7);
  // 2^256 - 190 is even; 2^256 - 191 has small factors with high probability;
  // test some knowns instead.
  Bytes even{0x10};  // 16
  EXPECT_FALSE(MillerRabinIsPrime(even, 10, rng));
  Bytes nine{0x09};
  EXPECT_FALSE(MillerRabinIsPrime(nine, 10, rng));
  Bytes carmichael;  // 561 = 0x231, a Carmichael number
  carmichael = {0x02, 0x31};
  EXPECT_FALSE(MillerRabinIsPrime(carmichael, 20, rng));
  Bytes small_prime{0x61};  // 97
  EXPECT_TRUE(MillerRabinIsPrime(small_prime, 20, rng));
}

TEST(Primes, UnsupportedSizeThrows) {
  EXPECT_THROW(StandardPrimeBe(128), InvalidArgument);
}

class FpCtxTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  FpCtxTest() : ctx_(StandardPrimeBe(GetParam())), rng_(GetParam()) {}
  FpCtx ctx_;
  Rng rng_;
};

TEST_P(FpCtxTest, FieldAxioms) {
  for (int iter = 0; iter < 10; ++iter) {
    FpElem a = ctx_.Random(rng_);
    FpElem b = ctx_.Random(rng_);
    FpElem c = ctx_.Random(rng_);
    // commutativity
    EXPECT_TRUE(ctx_.Eq(ctx_.Add(a, b), ctx_.Add(b, a)));
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(a, b), ctx_.Mul(b, a)));
    // associativity
    EXPECT_TRUE(ctx_.Eq(ctx_.Add(ctx_.Add(a, b), c), ctx_.Add(a, ctx_.Add(b, c))));
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(ctx_.Mul(a, b), c), ctx_.Mul(a, ctx_.Mul(b, c))));
    // distributivity
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(a, ctx_.Add(b, c)),
                        ctx_.Add(ctx_.Mul(a, b), ctx_.Mul(a, c))));
    // identities
    EXPECT_TRUE(ctx_.Eq(ctx_.Add(a, ctx_.Zero()), a));
    EXPECT_TRUE(ctx_.Eq(ctx_.Mul(a, ctx_.One()), a));
    // inverses
    EXPECT_TRUE(ctx_.IsZero(ctx_.Add(a, ctx_.Neg(a))));
    if (!ctx_.IsZero(b)) {
      EXPECT_TRUE(ctx_.Eq(ctx_.Mul(ctx_.Mul(a, b), ctx_.Inv(b)), a));
    }
  }
}

TEST_P(FpCtxTest, SerializationRoundTrip) {
  for (int iter = 0; iter < 10; ++iter) {
    FpElem a = ctx_.Random(rng_);
    Bytes bytes = ctx_.ToBytes(a);
    EXPECT_EQ(bytes.size(), ctx_.elem_bytes());
    EXPECT_TRUE(ctx_.Eq(ctx_.FromBytes(bytes), a));
  }
}

TEST_P(FpCtxTest, VectorSerialization) {
  std::vector<FpElem> elems;
  for (int i = 0; i < 7; ++i) elems.push_back(ctx_.Random(rng_));
  Bytes data = SerializeElems(ctx_, elems);
  EXPECT_EQ(data.size(), elems.size() * ctx_.elem_bytes());
  auto back = DeserializeElems(ctx_, data);
  ASSERT_EQ(back.size(), elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i) {
    EXPECT_TRUE(ctx_.Eq(back[i], elems[i]));
  }
}

TEST_P(FpCtxTest, PowMatchesRepeatedMul) {
  FpElem a = ctx_.RandomNonZero(rng_);
  FpElem acc = ctx_.One();
  for (std::uint64_t e = 0; e < 17; ++e) {
    EXPECT_TRUE(ctx_.Eq(ctx_.PowUint64(a, e), acc)) << e;
    acc = ctx_.Mul(acc, a);
  }
}

TEST_P(FpCtxTest, FermatLittleTheorem) {
  // a^(p-1) == 1 for a != 0; PowBytes with exponent p-2 gives inverses which
  // multiply back to 1 (checked in FieldAxioms); here check a^p == a via
  // a^(p-2) * a^2 == a.
  FpElem a = ctx_.RandomNonZero(rng_);
  FpElem lhs = ctx_.Mul(ctx_.Inv(a), ctx_.Mul(a, a));
  EXPECT_TRUE(ctx_.Eq(lhs, a));
}

TEST_P(FpCtxTest, BatchInvMatchesInv) {
  std::vector<FpElem> elems;
  for (int i = 0; i < 9; ++i) elems.push_back(ctx_.RandomNonZero(rng_));
  std::vector<FpElem> expected;
  for (const auto& e : elems) expected.push_back(ctx_.Inv(e));
  ctx_.BatchInv(elems);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    EXPECT_TRUE(ctx_.Eq(elems[i], expected[i]));
  }
}

TEST_P(FpCtxTest, FromBytesRejectsModulus) {
  Bytes mod_be = ctx_.ModulusBytes();
  Bytes mod_le(mod_be.rbegin(), mod_be.rend());
  mod_le.resize(ctx_.elem_bytes(), 0);
  EXPECT_THROW(ctx_.FromBytes(mod_le), InvalidArgument);
}

TEST_P(FpCtxTest, ToUint64) {
  EXPECT_EQ(ctx_.ToUint64(ctx_.FromUint64(123456789)), 123456789u);
  FpElem big = ctx_.Neg(ctx_.One());  // p - 1 never fits in 64 bits
  EXPECT_THROW(ctx_.ToUint64(big), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllFieldSizes, FpCtxTest,
                         ::testing::Values(256, 512, 1024, 2048));

TEST(FpCtx, RejectsEvenModulus) {
  Bytes even{0x10, 0x00};
  EXPECT_THROW(FpCtx ctx(even), InvalidArgument);
}

TEST(FpCtx, PayloadBytesLeaveHeadroom) {
  FpCtx ctx(StandardPrimeBe(256));
  EXPECT_EQ(ctx.payload_bytes(), 31u);
  EXPECT_EQ(ctx.elem_bytes(), 32u);
}

// Binary-Euclid Inv against the Fermat exponentiation a^(p-2) at every
// standard width, on both kernel dispatch modes.
class FieldInvTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, KernelDispatch>> {
};

TEST_P(FieldInvTest, MatchesFermat) {
  const auto [bits, dispatch] = GetParam();
  const FpCtx ctx(StandardPrimeBe(bits), dispatch);
  const std::size_t k = ctx.limbs();
  Rng rng(0x1A7 ^ bits);
  const Bytes p_be = ctx.ModulusBytes();
  Limbs p{};
  for (std::size_t i = 0; i < p_be.size(); ++i) {
    const std::size_t lo = p_be.size() - 1 - i;  // byte index from the LSB
    p[lo / 8] |= std::uint64_t{p_be[i]} << (8 * (lo % 8));
  }
  Limbs e = p, half = p, two{}, one{};
  two[0] = 2;
  one[0] = 1;
  SubN(e.data(), e.data(), two.data(), k);  // p - 2
  AddN(half.data(), half.data(), one.data(), k);
  ShiftRight1(half.data(), k);  // (p + 1) / 2
  Bytes e_be(ctx.elem_bytes()), half_le(ctx.elem_bytes());
  for (std::size_t i = 0; i < ctx.elem_bytes(); ++i) {
    const unsigned shift = 8 * (i % 8);
    e_be[ctx.elem_bytes() - 1 - i] = static_cast<std::uint8_t>(e[i / 8] >> shift);
    half_le[i] = static_cast<std::uint8_t>(half[i / 8] >> shift);
  }
  std::vector<FpElem> as = {ctx.One(), ctx.FromUint64(2), ctx.Neg(ctx.One()),
                            ctx.FromBytes(half_le)};
  for (int i = 0; i < 300; ++i) as.push_back(ctx.RandomNonZero(rng));
  for (const FpElem& a : as) {
    const FpElem inv = ctx.Inv(a);
    EXPECT_EQ(inv, ctx.PowBytes(a, e_be));
    EXPECT_EQ(ctx.Mul(a, inv), ctx.One());
  }
  EXPECT_EQ(ctx.Inv(ctx.FromUint64(2)), ctx.FromBytes(half_le));
}

INSTANTIATE_TEST_SUITE_P(
    AllFieldSizes, FieldInvTest,
    ::testing::Combine(::testing::Values(256, 512, 1024, 2048),
                       ::testing::Values(KernelDispatch::kAuto,
                                         KernelDispatch::kGeneric)));

TEST(FieldInv, CompositeModulus) {
  // Fermat's a^(p-2) is not an inverse mod 15 (2^13 mod 15 = 2); Euclid is.
  const FpCtx ctx(Bytes{15});
  EXPECT_EQ(ctx.ToUint64(ctx.Inv(ctx.FromUint64(2))), 8u);
  EXPECT_EQ(ctx.ToUint64(ctx.Inv(ctx.FromUint64(7))), 13u);
  EXPECT_THROW(ctx.Inv(ctx.FromUint64(3)), InvalidArgument);
  EXPECT_THROW(ctx.Inv(ctx.FromUint64(10)), InvalidArgument);
  EXPECT_THROW(ctx.Inv(ctx.Zero()), InvalidArgument);
}

constexpr std::size_t kPrimeBits[] = {256, 512, 1024, 2048};

std::vector<FpElem> RandomElems(const FpCtx& ctx, Rng& rng, std::size_t n) {
  std::vector<FpElem> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(ctx.Random(rng));
  return out;
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

TEST(Rng, DeterministicAndForkIndependent) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(42);
  Rng child = c.Fork();
  EXPECT_NE(child.Next(), c.Next());
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Rng rng(9);
  bool seen[7] = {};
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.Below(7);
    ASSERT_LT(v, 7u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace pisces::field
