// Berlekamp-Welch decoding and the robust reconstruction paths built on it.
#include <gtest/gtest.h>

#include <memory>

#include "field/primes.h"
#include "math/berlekamp_welch.h"
#include "math/matrix.h"
#include "pisces/pisces.h"
#include "pss/packed_shamir.h"

namespace pisces {
namespace {

using field::FpCtx;
using field::FpElem;

class BwTest : public ::testing::Test {
 protected:
  BwTest() : ctx_(field::StandardPrimeBe(256)), rng_(17) {}
  FpCtx ctx_;
  Rng rng_;

  FpElem E(std::uint64_t v) { return ctx_.FromUint64(v); }
};

TEST_F(BwTest, SolveLinearSystemSquare) {
  // 2x + y = 5, x + y = 3 -> x = 2, y = 1
  math::Matrix a(2, 2);
  a.At(0, 0) = E(2);
  a.At(0, 1) = E(1);
  a.At(1, 0) = E(1);
  a.At(1, 1) = E(1);
  auto x = math::SolveLinearSystem(ctx_, a, {E(5), E(3)});
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(ctx_.Eq((*x)[0], E(2)));
  EXPECT_TRUE(ctx_.Eq((*x)[1], E(1)));
}

TEST_F(BwTest, SolveLinearSystemOverdeterminedConsistent) {
  // x = 4 with three consistent equations and one redundant column pattern.
  math::Matrix a(3, 1);
  a.At(0, 0) = E(1);
  a.At(1, 0) = E(2);
  a.At(2, 0) = E(3);
  auto x = math::SolveLinearSystem(ctx_, a, {E(4), E(8), E(12)});
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(ctx_.Eq((*x)[0], E(4)));
}

TEST_F(BwTest, SolveLinearSystemInconsistent) {
  math::Matrix a(2, 1);
  a.At(0, 0) = E(1);
  a.At(1, 0) = E(1);
  EXPECT_FALSE(math::SolveLinearSystem(ctx_, a, {E(1), E(2)}).has_value());
}

TEST_F(BwTest, DivModRoundTrip) {
  for (int iter = 0; iter < 5; ++iter) {
    math::Poly b = math::Poly::Random(ctx_, rng_, 3);
    if (ctx_.IsZero(b.coeffs().back())) continue;
    math::Poly q_true = math::Poly::Random(ctx_, rng_, 4);
    math::Poly r_true = math::Poly::Random(ctx_, rng_, 2);
    math::Poly a = math::Poly::Add(ctx_, math::Poly::Mul(ctx_, q_true, b), r_true);
    auto [q, r] = math::Poly::DivMod(ctx_, a, b);
    // Verify a == q*b + r and deg(r) < deg(b) by evaluation.
    FpElem x = ctx_.Random(rng_);
    FpElem lhs = a.Eval(ctx_, x);
    FpElem rhs = ctx_.Add(ctx_.Mul(q.Eval(ctx_, x), b.Eval(ctx_, x)),
                          r.Eval(ctx_, x));
    EXPECT_TRUE(ctx_.Eq(lhs, rhs));
    EXPECT_LT(r.size(), b.Trimmed(ctx_).size());
  }
}

TEST_F(BwTest, DivModExactDivision) {
  math::Poly b = math::Poly::Vanishing(ctx_, std::vector<FpElem>{E(1), E(2)});
  math::Poly q_true = math::Poly::Random(ctx_, rng_, 3);
  math::Poly a = math::Poly::Mul(ctx_, q_true, b);
  auto [q, r] = math::Poly::DivMod(ctx_, a, b);
  EXPECT_EQ(r.size(), 0u);
  FpElem x = ctx_.Random(rng_);
  EXPECT_TRUE(ctx_.Eq(q.Eval(ctx_, x), q_true.Eval(ctx_, x)));
}

class BwDecodeTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  BwDecodeTest() : ctx_(field::StandardPrimeBe(256)), rng_(23) {}
  FpCtx ctx_;
  Rng rng_;
};

TEST_P(BwDecodeTest, DecodesUpToRadius) {
  const std::size_t errors = GetParam();
  const std::size_t deg = 4;
  const std::size_t n = deg + 2 * errors + 1;
  math::Poly f = math::Poly::Random(ctx_, rng_, deg);
  std::vector<FpElem> xs, ys;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(ctx_.FromUint64(i + 1));
    ys.push_back(f.Eval(ctx_, xs.back()));
  }
  // Corrupt `errors` positions (spread out).
  for (std::size_t e = 0; e < errors; ++e) {
    ys[(e * 2 + 1) % n] = ctx_.Random(rng_);
  }
  auto decoded = math::RobustInterpolate(ctx_, xs, ys, deg, errors);
  ASSERT_TRUE(decoded.has_value()) << "errors=" << errors;
  for (int probe = 0; probe < 4; ++probe) {
    FpElem x = ctx_.Random(rng_);
    EXPECT_TRUE(ctx_.Eq(decoded->Eval(ctx_, x), f.Eval(ctx_, x)));
  }
  auto bad = math::Mismatches(ctx_, *decoded, xs, ys);
  EXPECT_LE(bad.size(), errors);
}

INSTANTIATE_TEST_SUITE_P(ErrorCounts, BwDecodeTest,
                         ::testing::Values(0, 1, 2, 3, 5));

TEST_F(BwTest, FailsBeyondRadius) {
  const std::size_t deg = 3;
  const std::size_t n = deg + 2 + 1;  // radius 1
  math::Poly f = math::Poly::Random(ctx_, rng_, deg);
  std::vector<FpElem> xs, ys;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(E(i + 1));
    ys.push_back(f.Eval(ctx_, xs.back()));
  }
  ys[0] = ctx_.Random(rng_);
  ys[2] = ctx_.Random(rng_);  // 2 errors > radius 1
  auto decoded = math::RobustInterpolate(ctx_, xs, ys, deg, 1);
  if (decoded) {
    // If anything decodes it must NOT silently claim consistency with <= 1
    // error (the verification step guards this).
    EXPECT_LE(math::Mismatches(ctx_, *decoded, xs, ys).size(), 1u);
  }
}

TEST(RobustShamir, ToleratesCorruptShares) {
  auto ctx = std::make_shared<const FpCtx>(field::StandardPrimeBe(256));
  pss::Params p;
  p.n = 13;
  p.t = 2;
  p.l = 3;  // d = 5: radius with all 13 shares = (13-6)/2 = 3
  p.field_bits = 256;
  pss::PackedShamir shamir(ctx, p);
  Rng rng(31);
  std::vector<FpElem> secrets;
  for (std::size_t j = 0; j < p.l; ++j) secrets.push_back(ctx->Random(rng));
  auto shares = shamir.ShareBlock(secrets, rng);
  shares[1] = ctx->Random(rng);
  shares[6] = ctx->Random(rng);  // two corrupted shares (t = 2)
  std::vector<std::uint32_t> parties;
  for (std::uint32_t i = 0; i < p.n; ++i) parties.push_back(i);
  auto rec = shamir.RobustReconstructBlock(parties, shares);
  ASSERT_TRUE(rec.has_value());
  for (std::size_t j = 0; j < p.l; ++j) {
    EXPECT_TRUE(ctx->Eq((*rec)[j], secrets[j]));
  }
}

TEST(RobustDownload, ClientSurvivesLyingHosts) {
  // Two hosts return garbage shares; the plain path's checksum catches it
  // and the Berlekamp-Welch fallback still reconstructs the exact file.
  ClusterConfig cfg;
  cfg.params.n = 13;
  cfg.params.t = 2;
  cfg.params.l = 3;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.encrypt_links = false;  // mutate share payloads on the wire
  cfg.seed = 51;
  Cluster cluster(cfg);
  Rng rng(3);
  Bytes file = rng.RandomBytes(2000);
  cluster.Upload(1, file);

  const std::size_t elem = cluster.ctx().elem_bytes();
  cluster.net().SetMutator([&](net::Message& m) {
    if (m.type == net::MsgType::kShareResponse &&
        (m.from == 0 || m.from == 1) && m.payload.size() > 3 * elem) {
      // Corrupt share words beyond the meta blob (keep meta intact).
      for (std::size_t off = m.payload.size() - elem;
           off < m.payload.size() - 8; ++off) {
        m.payload[off] ^= 0x5A;
      }
    }
    return true;
  });
  Bytes back = cluster.Download(pisces::ReadSpec::Classic(1));
  cluster.net().SetMutator(nullptr);
  EXPECT_EQ(back, file);
}

}  // namespace
}  // namespace pisces
