// Packed proactive secret sharing: parameterized property sweeps over
// (n, t, l, r) grids for share/reconstruct, refresh, recovery, privacy
// counting, and the VSS batch pipeline.
#include <gtest/gtest.h>

#include <memory>

#include "common/clock.h"
#include "common/task_pool.h"
#include "field/primes.h"
#include "math/matrix.h"
#include "pss/recovery.h"
#include "pss/refresh.h"

namespace pisces::pss {
namespace {

using field::FpCtx;
using field::FpElem;

// VSS rows (element encodings, pss/vss.h) as elements, rows[k][g], and back.
std::vector<std::vector<FpElem>> Elems(const FpCtx& ctx,
                                       const std::vector<Bytes>& rows) {
  std::vector<std::vector<FpElem>> out;
  for (const Bytes& row : rows) {
    out.push_back(field::DeserializeElems(ctx, row));
  }
  return out;
}
std::vector<Bytes> Rows(const FpCtx& ctx,
                        const std::vector<std::vector<FpElem>>& elems) {
  std::vector<Bytes> out;
  for (const auto& row : elems) out.push_back(field::SerializeElems(ctx, row));
  return out;
}

// VssBatch::VerifyCheckVector on a column of elements, handed over as
// element encodings.
bool VerifyColumn(const VssBatch& batch, std::span<const FpElem> column,
                  std::size_t group = 0) {
  const Bytes enc = field::SerializeElems(batch.ctx(), column);
  std::vector<const std::uint8_t*> ptrs;
  for (std::size_t k = 0; k < column.size(); ++k) {
    ptrs.push_back(enc.data() + k * batch.ctx().elem_bytes());
  }
  return batch.VerifyCheckVector(ptrs, group);
}

struct GridPoint {
  std::size_t n, t, l, r;
};

std::ostream& operator<<(std::ostream& os, const GridPoint& g) {
  return os << "n" << g.n << "_t" << g.t << "_l" << g.l << "_r" << g.r;
}

class PssGridTest : public ::testing::TestWithParam<GridPoint> {
 protected:
  PssGridTest()
      : ctx_(std::make_shared<const FpCtx>(field::StandardPrimeBe(256))),
        rng_(0xABCDu) {
    const GridPoint& g = GetParam();
    params_.n = g.n;
    params_.t = g.t;
    params_.l = g.l;
    params_.r = g.r;
    params_.field_bits = 256;
    params_.Validate();
    shamir_ = std::make_unique<PackedShamir>(ctx_, params_);
  }

  std::vector<FpElem> RandomBlock() {
    std::vector<FpElem> s;
    for (std::size_t j = 0; j < params_.l; ++j) s.push_back(ctx_->Random(rng_));
    return s;
  }

  std::vector<std::uint32_t> AllParties() const {
    std::vector<std::uint32_t> p(params_.n);
    for (std::uint32_t i = 0; i < params_.n; ++i) p[i] = i;
    return p;
  }

  std::shared_ptr<const FpCtx> ctx_;
  Rng rng_;
  Params params_;
  std::unique_ptr<PackedShamir> shamir_;
};

TEST_P(PssGridTest, ShareReconstructRoundTrip) {
  auto secrets = RandomBlock();
  auto shares = shamir_->ShareBlock(secrets, rng_);
  ASSERT_EQ(shares.size(), params_.n);
  auto parties = AllParties();
  auto rec = shamir_->ReconstructBlock(parties, shares);
  ASSERT_EQ(rec.size(), params_.l);
  for (std::size_t j = 0; j < params_.l; ++j) {
    EXPECT_TRUE(ctx_->Eq(rec[j], secrets[j]));
  }
}

TEST_P(PssGridTest, ReconstructFromExactlyDPlus1) {
  auto secrets = RandomBlock();
  auto shares = shamir_->ShareBlock(secrets, rng_);
  // Use the LAST d+1 parties (not the first, to exercise arbitrary subsets).
  const std::size_t need = params_.degree() + 1;
  std::vector<std::uint32_t> parties;
  std::vector<FpElem> sub;
  for (std::size_t i = params_.n - need; i < params_.n; ++i) {
    parties.push_back(static_cast<std::uint32_t>(i));
    sub.push_back(shares[i]);
  }
  auto rec = shamir_->ReconstructBlock(parties, sub);
  for (std::size_t j = 0; j < params_.l; ++j) {
    EXPECT_TRUE(ctx_->Eq(rec[j], secrets[j]));
  }
}

TEST_P(PssGridTest, TooFewSharesThrows) {
  auto shares = shamir_->ShareBlock(RandomBlock(), rng_);
  const std::size_t d = params_.degree();
  std::vector<std::uint32_t> parties;
  std::vector<FpElem> sub;
  for (std::size_t i = 0; i < d; ++i) {  // one fewer than needed
    parties.push_back(static_cast<std::uint32_t>(i));
    sub.push_back(shares[i]);
  }
  EXPECT_THROW(shamir_->ReconstructBlock(parties, sub), InvalidArgument);
}

TEST_P(PssGridTest, SharesAreConsistentDegree) {
  auto shares = shamir_->ShareBlock(RandomBlock(), rng_);
  const auto xs = shamir_->points().AlphasOf(AllParties());
  EXPECT_TRUE(math::PointsOnLowDegree(*ctx_, xs, shares, params_.degree()));
  shares[0] = ctx_->Add(shares[0], ctx_->One());
  if (params_.n > params_.degree() + 1) {
    EXPECT_FALSE(math::PointsOnLowDegree(*ctx_, xs, shares, params_.degree()));
  }
}

// Information-theoretic privacy: t shares are consistent with ANY candidate
// secret block (we exhibit a degree-d polynomial matching the t shares and an
// arbitrary alternative secret).
TEST_P(PssGridTest, TSharesRevealNothing) {
  auto secrets = RandomBlock();
  auto shares = shamir_->ShareBlock(secrets, rng_);
  auto fake_secrets = RandomBlock();

  // Constraints: the t observed shares plus the fake secrets at the betas.
  std::vector<FpElem> xs, ys;
  for (std::size_t i = 0; i < params_.t; ++i) {
    xs.push_back(shamir_->points().alpha(i));
    ys.push_back(shares[i]);
  }
  for (std::size_t j = 0; j < params_.l; ++j) {
    xs.push_back(shamir_->points().beta(j));
    ys.push_back(fake_secrets[j]);
  }
  ASSERT_LE(xs.size(), params_.degree() + 1);
  math::Poly f = math::Poly::RandomWithConstraints(*ctx_, rng_,
                                                   params_.degree(), xs, ys);
  // f is a valid degree-d sharing of the FAKE secrets agreeing with every
  // observed share: the adversary cannot distinguish.
  for (std::size_t i = 0; i < params_.t; ++i) {
    EXPECT_TRUE(ctx_->Eq(f.Eval(*ctx_, shamir_->points().alpha(i)), shares[i]));
  }
  for (std::size_t j = 0; j < params_.l; ++j) {
    EXPECT_TRUE(
        ctx_->Eq(f.Eval(*ctx_, shamir_->points().beta(j)), fake_secrets[j]));
  }
}

TEST_P(PssGridTest, RefreshPreservesSecretsAndChangesShares) {
  const std::size_t blocks = 4;
  std::vector<std::vector<FpElem>> secrets;
  std::vector<std::vector<FpElem>> by_party(params_.n,
                                            std::vector<FpElem>(blocks));
  for (std::size_t b = 0; b < blocks; ++b) {
    secrets.push_back(RandomBlock());
    auto shares = shamir_->ShareBlock(secrets[b], rng_);
    for (std::size_t i = 0; i < params_.n; ++i) by_party[i][b] = shares[i];
  }
  auto old = by_party;
  ReferenceRefresh(*shamir_, by_party, rng_);

  auto parties = AllParties();
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<FpElem> shares;
    for (std::size_t i = 0; i < params_.n; ++i) {
      EXPECT_FALSE(ctx_->Eq(old[i][b], by_party[i][b]));
      shares.push_back(by_party[i][b]);
    }
    EXPECT_TRUE(math::PointsOnLowDegree(
        *ctx_, shamir_->points().AlphasOf(parties), shares, params_.degree()));
    auto rec = shamir_->ReconstructBlock(parties, shares);
    for (std::size_t j = 0; j < params_.l; ++j) {
      EXPECT_TRUE(ctx_->Eq(rec[j], secrets[b][j]));
    }
  }
}

TEST_P(PssGridTest, RecoveryReproducesExactShares) {
  const std::size_t blocks = 3;
  std::vector<std::vector<FpElem>> by_party(params_.n,
                                            std::vector<FpElem>(blocks));
  for (std::size_t b = 0; b < blocks; ++b) {
    auto shares = shamir_->ShareBlock(RandomBlock(), rng_);
    for (std::size_t i = 0; i < params_.n; ++i) by_party[i][b] = shares[i];
  }
  auto truth = by_party;
  std::vector<std::uint32_t> reboot;
  for (std::size_t i = 0; i < params_.r; ++i) {
    reboot.push_back(static_cast<std::uint32_t>((i * 2) % params_.n));
    // ensure distinct for r small relative to n
  }
  std::sort(reboot.begin(), reboot.end());
  reboot.erase(std::unique(reboot.begin(), reboot.end()), reboot.end());
  for (auto tgt : reboot) {
    by_party[tgt].assign(blocks, ctx_->Zero());
  }
  ReferenceRecover(*shamir_, by_party, reboot, rng_);
  for (auto tgt : reboot) {
    for (std::size_t b = 0; b < blocks; ++b) {
      EXPECT_TRUE(ctx_->Eq(by_party[tgt][b], truth[tgt][b]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PssGridTest,
    ::testing::Values(GridPoint{5, 1, 1, 1}, GridPoint{8, 1, 2, 2},
                      GridPoint{13, 2, 3, 2}, GridPoint{13, 3, 2, 1},
                      GridPoint{16, 3, 3, 3}, GridPoint{21, 4, 6, 3},
                      GridPoint{21, 5, 4, 1}, GridPoint{29, 7, 6, 1}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      std::ostringstream os;
      os << info.param;
      return os.str();
    });

TEST(Params, ValidationRejectsBadCombos) {
  Params p;
  p.n = 10;
  p.t = 3;
  p.l = 1;  // 3t + l = 10, not < 10
  EXPECT_FALSE(p.IsValid());
  p.t = 2;
  p.l = 3;  // 3t + l = 9 < 10, r + l = 4 <= 10 - 6 = 4
  EXPECT_TRUE(p.IsValid());
  p.r = 2;  // r + l = 5 > 4
  EXPECT_FALSE(p.IsValid());
  p.r = 0;
  EXPECT_FALSE(p.IsValid());
  p = Params{};
  p.n = 3;
  EXPECT_FALSE(p.IsValid());
}

TEST(Params, NaturalMatchesPaper) {
  // Paper SectionIII-B: (t, l) = (n/4, n/4 - 1) is the natural choice.
  Params p = Params::Natural(21);
  EXPECT_EQ(p.n, 21u);
  EXPECT_EQ(p.t, 5u);
  EXPECT_EQ(p.l, 4u);
  EXPECT_TRUE(p.IsValid());
  for (std::size_t n : {8u, 12u, 16u, 24u, 29u, 37u}) {
    EXPECT_TRUE(Params::Natural(n).IsValid()) << n;
  }
}

TEST(EvalPoints, DisjointAndNonZero) {
  FpCtx ctx(field::StandardPrimeBe(256));
  EvalPoints pts(ctx, 10, 4);
  std::vector<FpElem> all;
  for (std::size_t j = 0; j < 4; ++j) all.push_back(pts.beta(j));
  for (std::size_t i = 0; i < 10; ++i) all.push_back(pts.alpha(i));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_FALSE(ctx.IsZero(all[i]));
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(ctx.Eq(all[i], all[j]));
    }
  }
}

// The generator-matrix encoder against the polynomial it replaced: every
// share ShareBlocks produces must equal ConstrainedFrom(u_b, d, betas, s_b)
// evaluated at the party's alpha, with the masks u_b drawn by Poly::Random
// from an rng with the same seed. Bit-identical, across all four prime
// sizes, pool sizes 1/2/8, and shapes up to the paper-best point.
TEST(PackedShamirGenerator, SharesMatchConstrainedFromReference) {
  const GridPoint shapes[] = {{8, 1, 2, 1}, {13, 2, 3, 1}, {21, 4, 6, 3}};
  for (std::size_t bits : {256u, 512u, 1024u, 2048u}) {
    auto ctx = std::make_shared<const FpCtx>(field::StandardPrimeBe(bits));
    for (const GridPoint& g : shapes) {
      Params p;
      p.n = g.n;
      p.t = g.t;
      p.l = g.l;
      p.r = g.r;
      p.field_bits = bits;
      PackedShamir shamir(ctx, p);
      const EvalPoints& pts = shamir.points();
      const std::size_t d = p.degree();
      // The generator's mask columns are w(alpha_i) * alpha_i^k: a zero
      // w(alpha_i) would make party i's share independent of the mask.
      const math::Poly w = math::Poly::Vanishing(*ctx, pts.betas());
      for (std::size_t i = 0; i < g.n; ++i) {
        EXPECT_FALSE(ctx->IsZero(w.Eval(*ctx, pts.alpha(i)))) << g << " " << i;
      }

      Rng data(bits + g.n);
      std::vector<std::vector<FpElem>> blocks(5);
      for (auto& block : blocks) {
        for (std::size_t j = 0; j < g.l; ++j) block.push_back(ctx->Random(data));
      }
      Rng ref_rng(99);
      std::vector<std::vector<FpElem>> expected;
      for (const auto& block : blocks) {
        const math::Poly u = math::Poly::Random(*ctx, ref_rng, d - g.l);
        const math::Poly f =
            math::Poly::ConstrainedFrom(*ctx, u, d, pts.betas(), block);
        std::vector<FpElem> shares;
        for (std::size_t i = 0; i < g.n; ++i) {
          shares.push_back(f.Eval(*ctx, pts.alpha(i)));
        }
        expected.push_back(std::move(shares));
      }
      for (std::size_t pool : {1u, 2u, 8u}) {
        SetGlobalPoolThreads(pool);
        Rng rng(99);
        EXPECT_EQ(shamir.ShareBlocks(blocks, rng), expected)
            << bits << "-bit " << g << " pool " << pool;
      }
      // ShareBlock is the one-block case of the same encoder.
      Rng one(99);
      EXPECT_EQ(shamir.ShareBlock(blocks[0], one), expected[0]);
    }
  }
  SetGlobalPoolThreads(1);
}

class VssBatchTest : public ::testing::Test {
 protected:
  VssBatchTest()
      : ctx_(std::make_shared<const FpCtx>(field::StandardPrimeBe(256))),
        rng_(77) {
    params_.n = 13;
    params_.t = 2;
    params_.l = 3;
    params_.field_bits = 256;
    shamir_ = std::make_unique<PackedShamir>(ctx_, params_);
  }
  std::shared_ptr<const FpCtx> ctx_;
  Rng rng_;
  Params params_;
  std::unique_ptr<PackedShamir> shamir_;
};

TEST_F(VssBatchTest, DealsVanishOnTheVanishSet) {
  VssBatch batch = MakeRefreshBatch(*shamir_, 5);
  auto deal = Elems(*ctx_, batch.Deal(rng_));
  ASSERT_EQ(deal.size(), params_.n);
  // Interpolate each group's polynomial from all holder evaluations and
  // check it vanishes at every beta and has degree <= d.
  std::vector<FpElem> xs;
  for (std::size_t i = 0; i < params_.n; ++i) {
    xs.push_back(shamir_->points().alpha(i));
  }
  for (std::size_t g = 0; g < batch.groups(); ++g) {
    std::vector<FpElem> ys;
    for (std::size_t k = 0; k < params_.n; ++k) ys.push_back(deal[k][g]);
    EXPECT_TRUE(math::PointsOnLowDegree(*ctx_, xs, ys, params_.degree()));
    math::Poly f = math::Poly::Interpolate(
        *ctx_, std::span<const FpElem>(xs.data(), params_.degree() + 1),
        std::span<const FpElem>(ys.data(), params_.degree() + 1));
    for (std::size_t j = 0; j < params_.l; ++j) {
      EXPECT_TRUE(ctx_->IsZero(f.Eval(*ctx_, shamir_->points().beta(j))));
    }
  }
}

TEST_F(VssBatchTest, VerifyAcceptsHonestAndRejectsCorrupt) {
  VssBatch batch = MakeRefreshBatch(*shamir_, 3);
  auto deal = Elems(*ctx_, batch.Deal(rng_));
  std::vector<FpElem> column;
  for (std::size_t k = 0; k < params_.n; ++k) column.push_back(deal[k][0]);
  EXPECT_TRUE(VerifyColumn(batch, column));
  // Degree violation.
  auto bad = column;
  bad[4] = ctx_->Add(bad[4], ctx_->One());
  EXPECT_FALSE(VerifyColumn(batch, bad));
  // Vanishing violation: add a constant 1 to the polynomial (degree fine,
  // nonzero at the betas).
  auto shifted = column;
  for (auto& v : shifted) v = ctx_->Add(v, ctx_->One());
  EXPECT_FALSE(VerifyColumn(batch, shifted));
  // Wrong size.
  shifted.pop_back();
  EXPECT_FALSE(VerifyColumn(batch, shifted));
}

TEST_F(VssBatchTest, TransformedOutputsStillVanishAndVerify) {
  VssBatch batch = MakeRefreshBatch(*shamir_, 4);
  std::vector<std::vector<std::vector<FpElem>>> deals;
  for (std::size_t i = 0; i < params_.n; ++i) {
    deals.push_back(Elems(*ctx_, batch.Deal(rng_)));
  }
  std::vector<std::vector<std::vector<FpElem>>> outputs(params_.n);
  for (std::size_t k = 0; k < params_.n; ++k) {
    std::vector<std::vector<FpElem>> col(params_.n);
    for (std::size_t i = 0; i < params_.n; ++i) col[i] = deals[i][k];
    outputs[k] = Elems(*ctx_, batch.Transform(Rows(*ctx_, col)));
  }
  for (std::size_t a = 0; a < params_.n; ++a) {
    for (std::size_t g = 0; g < batch.groups(); ++g) {
      std::vector<FpElem> column;
      for (std::size_t k = 0; k < params_.n; ++k) {
        column.push_back(outputs[k][a][g]);
      }
      EXPECT_TRUE(VerifyColumn(batch, column)) << a << "," << g;
    }
  }
}

TEST_F(VssBatchTest, TransformWithWorkersMatchesSerial) {
  VssBatch batch = MakeRefreshBatch(*shamir_, 6);
  auto deal = Elems(*ctx_, batch.Deal(rng_));
  std::vector<std::vector<FpElem>> col(params_.n);
  for (std::size_t i = 0; i < params_.n; ++i) col[i] = deal[i % deal.size()];
  // Total CPU = ambient (caller's chunk) + extra (pool workers); with a
  // single-thread global pool the extra stays zero and everything runs inline.
  std::uint64_t extra1 = 0, extra4 = 0;
  CpuTimer ambient1, ambient4;
  ambient1.Start();
  auto serial =
      Elems(*ctx_, batch.Transform(Rows(*ctx_, col), 1, &extra1));
  ambient1.Stop();
  ambient4.Start();
  auto parallel =
      Elems(*ctx_, batch.Transform(Rows(*ctx_, col), 4, &extra4));
  ambient4.Stop();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t a = 0; a < serial.size(); ++a) {
    for (std::size_t g = 0; g < batch.groups(); ++g) {
      EXPECT_TRUE(ctx_->Eq(serial[a][g], parallel[a][g]));
    }
  }
  EXPECT_GT(ambient1.nanos() + extra1, 0u);
  EXPECT_GT(ambient4.nanos() + extra4, 0u);
}

TEST_F(VssBatchTest, GroupsFor) {
  EXPECT_EQ(GroupsFor(1, 5), 1u);
  EXPECT_EQ(GroupsFor(5, 5), 1u);
  EXPECT_EQ(GroupsFor(6, 5), 2u);
  EXPECT_EQ(GroupsFor(11, 5), 3u);
}

TEST_F(VssBatchTest, RecoveryMaskVanishesAtTargetOnly) {
  RecoveryPlan plan = RecoveryPlan::For(4, params_, std::vector<std::uint32_t>{3});
  VssBatch batch = MakeRecoveryBatch(*shamir_, plan);
  auto deal = Elems(*ctx_, batch.Deal(rng_));
  std::vector<FpElem> xs;
  for (std::uint32_t s : plan.survivors) {
    xs.push_back(shamir_->points().alpha(s));
  }
  std::vector<FpElem> ys;
  for (std::size_t k = 0; k < plan.survivors.size(); ++k) {
    ys.push_back(deal[k][0]);
  }
  math::Poly f = math::Poly::Interpolate(
      *ctx_, std::span<const FpElem>(xs.data(), params_.degree() + 1),
      std::span<const FpElem>(ys.data(), params_.degree() + 1));
  EXPECT_TRUE(ctx_->IsZero(f.Eval(*ctx_, shamir_->points().alpha(3))));
  // Random (whp nonzero) at the secret points -- the mask hides the secrets.
  bool all_zero = true;
  for (std::size_t j = 0; j < params_.l; ++j) {
    if (!ctx_->IsZero(f.Eval(*ctx_, shamir_->points().beta(j)))) {
      all_zero = false;
    }
  }
  EXPECT_FALSE(all_zero);
}

// M is hyperinvertible only while its 2 * dealers nodes are distinct mod p.
// At p = 19 the 11 dealers' output nodes 12..22 wrap onto input nodes; at
// p = 23, 2 * 11 = p - 1 and every node is distinct.
TEST_F(VssBatchTest, RequiresTwiceDealersBelowModulus) {
  std::vector<std::uint32_t> holders(11);
  for (std::uint32_t i = 0; i < holders.size(); ++i) holders[i] = i;
  for (std::uint8_t p : {19, 23}) {
    const FpCtx small(Bytes{p});
    const EvalPoints points(small, holders.size(), 1);
    auto make = [&] {
      return VssBatch(small, points, holders, {{points.beta_node(0)}},
                      /*degree=*/3, /*check_rows=*/2, /*groups=*/1);
    };
    if (p == 19) {
      EXPECT_THROW(make(), InvalidArgument);
    } else {
      EXPECT_NO_THROW(make());
    }
  }
}

// The integer-node VSS kernels against the matrix forms they replace, at
// every standard width under both kernel dispatches, at 2^127 - 1 (top limb
// not normalised) and at 2^61 - 1 (one limb).
class IntegerNodeVssBatchTest : public ::testing::TestWithParam<int> {
 protected:
  // Params 0..7: widths 256..2048 x {kAuto, kGeneric}; 8: 2^127 - 1;
  // 9: 2^61 - 1.
  IntegerNodeVssBatchTest() : ctx_(Modulus(), Dispatch()), rng_(GetParam()) {}

  static Bytes Modulus() {
    if (GetParam() >= 8) {
      Bytes m(GetParam() == 8 ? 16 : 8, 0xFF);
      m[0] = GetParam() == 8 ? 0x7F : 0x1F;
      return m;
    }
    return field::StandardPrimeBe(256u << (GetParam() / 2));
  }
  static field::KernelDispatch Dispatch() {
    return GetParam() % 2 == 0 ? field::KernelDispatch::kAuto
                               : field::KernelDispatch::kGeneric;
  }

  FpCtx ctx_;
  Rng rng_;
};

// Every extra-limb boundary of the exact-integer transform (nh = 17 | 18,
// 33 | 34, 49 | 50), on all p - 1 (the largest inputs), alternating 0 and
// p - 1 both ways round (the largest differences) and random inputs.
TEST_P(IntegerNodeVssBatchTest, TransformMatchesHyperInvertibleProduct) {
  const FpElem top = ctx_.Neg(ctx_.One());
  for (std::size_t nh : {1, 2, 3, 8, 17, 18, 21, 33, 34, 40, 49, 50, 64}) {
    const EvalPoints points(ctx_, nh, 1);
    std::vector<std::uint32_t> holders(nh);
    for (std::uint32_t i = 0; i < nh; ++i) holders[i] = i;
    const std::size_t groups = 5;
    const VssBatch batch(ctx_, points, holders, {{}}, /*degree=*/0,
                         /*check_rows=*/0, groups);
    std::vector<std::vector<FpElem>> deals(nh);
    for (std::size_t i = 0; i < nh; ++i) {
      deals[i] = {top, i % 2 == 0 ? ctx_.Zero() : top,
                  i % 2 == 0 ? top : ctx_.Zero(), ctx_.Random(rng_),
                  ctx_.Random(rng_)};
    }
    const math::Matrix m = math::HyperInvertible(ctx_, nh, nh);
    std::vector<std::vector<FpElem>> expected(nh, std::vector<FpElem>(groups));
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<FpElem> column;
      for (const auto& row : deals) column.push_back(row[g]);
      const std::vector<FpElem> mx = m.MulVec(ctx_, column);
      for (std::size_t a = 0; a < nh; ++a) expected[a][g] = mx[a];
    }
    EXPECT_EQ(Elems(ctx_, batch.Transform(Rows(ctx_, deals))), expected)
        << "nh " << nh;
    SetGlobalPoolThreads(4);
    EXPECT_EQ(Elems(ctx_, batch.Transform(Rows(ctx_, deals), 4)), expected)
        << "nh " << nh;
    SetGlobalPoolThreads(1);
  }
}

// The dealing against a per-step reduced Horner (MulU64Add at every step) at
// n = 64, t = 10, l = 20: the widest nodes and highest degree of the
// figure shapes, so the largest accumulator. With V empty and every
// coefficient p - 1 the accumulator reaches its bound.
TEST_P(IntegerNodeVssBatchTest, DealFromMatchesPerStepHornerAtWidestShape) {
  const std::size_t n = 64, t = 10, l = 20, degree = t + l;
  const EvalPoints points(ctx_, n, l);
  std::vector<std::uint32_t> all(n);
  for (std::uint32_t i = 0; i < n; ++i) all[i] = i;
  std::vector<std::uint64_t> betas;
  for (std::size_t j = 0; j < l; ++j) betas.push_back(points.beta_node(j));
  const VssBatch refresh(ctx_, points, all, {betas}, degree, 2 * t, 2);
  const VssBatch plain(ctx_, points, all, {{}}, degree, 2 * t, 2);
  const math::Poly all_top(
      std::vector<FpElem>(degree + 1, ctx_.Neg(ctx_.One())));
  const std::vector<std::pair<const VssBatch*, std::vector<math::Poly>>> cases =
      {{&refresh, refresh.DrawDealRandomness(rng_)},
       {&plain, {all_top, math::Poly::Random(ctx_, rng_, degree)}}};
  for (const auto& [batch, us] : cases) {
    const auto deal = Elems(ctx_, batch->DealFrom(us));
    std::vector<FpElem> vanish;
    for (std::uint64_t b : batch == &refresh ? betas
                                              : std::vector<std::uint64_t>{}) {
      vanish.push_back(ctx_.FromUint64(b));
    }
    const math::Poly w = math::Poly::Vanishing(ctx_, vanish);
    for (std::size_t g = 0; g < us.size(); ++g) {
      const std::vector<FpElem> z = math::Poly::Mul(ctx_, w, us[g]).coeffs();
      ASSERT_EQ(z.size(), degree + 1);
      for (std::size_t k = 0; k < n; ++k) {
        FpElem want = z.back();
        for (std::size_t i = z.size() - 1; i-- > 0;) {
          want = ctx_.MulU64Add(want, points.alpha_node(k), z[i]);
        }
        EXPECT_EQ(deal[k][g], want) << "k " << k << " g " << g;
      }
    }
  }
}

TEST_P(IntegerNodeVssBatchTest, DealFromMatchesVandermondeOfVanishingProduct) {
  // The paper-best shape n = 21, t = 4, l = 6: a refresh batch over every
  // party (V = the betas) and a recovery batch without party 5 (V = its
  // alpha).
  const std::size_t n = 21, t = 4, l = 6, groups = 3;
  const EvalPoints points(ctx_, n, l);
  std::vector<std::uint32_t> all(n), survivors;
  for (std::uint32_t i = 0; i < n; ++i) {
    all[i] = i;
    if (i != 5) survivors.push_back(i);
  }
  std::vector<std::uint64_t> betas;
  for (std::size_t j = 0; j < l; ++j) betas.push_back(points.beta_node(j));
  const VssBatch refresh(ctx_, points, all, {betas}, t + l, 2 * t, groups);
  const VssBatch recovery(ctx_, points, survivors, {{points.alpha_node(5)}},
                          t + l, 2 * t, groups, /*recovery=*/true);
  for (const VssBatch* batch : {&refresh, &recovery}) {
    std::vector<FpElem> vanish;
    if (batch->recovery_shape()) {
      vanish.push_back(points.alpha(5));
    } else {
      vanish.assign(points.betas().begin(), points.betas().end());
    }
    const std::vector<FpElem> alphas = points.AlphasOf(batch->holders());
    const math::Poly w = math::Poly::Vanishing(ctx_, vanish);
    const std::vector<math::Poly> us = batch->DrawDealRandomness(rng_);
    const auto deal = Elems(ctx_, batch->DealFrom(us));
    ASSERT_EQ(deal.size(), alphas.size());
    for (std::size_t g = 0; g < groups; ++g) {
      const math::Poly z = math::Poly::Mul(ctx_, w, us[g]);
      const math::Matrix rows = math::Vandermonde(ctx_, alphas, z.size());
      for (std::size_t k = 0; k < alphas.size(); ++k) {
        EXPECT_EQ(deal[k][g], ctx_.Dot(rows.Row(k), z.coeffs()))
            << (batch->recovery_shape() ? "recovery" : "refresh") << " k "
            << k << " g " << g;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FieldsAndDispatch, IntegerNodeVssBatchTest,
                         ::testing::Range(0, 10));

// The dealing where |V(x)| = prod |x - v| outgrows a word, so it is applied
// as word-sized factors, at a chain width (k + 2 limbs). n = 40, t = 2,
// l = 16: d = 18 and nodes up to 56 give 6 * 19 = 114 bits beyond p; the
// refresh product over the 16 betas fits one word at the lowest holder
// node, 17 (16! < 2^45), and needs two from node 30 on. The recovery batch
// vanishes at the largest node, the missing last party's. Against a
// per-step reduced Horner of z = u * prod (x - v), with one polynomial's
// coefficients all p - 1 (the largest accumulator) and the rest random.
class SplitFactorDealTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SplitFactorDealTest, DealFromMatchesPerStepHorner) {
  const FpCtx ctx(field::StandardPrimeBe(GetParam()));
  Rng rng(GetParam());
  const std::size_t n = 40, t = 2, l = 16, degree = t + l;
  const EvalPoints points(ctx, n, l);
  std::vector<std::uint32_t> all(n), survivors;
  for (std::uint32_t i = 0; i < n; ++i) {
    all[i] = i;
    if (i + 1 < n) survivors.push_back(i);
  }
  std::vector<std::uint64_t> betas;
  for (std::size_t j = 0; j < l; ++j) betas.push_back(points.beta_node(j));
  const std::vector<std::uint64_t> target = {points.alpha_node(n - 1)};
  const VssBatch refresh(ctx, points, all, {betas}, degree, 2 * t, 2);
  const VssBatch recovery(ctx, points, survivors, {target}, degree, 2 * t, 2,
                          /*recovery=*/true);
  for (const VssBatch* batch : {&refresh, &recovery}) {
    const std::vector<std::uint64_t>& nodes =
        batch->recovery_shape() ? target : betas;
    std::vector<FpElem> vanish;
    for (std::uint64_t v : nodes) vanish.push_back(ctx.FromUint64(v));
    const math::Poly w = math::Poly::Vanishing(ctx, vanish);
    std::vector<math::Poly> us = batch->DrawDealRandomness(rng);
    us[0] = math::Poly(std::vector<FpElem>(degree + 1 - nodes.size(),
                                           ctx.Neg(ctx.One())));
    const auto deal = Elems(ctx, batch->DealFrom(us));
    for (std::size_t g = 0; g < us.size(); ++g) {
      const std::vector<FpElem> z = math::Poly::Mul(ctx, w, us[g]).coeffs();
      ASSERT_EQ(z.size(), degree + 1);
      for (std::size_t k = 0; k < batch->dealers(); ++k) {
        const std::uint64_t x = points.alpha_node(batch->holders()[k]);
        FpElem want = z.back();
        for (std::size_t i = z.size() - 1; i-- > 0;) {
          want = ctx.MulU64Add(want, x, z[i]);
        }
        EXPECT_EQ(deal[k][g], want)
            << (batch->recovery_shape() ? "recovery" : "refresh") << " x "
            << x << " g " << g;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fields, SplitFactorDealTest,
                         ::testing::Values(256, 512, 1024, 2048));

// A recovery batch with one segment per target against one-segment batches
// over the same survivors, at the paper-best and serving shapes, 256- and
// 1024-bit fields. Params: (grid point, field bits).
class MultiSegmentVssBatchTest
    : public ::testing::TestWithParam<std::tuple<GridPoint, std::size_t>> {
 protected:
  MultiSegmentVssBatchTest()
      : ctx_(std::make_shared<const FpCtx>(
            field::StandardPrimeBe(std::get<1>(GetParam())))) {
    const GridPoint& g = std::get<0>(GetParam());
    params_.n = g.n;
    params_.t = g.t;
    params_.l = g.l;
    params_.r = g.r;
    params_.field_bits = std::get<1>(GetParam());
    params_.Validate();
    shamir_ = std::make_unique<PackedShamir>(ctx_, params_);
    // Targets spread over the parties, in an order that is not sorted.
    for (std::size_t j = 0; j < g.r; ++j) {
      targets_.push_back(
          static_cast<std::uint32_t>((g.n - 1 - 3 * j) % g.n));
    }
    // Enough blocks for two groups per target.
    plan_ = RecoveryPlan::For(
        params_.n - params_.r - params_.check_rows() + 1, params_, targets_);
  }

  // The one-segment batch of target j: same survivors and groups.
  VssBatch Single(std::size_t j) const {
    RecoveryPlan one = plan_;
    one.targets = {targets_[j]};
    return MakeRecoveryBatch(*shamir_, one);
  }

  // Deals of every survivor, then each holder's transform outputs:
  // outputs[k][a][g].
  static std::vector<std::vector<std::vector<FpElem>>> Outputs(
      const VssBatch& batch,
      const std::vector<std::vector<std::vector<FpElem>>>& deals) {
    const std::size_t ns = batch.dealers();
    std::vector<std::vector<std::vector<FpElem>>> outputs(ns);
    for (std::size_t k = 0; k < ns; ++k) {
      std::vector<std::vector<FpElem>> col(ns);
      for (std::size_t i = 0; i < ns; ++i) col[i] = deals[i][k];
      outputs[k] =
          Elems(batch.ctx(), batch.Transform(Rows(batch.ctx(), col)));
    }
    return outputs;
  }

  static std::vector<FpElem> Column(
      const std::vector<std::vector<std::vector<FpElem>>>& outputs,
      std::size_t a, std::size_t g) {
    std::vector<FpElem> column;
    for (const auto& out : outputs) column.push_back(out[a][g]);
    return column;
  }

  std::shared_ptr<const FpCtx> ctx_;
  Params params_;
  std::unique_ptr<PackedShamir> shamir_;
  std::vector<std::uint32_t> targets_;
  RecoveryPlan plan_;
};

TEST_P(MultiSegmentVssBatchTest, MatchesOneSegmentBatchesRunBackToBack) {
  const VssBatch batch = MakeRecoveryBatch(*shamir_, plan_);
  const std::size_t r = targets_.size(), G = plan_.groups;
  const std::size_t ns = plan_.survivors.size();
  ASSERT_EQ(G, 2u);
  ASSERT_EQ(batch.groups(), r * G);

  // Each survivor deals from its own RNG: once for the whole batch, and
  // once per target for the one-segment batches, back to back.
  std::vector<std::vector<std::vector<FpElem>>> deals;
  std::vector<std::vector<std::vector<std::vector<FpElem>>>> single_deals(r);
  for (std::size_t i = 0; i < ns; ++i) {
    Rng whole(1000 + i), apart(1000 + i);
    deals.push_back(Elems(*ctx_, batch.Deal(whole)));
    for (std::size_t j = 0; j < r; ++j) {
      single_deals[j].push_back(Elems(*ctx_, Single(j).Deal(apart)));
    }
    EXPECT_EQ(whole.Next(), apart.Next()) << "dealer " << i;
  }
  const auto outputs = Outputs(batch, deals);
  for (std::size_t j = 0; j < r; ++j) {
    const VssBatch single = Single(j);
    const auto single_outputs = Outputs(single, single_deals[j]);
    for (std::size_t g = 0; g < G; ++g) {
      for (std::size_t i = 0; i < ns; ++i) {
        for (std::size_t k = 0; k < ns; ++k) {
          EXPECT_EQ(deals[i][k][j * G + g], single_deals[j][i][k][g])
              << "deal " << i << " -> " << k << " target " << j;
        }
      }
      for (std::size_t a = 0; a < ns; ++a) {
        const std::vector<FpElem> column = Column(outputs, a, j * G + g);
        EXPECT_EQ(column, Column(single_outputs, a, g))
            << "row " << a << " target " << j << " group " << g;
        if (a < batch.check_rows()) {
          EXPECT_TRUE(VerifyColumn(batch, column, j * G + g));
          EXPECT_TRUE(VerifyColumn(single, column, g));
        }
      }
    }
  }
}

TEST_P(MultiSegmentVssBatchTest, CorruptGroupFailsOnlyItsOwnSegmentCheck) {
  const VssBatch batch = MakeRecoveryBatch(*shamir_, plan_);
  const std::size_t G = plan_.groups;
  Rng rng(5);
  std::vector<std::vector<std::vector<FpElem>>> deals;
  for (std::size_t i = 0; i < batch.dealers(); ++i) {
    deals.push_back(Elems(*ctx_, batch.Deal(rng)));
  }
  // Dealer 0 shifts the second group of the last segment by a constant:
  // still degree <= d, but no longer zero at that target's alpha.
  const std::size_t bad = (targets_.size() - 1) * G + 1;
  for (auto& row : deals[0]) row[bad] = ctx_->Add(row[bad], ctx_->One());
  const auto outputs = Outputs(batch, deals);
  for (std::size_t a = 0; a < batch.check_rows(); ++a) {
    for (std::size_t g = 0; g < batch.groups(); ++g) {
      EXPECT_EQ(VerifyColumn(batch, Column(outputs, a, g), g), g != bad)
          << "row " << a << " group " << g;
    }
    // Each group is checked against its own segment's zero: an honest
    // column of segment 0 fails as a group of segment 1.
    EXPECT_FALSE(VerifyColumn(batch, Column(outputs, a, 0), G));
  }
}

TEST_P(MultiSegmentVssBatchTest, EachMaskVanishesAtItsOwnTargetOnly) {
  const VssBatch batch = MakeRecoveryBatch(*shamir_, plan_);
  Rng rng(6);
  std::vector<std::vector<std::vector<FpElem>>> deals;
  for (std::size_t i = 0; i < batch.dealers(); ++i) {
    deals.push_back(Elems(*ctx_, batch.Deal(rng)));
  }
  const auto outputs = Outputs(batch, deals);
  std::vector<FpElem> xs;
  for (std::uint32_t s : plan_.survivors) {
    xs.push_back(shamir_->points().alpha(s));
  }
  const std::span<const FpElem> base(xs.data(), params_.degree() + 1);
  for (std::size_t a = batch.check_rows(); a < batch.dealers(); ++a) {
    for (std::size_t g = 0; g < batch.groups(); ++g) {
      const std::vector<FpElem> column = Column(outputs, a, g);
      const math::Poly mask = math::Poly::Interpolate(
          *ctx_, base,
          std::span<const FpElem>(column.data(), params_.degree() + 1));
      for (std::size_t j = 0; j < targets_.size(); ++j) {
        const FpElem alpha = shamir_->points().alpha(targets_[j]);
        const bool zero = ctx_->IsZero(mask.Eval(*ctx_, alpha));
        EXPECT_EQ(zero, j == g / plan_.groups)
            << "row " << a << " group " << g << " target " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiSegmentVssBatchTest,
    ::testing::Combine(::testing::Values(GridPoint{21, 4, 6, 3},
                                         GridPoint{8, 1, 2, 2}),
                       ::testing::Values(std::size_t{256}, std::size_t{1024})),
    [](const auto& info) {
      std::ostringstream os;
      os << std::get<0>(info.param) << "_g" << std::get<1>(info.param);
      return os.str();
    });

TEST(RecoveryPlan, SurvivorsExcludeTargetsAndValidate) {
  Params p;
  p.n = 13;
  p.t = 2;
  p.l = 3;
  p.r = 2;
  p.field_bits = 256;
  auto plan = RecoveryPlan::For(10, p, std::vector<std::uint32_t>{1, 5});
  EXPECT_EQ(plan.survivors.size(), 11u);
  for (std::uint32_t s : plan.survivors) {
    EXPECT_NE(s, 1u);
    EXPECT_NE(s, 5u);
  }
  EXPECT_EQ(plan.usable, 11u - 4u);
  // More targets than r is rejected.
  EXPECT_THROW(
      RecoveryPlan::For(10, p, std::vector<std::uint32_t>{1, 5, 7}),
      InvalidArgument);
}

}  // namespace
}  // namespace pisces::pss
