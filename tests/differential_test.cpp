// Differential test: the packed/batched refresh pipeline against the HJKY'95
// baseline.
//
// Both schemes are seeded with the SAME secrets and run many consecutive
// refresh windows; after every window both must still reconstruct exactly the
// original secrets. The two implementations share nothing above the field
// layer (packed Shamir + hyperinvertible VSS vs. one-polynomial-per-secret
// zero-sharing), so agreement across 50 windows is strong evidence that
// neither refresh drifts the stored values. A second test repeats the run
// with injected share corruption and checks RobustReconstructBlock still
// recovers the identical blocks.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "field/primes.h"
#include "pisces/pisces.h"
#include "pss/baseline.h"
#include "pss/refresh.h"

namespace pisces::pss {
namespace {

using field::FpCtx;
using field::FpElem;

class DifferentialTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 9;
  static constexpr std::size_t kT = 2;
  static constexpr std::size_t kL = 2;
  static constexpr std::size_t kBlocks = 4;
  static constexpr std::size_t kWindows = 50;

  DifferentialTest() : ctx_(std::make_shared<const FpCtx>(
                           field::StandardPrimeBe(256))) {
    params_.n = kN;
    params_.t = kT;
    params_.l = kL;
    params_.r = 1;
    params_.field_bits = 256;
    params_.Validate();
    shamir_ = std::make_unique<PackedShamir>(ctx_, params_);
  }

  // One fixed set of secrets, drawn from a fixed seed, viewed two ways:
  // kBlocks blocks of l for the packed scheme, flat for the baseline.
  std::vector<std::vector<FpElem>> DrawBlocks(Rng& rng) const {
    std::vector<std::vector<FpElem>> blocks(kBlocks);
    for (auto& b : blocks) {
      for (std::size_t j = 0; j < kL; ++j) b.push_back(ctx_->Random(rng));
    }
    return blocks;
  }

  std::shared_ptr<const FpCtx> ctx_;
  Params params_;
  std::unique_ptr<PackedShamir> shamir_;
};

TEST_F(DifferentialTest, PackedAndBaselineAgreeAcrossFiftyWindows) {
  Rng secret_rng(0xD1FF);
  const auto blocks = DrawBlocks(secret_rng);
  std::vector<FpElem> flat;
  for (const auto& b : blocks) flat.insert(flat.end(), b.begin(), b.end());

  // Packed side: share blockwise, shares_by_party[i][b].
  Rng packed_rng(0xAB5EED);
  auto by_block = shamir_->ShareBlocks(blocks, packed_rng);
  std::vector<std::vector<FpElem>> packed_shares(
      kN, std::vector<FpElem>(kBlocks));
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t i = 0; i < kN; ++i) packed_shares[i][b] = by_block[b][i];
  }

  // Baseline side: same secrets, one classic Shamir polynomial each.
  Rng base_rng(0xAB5EED);
  EvalPoints base_points(*ctx_, kN, 1);
  auto base_shares =
      BaselineShare(*ctx_, base_points, kN, kT, flat, base_rng);

  std::vector<std::uint32_t> all(kN);
  std::iota(all.begin(), all.end(), 0u);

  for (std::size_t w = 0; w < kWindows; ++w) {
    ReferenceRefresh(*shamir_, packed_shares, packed_rng);
    BaselineRefresh(*ctx_, base_points, kN, kT, base_shares, base_rng);

    // Reconstruct every block from the packed side...
    std::vector<std::vector<FpElem>> shares_by_block(
        kBlocks, std::vector<FpElem>(kN));
    for (std::size_t b = 0; b < kBlocks; ++b) {
      for (std::size_t i = 0; i < kN; ++i) {
        shares_by_block[b][i] = packed_shares[i][b];
      }
    }
    auto packed_out = shamir_->ReconstructBlocks(all, shares_by_block);

    // ...and every secret from the baseline, and compare both to the
    // original draw element by element.
    for (std::size_t b = 0; b < kBlocks; ++b) {
      for (std::size_t j = 0; j < kL; ++j) {
        const FpElem& expect = blocks[b][j];
        EXPECT_TRUE(ctx_->Eq(packed_out[b][j], expect))
            << "packed drifted at window " << w << " block " << b;
        FpElem base_out = BaselineReconstruct(*ctx_, base_points, kT,
                                              base_shares, b * kL + j);
        EXPECT_TRUE(ctx_->Eq(base_out, expect))
            << "baseline drifted at window " << w << " secret " << b * kL + j;
      }
    }
  }
}

TEST_F(DifferentialTest, RobustReconstructSurvivesCorruptionAfterRefresh) {
  Rng secret_rng(0xD1FF);  // same seed: identical secrets as the test above
  const auto blocks = DrawBlocks(secret_rng);

  Rng packed_rng(0xAB5EED);
  auto by_block = shamir_->ShareBlocks(blocks, packed_rng);
  std::vector<std::vector<FpElem>> packed_shares(
      kN, std::vector<FpElem>(kBlocks));
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t i = 0; i < kN; ++i) packed_shares[i][b] = by_block[b][i];
  }

  std::vector<std::uint32_t> all(kN);
  std::iota(all.begin(), all.end(), 0u);

  Rng corrupt_rng(0xBADF00D);
  for (std::size_t w = 0; w < 10; ++w) {
    ReferenceRefresh(*shamir_, packed_shares, packed_rng);

    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::vector<FpElem> ys(kN);
      for (std::size_t i = 0; i < kN; ++i) ys[i] = packed_shares[i][b];
      // Corrupt up to t distinct responders' shares; with all n responding
      // Berlekamp-Welch tolerates floor((n - d - 1) / 2) = t errors here.
      std::size_t c1 = corrupt_rng.Below(kN);
      std::size_t c2 = (c1 + 1 + corrupt_rng.Below(kN - 1)) % kN;
      ys[c1] = ctx_->Add(ys[c1], ctx_->One());
      ys[c2] = ctx_->Random(corrupt_rng);

      auto robust = shamir_->RobustReconstructBlock(all, ys);
      ASSERT_TRUE(robust.has_value()) << "window " << w << " block " << b;
      for (std::size_t j = 0; j < kL; ++j) {
        EXPECT_TRUE(ctx_->Eq((*robust)[j], blocks[b][j]))
            << "window " << w << " block " << b << " secret " << j;
      }
      // The plain (non-robust) path must also agree once the corrupted
      // shares are excluded from the responder set.
      std::vector<std::uint32_t> honest;
      std::vector<FpElem> honest_ys;
      for (std::size_t i = 0; i < kN; ++i) {
        if (i == c1 || i == c2) continue;
        honest.push_back(static_cast<std::uint32_t>(i));
        honest_ys.push_back(ys[i]);
      }
      auto plain = shamir_->ReconstructBlock(honest, honest_ys);
      for (std::size_t j = 0; j < kL; ++j) {
        EXPECT_TRUE(ctx_->Eq(plain[j], (*robust)[j]));
      }
    }
  }
}

// Serving-plane scheduler differential: refreshing a shard's F files in ONE
// batched launch must leave every host holding bytes IDENTICAL to F
// sequential per-file refreshes. The two schedules share the code path but
// not the interleaving: the batched plane launches every session before a
// single network pump, the sequential plane pumps per file. Byte identity
// holds because each host draws its zero-sharing randomness exactly once per
// session at launch, in file order, in both schedules.
TEST(ServingDifferential, BatchedRefreshMatchesSequentialPerFile) {
  auto build = [] {
    ServingConfig cfg;
    cfg.shards = 2;
    cfg.params.n = 8;
    cfg.params.t = 1;
    cfg.params.l = 2;
    cfg.params.r = 2;
    cfg.params.field_bits = 256;
    cfg.seed = 404;
    return std::make_unique<ServingPlane>(cfg);
  };
  auto batched = build();
  auto sequential = build();

  // Identical uploads in identical order -> identical pre-refresh state.
  Rng rng(55);
  const std::uint64_t sb = batched->OpenSession();
  const std::uint64_t ss = sequential->OpenSession();
  std::vector<Bytes> files;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    files.push_back(rng.RandomBytes(512 + 64 * id));
    ASSERT_EQ(batched->Submit(sb, net::ServingOp::kUpload, id, files.back())
                  .status,
              net::ServingStatus::kOk);
    ASSERT_EQ(sequential->Submit(ss, net::ServingOp::kUpload, id, files.back())
                  .status,
              net::ServingStatus::kOk);
  }
  batched->Drain();
  sequential->Drain();

  ASSERT_TRUE(batched->BatchRefresh());
  EXPECT_EQ(batched->stats().refresh_batches, 2u);  // one per non-empty shard
  // The sequential plane launches once per file, in each shard's sorted
  // order (the order BatchRefresh launches a shard's population in).
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint64_t id = 1; id <= 5; ++id) {
      if (sequential->ShardOf(id) != s) continue;
      const std::uint64_t one[] = {id};
      ASSERT_TRUE(sequential->shard(s).hypervisor().RefreshFiles(one));
    }
  }

  // Every host's post-refresh share vector must agree on bytes.
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint32_t h = 0; h < 8; ++h) {
      ShareStore& a = batched->shard(s).host(h).store();
      ShareStore& b = sequential->shard(s).host(h).store();
      ASSERT_EQ(a.FileIds(), b.FileIds()) << "shard " << s << " host " << h;
      for (std::uint64_t id : a.FileIds()) {
        EXPECT_EQ(a.Decode(id), b.Decode(id))
            << "shard " << s << " host " << h << " file " << id;
      }
    }
  }

  // And both serve the original contents.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(batched->shard(batched->ShardOf(id)).Download(pisces::ReadSpec::Classic(id)),
              files[id - 1]);
    EXPECT_EQ(sequential->shard(sequential->ShardOf(id)).Download(pisces::ReadSpec::Classic(id)),
              files[id - 1]);
  }
}

}  // namespace
}  // namespace pisces::pss
