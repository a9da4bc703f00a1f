// ShareStore: two-tier storage and secure disassociation, and the hosts'
// use of it: reads serve the at-rest bytes, only refresh and recovery load.
#include <gtest/gtest.h>

#include <algorithm>

#include "field/primes.h"
#include "obs/registry.h"
#include "pisces/pisces.h"
#include "pisces/share_store.h"

namespace pisces {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : ctx_(field::StandardPrimeBe(256)), rng_(3), store_(ctx_) {}

  FileMeta PutFile(std::uint64_t id, std::size_t blocks) {
    FileMeta meta;
    meta.file_id = id;
    meta.raw_size = blocks * 10;
    meta.num_elems = blocks;
    meta.num_blocks = blocks;
    std::vector<field::FpElem> shares;
    for (std::size_t i = 0; i < blocks; ++i) shares.push_back(ctx_.Random(rng_));
    store_.Put(meta, std::move(shares));
    return meta;
  }

  field::FpCtx ctx_;
  Rng rng_;
  ShareStore store_;
};

TEST_F(StoreTest, PutLoadStashRoundTrip) {
  PutFile(1, 5);
  ASSERT_TRUE(store_.Has(1));
  auto& shares = store_.Load(1);
  ASSERT_EQ(shares.size(), 5u);
  field::FpElem changed = ctx_.Add(shares[0], ctx_.One());
  shares[0] = changed;
  store_.Stash(1);
  // The mutation survived the stash/load cycle (new secondary blob).
  EXPECT_TRUE(ctx_.Eq(store_.Load(1)[0], changed));
}

TEST_F(StoreTest, MetaAndIds) {
  PutFile(3, 2);
  PutFile(1, 4);
  auto ids = store_.FileIds();
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_EQ(store_.MetaOf(3).num_blocks, 2u);
  EXPECT_THROW(store_.MetaOf(9), InvalidArgument);
}

TEST_F(StoreTest, SecondaryBytesTracksAtRestSize) {
  PutFile(1, 4);
  EXPECT_EQ(store_.SecondaryBytes(), 4 * ctx_.elem_bytes());
  store_.Load(1);
  store_.Stash(1);
  EXPECT_EQ(store_.SecondaryBytes(), 4 * ctx_.elem_bytes());
}

TEST_F(StoreTest, DeleteAndWipe) {
  PutFile(1, 2);
  PutFile(2, 2);
  store_.Delete(1);
  EXPECT_FALSE(store_.Has(1));
  EXPECT_TRUE(store_.Has(2));
  store_.WipeAll();
  EXPECT_FALSE(store_.Has(2));
  EXPECT_EQ(store_.SecondaryBytes(), 0u);
}

TEST_F(StoreTest, PutValidatesBlockCount) {
  FileMeta meta;
  meta.file_id = 9;
  meta.num_blocks = 3;
  std::vector<field::FpElem> two(2, ctx_.Zero());
  EXPECT_THROW(store_.Put(meta, std::move(two)), InvalidArgument);
}

TEST_F(StoreTest, AtRestIsTheWireEncodingAndDecodeLeavesItAlone) {
  const FileMeta meta = PutFile(1, 3);
  const Bytes at_rest(store_.AtRest(1).begin(), store_.AtRest(1).end());
  EXPECT_EQ(at_rest, field::SerializeElems(ctx_, store_.Decode(1)));
  EXPECT_EQ(store_.Loaded(), 0u);
  store_.Load(1);
  EXPECT_EQ(store_.Loaded(), 1u);
  store_.Stash(1);
  EXPECT_EQ(store_.Loaded(), 0u);
  EXPECT_TRUE(std::ranges::equal(store_.AtRest(1), at_rest));

  FileMeta copy = meta;
  copy.file_id = 2;
  store_.PutEncoded(copy, at_rest);
  EXPECT_TRUE(std::ranges::equal(store_.AtRest(2), at_rest));
  copy.num_blocks = 4;
  EXPECT_THROW(store_.PutEncoded(copy, at_rest), InvalidArgument);
}

// A read takes one lookup (Find: meta and at-rest bytes, or null), and
// neither it nor AtRest hands out bytes a live working copy is about to
// supersede.
TEST_F(StoreTest, AtRestAndFindRefuseALoadedFile) {
  const FileMeta meta = PutFile(1, 3);
  EXPECT_EQ(store_.Find(2), nullptr);
  const ShareStore::Stored* stored = store_.Find(1);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->meta.num_blocks, meta.num_blocks);
  EXPECT_TRUE(std::ranges::equal(stored->at_rest, store_.AtRest(1)));

  store_.Load(1);
  EXPECT_THROW(store_.AtRest(1), InvalidArgument);
  EXPECT_THROW(store_.Find(1), InvalidArgument);
  EXPECT_THROW(store_.Decode(1), InvalidArgument);
  store_.Stash(1);
  EXPECT_NE(store_.Find(1), nullptr);
  EXPECT_EQ(store_.AtRest(1).size(), 3 * ctx_.elem_bytes());
}

// --- the hosts' use of the store --------------------------------------------

ClusterConfig HostStoreConfig() {
  ClusterConfig cfg;
  cfg.params.n = 8;
  cfg.params.t = 1;
  cfg.params.l = 2;
  cfg.params.r = 2;
  cfg.params.field_bits = 256;
  cfg.seed = 29;
  return cfg;
}

std::size_t WorkingCopies(Cluster& cluster) {
  std::size_t n = 0;
  for (std::uint32_t h = 0; h < cluster.config().params.n; ++h) {
    n += cluster.host(h).store().Loaded();
  }
  return n;
}

TEST(HostStore, DownloadsNeitherLoadNorStash) {
  Cluster cluster(HostStoreConfig());
  Rng rng(1);
  const Bytes file = rng.RandomBytes(2500);
  cluster.Upload(1, file);

  const obs::Snapshot before = obs::TakeSnapshot();
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);
  EXPECT_EQ(cluster.Download(ReadSpec::Staircase(1)), file);
  EXPECT_EQ(cluster.Download(ReadSpec::Staircase(1, 4)), file);
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_EQ(obs::Value(delta, "store.loads"), 0u);
  EXPECT_EQ(obs::Value(delta, "store.stashes"), 0u);
  EXPECT_EQ(WorkingCopies(cluster), 0u);
}

TEST(HostStore, RefreshStashesOncePerHostPerFile) {
  Cluster cluster(HostStoreConfig());
  Rng rng(2);
  const Bytes a = rng.RandomBytes(900);
  const Bytes b = rng.RandomBytes(1700);
  cluster.Upload(1, a);
  cluster.Upload(2, b);

  const obs::Snapshot before = obs::TakeSnapshot();
  WindowReport report;
  ASSERT_TRUE(cluster.hypervisor().RefreshAllFiles(&report));
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  const std::uint64_t per_file = cluster.config().params.n;
  EXPECT_EQ(obs::Value(delta, "store.stashes"), 2 * per_file);
  EXPECT_EQ(obs::Value(delta, "store.loads"), 2 * per_file);
  EXPECT_EQ(WorkingCopies(cluster), 0u);
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), a);
  EXPECT_EQ(cluster.Download(ReadSpec::Staircase(2)), b);
}

TEST(HostStore, UpdateWindowLeavesNoWorkingCopy) {
  Cluster cluster(HostStoreConfig());
  Rng rng(3);
  const Bytes file = rng.RandomBytes(3000);
  cluster.Upload(1, file);
  ASSERT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(WorkingCopies(cluster), 0u);
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);
}

TEST(HostStore, ReshareContributionLeavesNoWorkingCopy) {
  Cluster cluster(HostStoreConfig());
  Rng rng(4);
  const Bytes file = rng.RandomBytes(1200);
  cluster.Upload(1, file);

  // A contribution whose reshare is abandoned: computed, then never used.
  const pss::PackedShamir scheme(cluster.ctx_ptr(), cluster.config().params);
  const pss::ResharePublic pub =
      pss::MakeResharePublic(scheme, scheme, {0, 1, 2, 3});
  ASSERT_TRUE(cluster.host(0).ComputeReshare(1, pub, 0).has_value());
  EXPECT_EQ(WorkingCopies(cluster), 0u);
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);

  // And a completed one.
  ASSERT_TRUE(cluster.Reshare(cluster.config().params).ok);
  EXPECT_EQ(WorkingCopies(cluster), 0u);
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);
}

}  // namespace
}  // namespace pisces
