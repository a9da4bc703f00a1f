// ShareStore: one at-rest tier and secure disassociation, and the hosts' use
// of it: reads serve the at-rest bytes, refresh rewrites them in place.
#include <gtest/gtest.h>

#include <algorithm>

#include "field/primes.h"
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
    store_.Put(meta, field::SerializeElems(ctx_, shares));
    return meta;
  }

  field::FpCtx ctx_;
  Rng rng_;
  ShareStore store_;
};

TEST_F(StoreTest, WritableOverwritesTheAtRestShare) {
  PutFile(1, 5);
  ASSERT_TRUE(store_.Has(1));
  const std::span<std::uint8_t> shares = store_.Writable(1);
  ASSERT_EQ(shares.size(), 5 * ctx_.elem_bytes());
  const field::FpElem changed =
      ctx_.Add(field::ElemAt(ctx_, shares, 0), ctx_.One());
  ctx_.ToBytes(changed, shares.data());
  // The write replaced the old share: there is no other copy.
  EXPECT_TRUE(ctx_.Eq(store_.Decode(1)[0], changed));
  EXPECT_EQ(store_.AtRest(1).data(), shares.data());
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
  ctx_.ToBytes(ctx_.One(), store_.Writable(1).data());
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
  EXPECT_THROW(store_.Put(meta, field::SerializeElems(ctx_, two)),
               InvalidArgument);
}

TEST_F(StoreTest, AtRestIsTheWireEncodingAndDecodeLeavesItAlone) {
  const FileMeta meta = PutFile(1, 3);
  const Bytes at_rest(store_.AtRest(1).begin(), store_.AtRest(1).end());
  EXPECT_EQ(at_rest, field::SerializeElems(ctx_, store_.Decode(1)));
  EXPECT_TRUE(std::ranges::equal(store_.AtRest(1), at_rest));

  FileMeta copy = meta;
  copy.file_id = 2;
  store_.Put(copy, at_rest);
  EXPECT_TRUE(std::ranges::equal(store_.AtRest(2), at_rest));
  copy.num_blocks = 4;
  EXPECT_THROW(store_.Put(copy, at_rest), InvalidArgument);
}

// A read takes one lookup (Find: meta and at-rest bytes, or null).
TEST_F(StoreTest, FindReturnsMetaAndAtRestBytes) {
  const FileMeta meta = PutFile(1, 3);
  EXPECT_EQ(store_.Find(2), nullptr);
  const ShareStore::Stored* stored = store_.Find(1);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->meta.num_blocks, meta.num_blocks);
  EXPECT_TRUE(std::ranges::equal(stored->at_rest, store_.AtRest(1)));
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

// Every host's at-rest bytes of `file_id`, by host.
std::vector<Bytes> AtRestBytes(Cluster& cluster, std::uint64_t file_id) {
  std::vector<Bytes> out;
  for (std::uint32_t h = 0; h < cluster.config().params.n; ++h) {
    const auto at_rest = cluster.host(h).store().AtRest(file_id);
    out.emplace_back(at_rest.begin(), at_rest.end());
  }
  return out;
}

TEST(HostStore, DownloadsLeaveTheAtRestBytesAlone) {
  Cluster cluster(HostStoreConfig());
  Rng rng(1);
  const Bytes file = rng.RandomBytes(2500);
  cluster.Upload(1, file);

  const std::vector<Bytes> before = AtRestBytes(cluster, 1);
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);
  EXPECT_EQ(cluster.Download(ReadSpec::Staircase(1)), file);
  EXPECT_EQ(cluster.Download(ReadSpec::Staircase(1, 4)), file);
  EXPECT_EQ(AtRestBytes(cluster, 1), before);
}

// A refresh adds each host's zero-share onto its stored element in place:
// every host's bytes change, at the same size, and still decode.
TEST(HostStore, RefreshRewritesEveryHostsAtRestBytes) {
  Cluster cluster(HostStoreConfig());
  Rng rng(2);
  const Bytes a = rng.RandomBytes(900);
  const Bytes b = rng.RandomBytes(1700);
  cluster.Upload(1, a);
  cluster.Upload(2, b);

  for (int round = 0; round < 2; ++round) {
    const std::vector<Bytes> before_a = AtRestBytes(cluster, 1);
    const std::vector<Bytes> before_b = AtRestBytes(cluster, 2);
    WindowReport report;
    ASSERT_TRUE(cluster.hypervisor().RefreshAllFiles(&report));
    const std::vector<Bytes> after_a = AtRestBytes(cluster, 1);
    const std::vector<Bytes> after_b = AtRestBytes(cluster, 2);
    for (std::size_t h = 0; h < after_a.size(); ++h) {
      EXPECT_NE(after_a[h], before_a[h]) << "host " << h;
      EXPECT_NE(after_b[h], before_b[h]) << "host " << h;
      EXPECT_EQ(after_a[h].size(), before_a[h].size()) << "host " << h;
      EXPECT_EQ(after_b[h].size(), before_b[h].size()) << "host " << h;
    }
    EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), a);
    EXPECT_EQ(cluster.Download(ReadSpec::Staircase(2)), b);
  }
}

TEST(HostStore, UpdateWindowKeepsDownloadsExact) {
  Cluster cluster(HostStoreConfig());
  Rng rng(3);
  const Bytes file = rng.RandomBytes(3000);
  cluster.Upload(1, file);
  ASSERT_TRUE(cluster.RunUpdateWindow().ok);
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);
}

TEST(HostStore, ReshareContributionLeavesTheStoreAlone) {
  Cluster cluster(HostStoreConfig());
  Rng rng(4);
  const Bytes file = rng.RandomBytes(1200);
  cluster.Upload(1, file);

  // A contribution whose reshare is abandoned: computed, then never used.
  const pss::PackedShamir scheme(cluster.ctx_ptr(), cluster.config().params);
  const pss::ResharePublic pub =
      pss::MakeResharePublic(scheme, scheme, {0, 1, 2, 3});
  const std::vector<Bytes> before = AtRestBytes(cluster, 1);
  ASSERT_TRUE(cluster.host(0).ComputeReshare(1, pub, 0).has_value());
  EXPECT_EQ(AtRestBytes(cluster, 1), before);
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);

  // And a completed one.
  ASSERT_TRUE(cluster.Reshare(cluster.config().params).ok);
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);
}

}  // namespace
}  // namespace pisces
