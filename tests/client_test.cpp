// The client's wire-width data path: an upload encodes and shares straight
// into each host's kSetShares payload, and a download reconstructs from the
// responses' element bytes. Checked here against the element-level oracle
// (PackedShamir::ShareBlock per block, then SerializeElems) at the serving
// shape, the paper-best shape and on a runtime-width (kGeneric) context, at
// pool sizes 1 and 3; and against malformed responses, which are dropped
// while the download completes from the other hosts.
//
// Consecutive integer nodes make every Lagrange weight an integer, so the
// sharing generator (betas 1..l) and a read from consecutive hosts have
// L_r = 1 at every shape; the L_r^-1 multiply runs when the responders are
// not consecutive, which the dropped-response tests arrange.
#include <gtest/gtest.h>

#include <map>

#include "common/task_pool.h"
#include "field/primes.h"
#include "net/sim_transport.h"
#include "obs/registry.h"
#include "pisces/pisces.h"

namespace pisces {
namespace {

using field::FpCtx;
using field::FpElem;

pss::Params Shape(std::size_t n, std::size_t t, std::size_t l,
                  std::size_t bits) {
  pss::Params p;
  p.n = n;
  p.t = t;
  p.l = l;
  p.r = 1;
  p.field_bits = bits;
  return p;
}

// Records what the client sends; delivers nothing.
class CaptureTransport : public net::Transport {
 public:
  explicit CaptureTransport(std::uint32_t id) : id_(id) {}
  void Send(net::Message msg) override { sent.push_back(std::move(msg)); }
  std::optional<net::Message> Receive() override { return std::nullopt; }
  std::uint32_t id() const override { return id_; }

  std::vector<net::Message> sent;

 private:
  std::uint32_t id_;
};

// The n kSetShares payloads the element-level oracle produces for one
// upload: the codec's elements, ShareBlock per block drawing from `rng`,
// then meta blob || SerializeElems of each host's shares.
std::vector<Bytes> OraclePayloads(std::shared_ptr<const FpCtx> ctx,
                                  const pss::Params& p, Rng& rng,
                                  std::uint64_t file_id,
                                  std::span<const std::uint8_t> data) {
  const FileCodec codec(*ctx, p.l);
  const auto [meta, elems] = codec.Encode(file_id, data);
  const pss::PackedShamir shamir(ctx, p);
  std::vector<std::vector<FpElem>> by_host(p.n);
  for (std::size_t b = 0; b < meta.num_blocks; ++b) {
    const auto shares = shamir.ShareBlock(
        std::span<const FpElem>(elems).subspan(b * p.l, p.l), rng);
    for (std::size_t i = 0; i < p.n; ++i) by_host[i].push_back(shares[i]);
  }
  std::vector<Bytes> out;
  for (const auto& shares : by_host) {
    ByteWriter w;
    w.Blob(meta.Serialize());
    w.Raw(field::SerializeElems(*ctx, shares));
    out.push_back(w.Take());
  }
  return out;
}

// Uploads files of odd and even lengths through a Client on `ctx`, enrolled
// with a plaintext cluster of shape `p`, and checks every kSetShares payload
// against the oracle.
void ExpectPayloadsMatchOracle(const pss::Params& p,
                               std::shared_ptr<const FpCtx> ctx) {
  ClusterConfig cfg;
  cfg.params = p;
  cfg.encrypt_links = false;
  Cluster cluster(cfg);
  constexpr std::uint32_t kId = net::kClientId - 1;
  auto [sk, snap] = cluster.hypervisor().EnrollExternal(kId);
  for (std::size_t pool : {1u, 3u}) {
    SetGlobalPoolThreads(pool);
    CaptureTransport transport(kId);
    ClientConfig cc;
    cc.id = kId;
    cc.params = p;
    cc.ctx = ctx;
    cc.encrypt_links = false;
    cc.rng_seed = 41;
    Client client(cc, transport, crypto::SchnorrGroup::Default(),
                  cluster.hypervisor().ca_public_key(), sk,
                  cluster.hypervisor().directory(), snap);
    // The client's share randomness: its seed, as Client derives it.
    Rng oracle_rng(cc.rng_seed ^ 0xC11E47ULL);
    Rng data_rng(7);
    std::uint64_t id = 1;
    for (std::size_t size : {0u, 1u, 31u, 127u, 2047u, 8192u}) {
      const Bytes data = data_rng.RandomBytes(size);
      transport.sent.clear();
      client.BeginUpload(id, data);
      const std::vector<Bytes> want =
          OraclePayloads(ctx, p, oracle_rng, id, data);
      ASSERT_EQ(transport.sent.size(), p.n);
      for (const net::Message& m : transport.sent) {
        ASSERT_EQ(m.type, net::MsgType::kSetShares);
        ASSERT_LT(m.to, p.n);
        EXPECT_EQ(m.payload, want[m.to])
            << ctx->bits() << "-bit n=" << p.n << " pool " << pool
            << " size " << size << " host " << m.to;
      }
      ++id;
    }
  }
  SetGlobalPoolThreads(1);
}

TEST(ClientUpload, PayloadsMatchShareBlockOracleAtServingShape) {
  ExpectPayloadsMatchOracle(
      Shape(8, 1, 2, 256),
      std::make_shared<const FpCtx>(field::StandardPrimeBe(256)));
}

TEST(ClientUpload, PayloadsMatchShareBlockOracleAtPaperBestShape) {
  ExpectPayloadsMatchOracle(
      Shape(21, 4, 6, 1024),
      std::make_shared<const FpCtx>(field::StandardPrimeBe(1024)));
}

TEST(ClientUpload, PayloadsMatchShareBlockOracleOnGenericKernels) {
  auto ctx = std::make_shared<const FpCtx>(field::StandardPrimeBe(256),
                                           field::KernelDispatch::kGeneric);
  ASSERT_EQ(ctx->kernel_width(), 0u);
  ExpectPayloadsMatchOracle(Shape(8, 1, 2, 256), ctx);
}

ClusterConfig ServingConfig() {
  ClusterConfig cfg;
  cfg.params = Shape(8, 1, 2, 256);
  cfg.params.r = 2;
  cfg.seed = 29;
  cfg.encrypt_links = false;
  return cfg;
}

// field.int_dot_calls / field.int_dot_products count every output of the
// word-coefficient rows, however the rows are batched: an upload of B blocks
// applies the n generator rows per block, and a classic download the l
// reconstruction rows per block, each over d + 1 elements.
TEST(ClientUpload, IntDotCountersCountEveryRowOutput) {
  const ClusterConfig cfg = ServingConfig();
  Cluster cluster(cfg);
  const pss::Params& p = cfg.params;
  const Bytes data = Rng(5).RandomBytes(8192);
  const std::uint64_t blocks =
      FileCodec(cluster.ctx(), p.l).BlocksFor(data.size());
  const std::uint64_t terms = p.degree() + 1;
  const field::KernelStatsSnapshot before = field::GetKernelStats();
  cluster.Upload(1, data);
  const field::KernelStatsSnapshot uploaded = field::GetKernelStats();
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), data);
  const field::KernelStatsSnapshot after = field::GetKernelStats();
  EXPECT_EQ(uploaded.int_dot_calls - before.int_dot_calls, blocks * p.n);
  EXPECT_EQ(uploaded.int_dot_products - before.int_dot_products,
            blocks * p.n * terms);
  EXPECT_EQ(after.int_dot_calls - uploaded.int_dot_calls, blocks * p.l);
  EXPECT_EQ(after.int_dot_products - uploaded.int_dot_products,
            blocks * p.l * terms);
}

TEST(ClientDownload, OddLengthsRoundTripThroughTheirPadding) {
  Cluster cluster(ServingConfig());
  Rng rng(11);
  std::map<std::uint64_t, Bytes> files;
  std::uint64_t id = 1;
  for (std::size_t size : {1u, 3u, 23u, 30u, 31u, 33u, 61u, 1001u, 4095u}) {
    files[id] = rng.RandomBytes(size);
    cluster.Upload(id, files[id]);
    ++id;
  }
  for (const auto& [fid, data] : files) {
    EXPECT_EQ(cluster.Download(ReadSpec::Classic(fid)), data) << fid;
  }
  cluster.RunUpdateWindow();
  // Reconstruction fans out over pool workers writing slices of one buffer.
  SetGlobalPoolThreads(3);
  for (const auto& [fid, data] : files) {
    EXPECT_EQ(cluster.Download(ReadSpec::Classic(fid)), data) << fid;
  }
  SetGlobalPoolThreads(1);
}

// Host 1's response to a classic read is corrupted on the wire by `mutate`
// (plaintext links: the payload is meta blob || elements). The client must
// drop it on arrival -- before reconstruction, so neither the robust fallback
// nor a re-ask runs -- and finish from hosts 0, 2, 3 and 4, whose
// reconstruction rows are scaled by L_r != 1.
void ExpectCorruptResponseDropped(
    const std::function<void(Bytes& payload, std::size_t elems_at)>& mutate) {
  Cluster cluster(ServingConfig());
  const pss::PackedShamir shamir(cluster.ctx_ptr(), cluster.config().params);
  const std::uint32_t responders[] = {0, 2, 3, 4};
  const auto weights = shamir.ReconstructionWeights(responders);
  ASSERT_TRUE(weights->integer());
  // L_r = 1 leaves every weight a word integer N or its negative.
  auto word = [](const FpElem& v) { return field::IsZeroN(v.v.data() + 1, 3); };
  bool scaled = false;
  for (std::size_t j = 0; j < weights->rows(); ++j) {
    for (const FpElem& w : weights->FieldRow(cluster.ctx(), j)) {
      scaled = scaled || (!word(w) && !word(cluster.ctx().Neg(w)));
    }
  }
  ASSERT_TRUE(scaled);

  Rng rng(12);
  const Bytes file = rng.RandomBytes(3001);
  cluster.Upload(1, file);
  std::size_t mutated = 0;
  cluster.net().SetMutator([&](net::Message& m) {
    if (m.type == net::MsgType::kShareResponse && m.from == 1) {
      ByteReader r(m.payload);
      r.Blob();
      mutate(m.payload, m.payload.size() - r.Remaining());
      ++mutated;
    }
    return true;
  });
  const std::uint64_t retries = cluster.client().retries();
  const obs::Snapshot before = obs::TakeSnapshot();
  EXPECT_EQ(cluster.Download(ReadSpec::Classic(1)), file);
  const obs::Snapshot delta = obs::Delta(before, obs::TakeSnapshot());
  EXPECT_EQ(mutated, 1u);
  EXPECT_EQ(obs::Value(delta, "byz.client_robust_fallbacks"), 0u);
  EXPECT_EQ(cluster.client().retries(), retries);
}

TEST(ClientDownload, ResponseWithAnElementAboveTheModulusIsDropped) {
  // The last element set to 2^256 - 1 > p.
  ExpectCorruptResponseDropped([](Bytes& payload, std::size_t) {
    std::fill(payload.end() - 32, payload.end(), 0xFF);
  });
  // The first element set to p itself.
  const FpCtx ctx(field::StandardPrimeBe(256));
  const Bytes p_be = ctx.ModulusBytes();
  ExpectCorruptResponseDropped([&](Bytes& payload, std::size_t at) {
    std::copy(p_be.rbegin(), p_be.rend(), payload.begin() + at);
  });
}

TEST(ClientDownload, RaggedResponseIsDropped) {
  ExpectCorruptResponseDropped(
      [](Bytes& payload, std::size_t) { payload.push_back(0); });
  ExpectCorruptResponseDropped(
      [](Bytes& payload, std::size_t) { payload.pop_back(); });
}

}  // namespace
}  // namespace pisces
