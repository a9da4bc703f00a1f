// Crypto substrate tests against published vectors (FIPS 180-4, RFC 4231,
// RFC 5869, RFC 8439) plus behavioural tests for Schnorr, the CA, the
// fixed-base comb tables, and the secure channel.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "crypto/ca.h"
#include "crypto/chacha20.h"
#include "crypto/channel.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/trace.h"
#include "trace_util.h"

namespace pisces::crypto {
namespace {

using field::FpCtx;
using field::FpElem;
using field::FpMont;

Bytes Ascii(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string HexOf(std::span<const std::uint8_t> d) { return ToHex(d); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(HexOf(Sha256Hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HexOf(Sha256Hash(Ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HexOf(Sha256Hash(Ascii(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data = Ascii("the quick brown fox jumps over the lazy dog 0123456789");
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(std::span<const std::uint8_t>(data).subspan(0, split));
    h.Update(std::span<const std::uint8_t>(data).subspan(split));
    EXPECT_EQ(h.Finish(), Sha256Hash(data)) << split;
  }
}

// Both compression kernels against FIPS 180-4 (the tests above run whichever
// kernel this CPU dispatches to).
std::string HashWith(sha256_internal::Kernel kernel,
                     std::span<const std::uint8_t> data) {
  Sha256 h(kernel);
  h.Update(data);
  return HexOf(h.Finish());
}

void ExpectFipsVectors(sha256_internal::Kernel kernel) {
  EXPECT_EQ(HashWith(kernel, {}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HashWith(kernel, Ascii("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HashWith(kernel, Ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmk"
                                   "lmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(HashWith(kernel, Ascii("abcdefghbcdefghicdefghijdefghijkefghijklfg"
                                   "hijklmghijklmnhijklmnoijklmnopjklmnopqklmno"
                                   "pqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
  EXPECT_EQ(HashWith(kernel, Bytes(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

constexpr const char* kNoShaNi =
    "this CPU (or build target) has no SHA-NI; only the portable kernel runs";

TEST(Sha256Kernels, PortableFipsVectors) {
  ExpectFipsVectors(sha256_internal::Portable());
}

TEST(Sha256Kernels, ShaNiFipsVectors) {
  if (sha256_internal::ShaNi() == nullptr) GTEST_SKIP() << kNoShaNi;
  ExpectFipsVectors(sha256_internal::ShaNi());
}

TEST(Sha256Kernels, KernelsAgreeOnEveryLength) {
  if (sha256_internal::ShaNi() == nullptr) GTEST_SKIP() << kNoShaNi;
  Rng rng(7);
  const Bytes data = rng.RandomBytes(300);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    std::span<const std::uint8_t> msg(data.data(), len);
    EXPECT_EQ(HashWith(sha256_internal::ShaNi(), msg),
              HashWith(sha256_internal::Portable(), msg))
        << "length " << len;
  }
}

TEST(Sha256Kernels, KernelsAgreeOnStreamedSplits) {
  if (sha256_internal::ShaNi() == nullptr) GTEST_SKIP() << kNoShaNi;
  Rng rng(8);
  const Bytes data = rng.RandomBytes(517);
  const std::span<const std::uint8_t> all(data);
  const std::string want = HashWith(sha256_internal::Portable(), data);
  for (std::size_t a = 0; a <= data.size(); a += 13) {
    for (std::size_t b = a; b <= data.size(); b += 61) {
      Sha256 h(sha256_internal::ShaNi());
      h.Update(all.subspan(0, a));
      h.Update(all.subspan(a, b - a));
      h.Update(all.subspan(b));
      EXPECT_EQ(HexOf(h.Finish()), want) << a << "/" << b;
    }
  }
}

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexOf(HmacSha256(key, Ascii("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(HexOf(HmacSha256(Ascii("Jefe"),
                             Ascii("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  Bytes key(131, 0xaa);
  // RFC 4231 test case 6.
  EXPECT_EQ(HexOf(HmacSha256(
                key, Ascii("Test Using Larger Than Block-Size Key - Hash "
                           "Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DigestEqConstantTime) {
  Digest a{}, b{};
  EXPECT_TRUE(DigestEq(a, b));
  b[31] = 1;
  EXPECT_FALSE(DigestEq(a, b));
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = FromHex("000102030405060708090a0b0c");
  Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = HkdfSha256(salt, ikm, info, 42);
  EXPECT_EQ(ToHex(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, DifferentInfoGivesDifferentKeys) {
  Bytes ikm(32, 0x42);
  Bytes a = HkdfSha256({}, ikm, Ascii("a"), 32);
  Bytes b = HkdfSha256({}, ikm, Ascii("b"), 32);
  EXPECT_NE(a, b);
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  Bytes key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = FromHex("000000090000004a00000000");
  auto block = ChaCha20Block(key, nonce, 1);
  EXPECT_EQ(ToHex(std::span<const std::uint8_t>(block.data(), 16)),
            "10f1e7e4d13b5915500fdd1fa32071c4");
}

TEST(ChaCha20, Rfc8439Encryption) {
  Bytes key = FromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = FromHex("000000000000004a00000000");
  Bytes plaintext = Ascii(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes ct = plaintext;
  ChaCha20Xor(key, nonce, 1, ct);
  EXPECT_EQ(ToHex(std::span<const std::uint8_t>(ct.data(), 32)),
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b");
  // Decryption is the same operation.
  Bytes back = ct;
  ChaCha20Xor(key, nonce, 1, back);
  EXPECT_EQ(back, plaintext);
}

TEST(ChaCha20, RejectsBadSizes) {
  Bytes key(31, 0);
  Bytes nonce(12, 0);
  Bytes data(4, 0);
  EXPECT_THROW(ChaCha20Xor(key, nonce, 0, data), InvalidArgument);
}

class SchnorrTest : public ::testing::Test {
 protected:
  SchnorrTest() : group_(SchnorrGroup::Default()), rng_(33) {}
  const SchnorrGroup& group_;
  Rng rng_;
};

TEST_F(SchnorrTest, GroupStructure) {
  const auto& p = group_.p_ctx();
  EXPECT_EQ(p.bits(), 512u);
  EXPECT_EQ(group_.q_ctx().bits(), 256u);
  // g has order q: g^q == 1.
  Bytes q_be = group_.q_ctx().ModulusBytes();
  EXPECT_TRUE(p.Eq(p.PowBytes(group_.g(), q_be), p.One()));
  EXPECT_FALSE(p.Eq(group_.g(), p.One()));
}

// The default group's checked-in constants are the seeded search's output.
TEST_F(SchnorrTest, DefaultGroupIsTheSeededSearch) {
  Rng seed(0x5EEDF00DULL);
  const SchnorrGroup searched = SchnorrGroup::Generate(seed, 512, 256);
  EXPECT_EQ(group_.p_ctx().ModulusBytes(), searched.p_ctx().ModulusBytes());
  EXPECT_EQ(group_.q_ctx().ModulusBytes(), searched.q_ctx().ModulusBytes());
  EXPECT_EQ(group_.g(), searched.g());
}

TEST_F(SchnorrTest, SignVerifyRoundTrip) {
  auto keys = SchnorrKeygen(group_, rng_);
  Bytes msg = Ascii("refresh epoch 7 commitment");
  auto sig = SchnorrSign(group_, keys.sk, msg, rng_);
  EXPECT_TRUE(SchnorrVerify(group_, keys.pk, msg, sig));
}

TEST_F(SchnorrTest, TamperedMessageFails) {
  auto keys = SchnorrKeygen(group_, rng_);
  auto sig = SchnorrSign(group_, keys.sk, Ascii("hello"), rng_);
  EXPECT_FALSE(SchnorrVerify(group_, keys.pk, Ascii("hellp"), sig));
}

TEST_F(SchnorrTest, WrongKeyFails) {
  auto keys = SchnorrKeygen(group_, rng_);
  auto other = SchnorrKeygen(group_, rng_);
  auto sig = SchnorrSign(group_, keys.sk, Ascii("msg"), rng_);
  EXPECT_FALSE(SchnorrVerify(group_, other.pk, Ascii("msg"), sig));
}

TEST_F(SchnorrTest, SignatureSerialization) {
  auto keys = SchnorrKeygen(group_, rng_);
  auto sig = SchnorrSign(group_, keys.sk, Ascii("x"), rng_);
  auto back = SchnorrSignature::Deserialize(sig.Serialize());
  EXPECT_EQ(back.e, sig.e);
  EXPECT_EQ(back.s, sig.s);
}

TEST_F(SchnorrTest, DhSharedSecretSymmetric) {
  auto a = SchnorrKeygen(group_, rng_);
  auto b = SchnorrKeygen(group_, rng_);
  EXPECT_EQ(DhSharedSecret(group_, a.sk, b.pk),
            DhSharedSecret(group_, b.sk, a.pk));
  auto c = SchnorrKeygen(group_, rng_);
  EXPECT_NE(DhSharedSecret(group_, a.sk, b.pk),
            DhSharedSecret(group_, a.sk, c.pk));
}

TEST_F(SchnorrTest, CertAuthorityIssuesVerifiableCerts) {
  CertAuthority ca(group_, rng_);
  auto [cert, sk] = ca.IssueHostKey(5, 2, rng_);
  EXPECT_EQ(cert.host_id, 5u);
  EXPECT_EQ(cert.epoch, 2u);
  EXPECT_TRUE(CertAuthority::VerifyCert(group_, ca.public_key(), cert));
  // Cert round-trips the wire.
  auto back = HostCert::Deserialize(cert.Serialize());
  EXPECT_TRUE(CertAuthority::VerifyCert(group_, ca.public_key(), back));
  // Tampering breaks it.
  back.host_id = 6;
  EXPECT_FALSE(CertAuthority::VerifyCert(group_, ca.public_key(), back));
}

TEST_F(SchnorrTest, CertFromOtherCaRejected) {
  CertAuthority ca1(group_, rng_);
  CertAuthority ca2(group_, rng_);
  auto [cert, sk] = ca1.IssueHostKey(1, 1, rng_);
  EXPECT_FALSE(CertAuthority::VerifyCert(group_, ca2.public_key(), cert));
}

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : group_(SchnorrGroup::Default()), rng_(44) {
    a_keys_ = SchnorrKeygen(group_, rng_);
    b_keys_ = SchnorrKeygen(group_, rng_);
  }
  SecureChannel MakeA() {
    return MakeChannel(group_, a_keys_.sk, b_keys_.pk, 1, 10, 20);
  }
  SecureChannel MakeB() {
    return MakeChannel(group_, b_keys_.sk, a_keys_.pk, 1, 20, 10);
  }
  const SchnorrGroup& group_;
  Rng rng_;
  SchnorrKeyPair a_keys_, b_keys_;
};

TEST_F(ChannelTest, SealOpenRoundTrip) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes msg = Ascii("share block 42");
  Bytes frame = a.Seal(msg);
  EXPECT_NE(frame, msg);  // actually encrypted
  auto opened = b.Open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
  // And the other direction with independent keys.
  Bytes frame2 = b.Seal(msg);
  EXPECT_NE(frame2, frame);
  auto opened2 = a.Open(frame2);
  ASSERT_TRUE(opened2.has_value());
  EXPECT_EQ(*opened2, msg);
}

TEST_F(ChannelTest, TamperDetected) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes frame = a.Seal(Ascii("data"));
  frame[frame.size() / 2] ^= 1;
  EXPECT_FALSE(b.Open(frame).has_value());
}

TEST_F(ChannelTest, ReplayRejected) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes frame = a.Seal(Ascii("once"));
  EXPECT_TRUE(b.Open(frame).has_value());
  EXPECT_FALSE(b.Open(frame).has_value());
}

TEST_F(ChannelTest, ReorderedFrameAcceptedExactlyOnce) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes f1 = a.Seal(Ascii("one"));
  Bytes f2 = a.Seal(Ascii("two"));
  // The network delivered f2 first; f1 is late but legitimate. The sliding
  // anti-replay window accepts it once and rejects the replayed copy.
  EXPECT_TRUE(b.Open(f2).has_value());
  auto late = b.Open(f1);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, Ascii("one"));
  EXPECT_FALSE(b.Open(f1).has_value()) << "second copy is a replay";
  EXPECT_FALSE(b.Open(f2).has_value()) << "second copy is a replay";
}

TEST_F(ChannelTest, FramesBehindTheWindowRejected) {
  auto a = MakeA();
  auto b = MakeB();
  Bytes stale = a.Seal(Ascii("stale"));  // counter 1
  // Advance the receive highwater far past the window.
  for (std::uint64_t i = 0; i < SecureChannel::kReplayWindow + 1; ++i) {
    ASSERT_TRUE(b.Open(a.Seal(Ascii("advance"))).has_value());
  }
  EXPECT_FALSE(b.Open(stale).has_value())
      << "counters older than the window must be rejected unseen or not";
}

TEST_F(ChannelTest, ShuffledBurstAllAcceptedOnceUnderWindow) {
  auto a = MakeA();
  auto b = MakeB();
  std::vector<Bytes> frames;
  for (int i = 0; i < 32; ++i) {
    frames.push_back(a.Seal(Bytes{static_cast<std::uint8_t>(i)}));
  }
  // Worst-case reorder within the window: deliver in reverse.
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    EXPECT_TRUE(b.Open(*it).has_value());
  }
  for (const auto& f : frames) {
    EXPECT_FALSE(b.Open(f).has_value()) << "every duplicate must be rejected";
  }
}

TEST_F(ChannelTest, EpochSeparation) {
  auto a1 = MakeChannel(group_, a_keys_.sk, b_keys_.pk, 1, 10, 20);
  auto b2 = MakeChannel(group_, b_keys_.sk, a_keys_.pk, 2, 20, 10);
  Bytes frame = a1.Seal(Ascii("cross-epoch"));
  EXPECT_FALSE(b2.Open(frame).has_value());
}

// --- fixed-base comb tables ------------------------------------------------

// Edge exponents 0, 1, q-1, 2^256-1 plus `randoms` seeded q-width draws and
// as many full 256-bit draws (wider than a small group's table: the
// square-and-multiply fallback).
std::vector<Bytes> CombExponents(const SchnorrGroup& group, Rng& rng,
                                 int randoms) {
  const FpCtx& q = group.q_ctx();
  std::vector<Bytes> out;
  out.push_back(Bytes(q.elem_bytes(), 0));
  out.push_back(group.ScalarToBe(q.One()));
  out.push_back(group.ScalarToBe(q.Neg(q.One())));
  out.push_back(Bytes(32, 0xff));
  for (int i = 0; i < randoms; ++i) {
    out.push_back(group.ScalarToBe(q.Random(rng)));
    out.push_back(rng.RandomBytes(32));
  }
  return out;
}

void ExpectCombMatchesPowBytes(const SchnorrGroup& group, Rng& rng) {
  const FpCtx& p = group.p_ctx();
  const SchnorrKeyPair ca = SchnorrKeygen(group, rng);
  const auto ca_table = group.PinKeyTable(ca.pk);
  ASSERT_NE(ca_table, nullptr);
  const FpElem y = p.FromBytes(ca.pk);
  for (const Bytes& e : CombExponents(group, rng, 100)) {
    EXPECT_EQ(group.g_table().Pow(e), p.PowBytes(group.g(), e)) << ToHex(e);
    EXPECT_EQ(ca_table->Pow(e), p.PowBytes(y, e)) << ToHex(e);
  }
}

TEST(CryptoComb, MatchesPowBytesOnDefaultGroup) {
  Rng rng(71);
  ExpectCombMatchesPowBytes(SchnorrGroup::Default(), rng);
}

TEST(CryptoComb, MatchesPowBytesOnSmallGroup) {
  Rng gen(72);
  const SchnorrGroup small = SchnorrGroup::Generate(gen, 128, 64);
  Rng rng(73);
  ExpectCombMatchesPowBytes(small, rng);
}

// The joint pass (one comb over both tables, squarings shared) against the
// two single passes multiplied, on every pair of edge exponents: 0, 1, q-1,
// all-ones, a leading-zero encoding, and one wider than the table (which
// takes the two-pass fallback).
TEST(CryptoComb, JointPassMatchesProductOfSinglePasses) {
  const SchnorrGroup& group = SchnorrGroup::Default();
  const FpCtx& p = group.p_ctx();
  Rng rng(78);
  const SchnorrKeyPair ca = SchnorrKeygen(group, rng);
  const auto ca_table = group.PinKeyTable(ca.pk);
  ASSERT_NE(ca_table, nullptr);
  const FpCtx& q = group.q_ctx();
  Bytes leading_zeros(40, 0);
  leading_zeros.back() = 0x5a;
  leading_zeros[20] = 0x81;
  Bytes too_wide(33, 0xa5);
  const std::vector<Bytes> exps = {
      Bytes(q.elem_bytes(), 0),          group.ScalarToBe(q.One()),
      group.ScalarToBe(q.Neg(q.One())), Bytes(32, 0xff),
      leading_zeros,                     too_wide,
      group.ScalarToBe(q.Random(rng))};
  const FixedBaseTable& g_table = group.g_table();
  for (const Bytes& ea : exps) {
    for (const Bytes& eb : exps) {
      const FpMont joint =
          FixedBaseTable::JointPowMont(g_table, ea, *ca_table, eb);
      EXPECT_EQ(joint, p.Mul(g_table.PowMont(ea), ca_table->PowMont(eb)))
          << ToHex(ea) << " " << ToHex(eb);
      EXPECT_EQ(p.FromMont(joint),
                p.Mul(p.PowBytes(group.g(), ea),
                      p.PowBytes(p.FromBytes(ca.pk), eb)));
    }
  }
}

// Tables of different column counts cannot share a pass: the product of the
// single passes, still exact.
TEST(CryptoComb, JointPassOverDifferentWidthsFallsBack) {
  const SchnorrGroup& group = SchnorrGroup::Default();
  auto ctx = std::make_shared<const FpCtx>(group.p_ctx().ModulusBytes());
  const FixedBaseTable wide(ctx, group.g(), 256);
  const FixedBaseTable narrow(ctx, ctx->Sqr(group.g()), 128);
  Rng rng(79);
  for (int i = 0; i < 4; ++i) {
    const Bytes ea = rng.RandomBytes(32), eb = rng.RandomBytes(16);
    EXPECT_EQ(FixedBaseTable::JointPowMont(wide, ea, narrow, eb),
              ctx->Mul(wide.PowMont(ea), narrow.PowMont(eb)));
    EXPECT_EQ(ctx->FromMont(FixedBaseTable::JointPowMont(wide, ea, narrow, eb)),
              ctx->Mul(ctx->PowBytes(group.g(), ea),
                       ctx->PowBytes(ctx->Sqr(group.g()), eb)));
  }
  const FixedBaseTable other_ctx(
      std::make_shared<const FpCtx>(group.p_ctx().ModulusBytes()), group.g(),
      256);
  EXPECT_THROW(FixedBaseTable::JointPowMont(wide, Bytes{1}, other_ctx, Bytes{1}),
               InvalidArgument);
}

// The verdict does not depend on whether the CA key's table is pinned (joint
// comb pass) or not (comb for g, square-and-multiply for the key).
TEST(CryptoComb, VerifyVerdictSameWithAndWithoutPinnedTable) {
  const SchnorrGroup& group = SchnorrGroup::Default();
  Rng rng(80);
  const SchnorrKeyPair ca = SchnorrKeygen(group, rng);
  const SchnorrKeyPair other = SchnorrKeygen(group, rng);
  const Bytes msg = Ascii("host 4 epoch 9");
  const SchnorrSignature good = SchnorrSign(group, ca.sk, msg, rng);
  SchnorrSignature bad_e = good, bad_s = good;
  bad_e.e.back() ^= 1;
  bad_s.s.back() ^= 1;
  struct Case {
    const Bytes* pk;
    const SchnorrSignature* sig;
    bool want;
  };
  const std::vector<Case> cases = {{&ca.pk, &good, true},
                                   {&ca.pk, &bad_e, false},
                                   {&ca.pk, &bad_s, false},
                                   {&other.pk, &good, false}};
  for (int pinned = 0; pinned < 2; ++pinned) {
    ASSERT_EQ(group.FindKeyTable(ca.pk), nullptr);
    ASSERT_EQ(group.FindKeyTable(other.pk), nullptr);
    std::vector<std::shared_ptr<const FixedBaseTable>> held;
    if (pinned) {
      held = {group.PinKeyTable(ca.pk), group.PinKeyTable(other.pk)};
    }
    for (std::size_t c = 0; c < cases.size(); ++c) {
      EXPECT_EQ(SchnorrVerify(group, *cases[c].pk, msg, *cases[c].sig),
                cases[c].want)
          << "case " << c << " pinned " << pinned;
    }
  }
}

TEST(CryptoComb, KeyTableLivesExactlyAsLongAsItsHolders) {
  const SchnorrGroup& group = SchnorrGroup::Default();
  Rng rng(74);
  Bytes ca_pk;
  {
    CertAuthority ca(group, rng);
    ca_pk = ca.public_key();
    // The authority pins its own key's table.
    const auto held = group.FindKeyTable(ca_pk);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(group.PinKeyTable(ca_pk), held) << "one table per key";
    PeerKeyring keyring(group, ca_pk, 1, true);
    EXPECT_EQ(group.FindKeyTable(ca_pk), held);
  }
  EXPECT_EQ(group.FindKeyTable(ca_pk), nullptr) << "freed with its holders";
  {
    PeerKeyring keyring(group, ca_pk, 1, true);
    EXPECT_NE(group.FindKeyTable(ca_pk), nullptr) << "a keyring pins it too";
  }
  EXPECT_EQ(group.FindKeyTable(ca_pk), nullptr);
}

TEST(CryptoComb, UnparseableCaKeyGetsNoTableAndFailsVerification) {
  const SchnorrGroup& group = SchnorrGroup::Default();
  Rng rng(75);
  CertAuthority ca(group, rng);
  const auto [cert, sk] = ca.IssueHostKey(3, 1, rng);
  // Little-endian all-ones is >= p: not a group element encoding.
  const Bytes bad(group.p_ctx().elem_bytes(), 0xff);
  EXPECT_EQ(group.PinKeyTable(bad), nullptr);
  EXPECT_FALSE(CertAuthority::VerifyCert(group, bad, cert));
  const CertSnapshot snap = ca.IssueSnapshot({{3, cert}}, {cert}, rng);
  EXPECT_FALSE(CertAuthority::VerifySnapshot(group, bad, snap));
  PeerKeyring keyring(group, bad, 1, true);
  EXPECT_THROW(keyring.Accept(snap), InvalidArgument);
}

TEST(CryptoComb, VerifyWithoutAnyHolderStillChecksTheSignature) {
  const SchnorrGroup& group = SchnorrGroup::Default();
  Rng rng(76);
  HostCert cert;
  Bytes ca_pk;
  {
    CertAuthority ca(group, rng);
    cert = ca.IssueHostKey(2, 4, rng).first;
    ca_pk = ca.public_key();
  }
  ASSERT_EQ(group.FindKeyTable(ca_pk), nullptr);
  EXPECT_TRUE(CertAuthority::VerifyCert(group, ca_pk, cert));
  cert.epoch += 1;
  EXPECT_FALSE(CertAuthority::VerifyCert(group, ca_pk, cert));
}

TEST(CryptoComb, ConcurrentVerifyWhileKeyringsComeAndGo) {
  const SchnorrGroup& group = SchnorrGroup::Default();
  Rng rng(77);
  // The authorities go away after issuing, so only the churning keyrings
  // pin their tables: tables are built, shared and freed under the verifiers.
  std::vector<Bytes> ca_pks;
  std::vector<HostCert> certs;
  for (int c = 0; c < 2; ++c) {
    CertAuthority ca(group, rng);
    ca_pks.push_back(ca.public_key());
    certs.push_back(ca.IssueHostKey(static_cast<std::uint32_t>(c), 1, rng).first);
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        const std::size_t ca = static_cast<std::size_t>((t + i) % 2);
        if (t % 2 == 0) {
          PeerKeyring keyring(group, ca_pks[ca], 100 + t, true);
          if (!CertAuthority::VerifyCert(group, ca_pks[ca], certs[ca])) ++wrong;
          if (CertAuthority::VerifyCert(group, ca_pks[ca], certs[1 - ca])) {
            ++wrong;
          }
        } else {
          if (!CertAuthority::VerifyCert(group, ca_pks[ca], certs[ca])) ++wrong;
          if (CertAuthority::VerifyCert(group, ca_pks[ca], certs[1 - ca])) {
            ++wrong;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(group.FindKeyTable(ca_pks[0]), nullptr);
  EXPECT_EQ(group.FindKeyTable(ca_pks[1]), nullptr);
}

// --- keyring install ------------------------------------------------------

// Two keyrings (hosts 1 and 2) booted from one genuine snapshot whose seq is
// 2: the CA issued one snapshot before it.
struct BootedPair {
  explicit BootedPair(Rng& rng)
      : group(SchnorrGroup::Default()), ca(group, rng),
        a(group, ca.public_key(), 1, true), b(group, ca.public_key(), 2, true) {
    auto [c1, sk1] = ca.IssueHostKey(1, 5, rng);
    auto [c2, sk2] = ca.IssueHostKey(2, 5, rng);
    cert1 = c1;
    cert2 = c2;
    dir = {{1, cert1}, {2, cert2}};
    older = ca.IssueSnapshot(dir, {cert1}, rng);
    boot = ca.IssueSnapshot(dir, {cert1, cert2}, rng);
    a.Boot(sk1, dir, boot);
    b.Boot(sk2, dir, boot);
  }
  bool ChannelWorks(std::string_view text) {
    return b.Open(1, a.Seal(2, Ascii(text))) == Ascii(text);
  }

  const SchnorrGroup& group;
  CertAuthority ca;
  PeerKeyring a, b;
  HostCert cert1, cert2;
  CertDirectory dir;
  CertSnapshot older, boot;
};

// Counts the CA signature checks of snapshots `fn` makes.
template <typename Fn>
std::size_t SnapshotVerifies(Fn&& fn) {
  obs::ResetTrace();
  obs::EnableTracing("");
  fn();
  obs::DisableTracing();
  std::size_t count = 0;
  for (const auto& e : test::ParseTraceEvents(obs::TraceToJson())) {
    if (e.name == "crypto.verify_snapshot") ++count;
  }
  obs::ResetTrace();
  return count;
}

TEST(CryptoKeyring, StaleForgedCertIsIgnoredNewerForgedCertThrows) {
  Rng rng(78);
  BootedPair p(rng);
  ASSERT_TRUE(p.ChannelWorks("before"));
  CertAuthority evil(p.group, rng);

  // Same-seq and older forgeries are dropped before any signature check,
  // though they carry a newer cert for host 2.
  for (std::uint64_t seq : {1u, 2u}) {
    const CertSnapshot forged =
        evil.IssueSnapshot(p.dir, {evil.IssueHostKey(2, 6, rng).first}, rng);
    ASSERT_EQ(forged.seq, seq);
    EXPECT_FALSE(p.a.Accept(forged));
    ASSERT_NE(p.a.Cert(2), nullptr);
    EXPECT_EQ(p.a.Cert(2)->Serialize(), p.cert2.Serialize());
  }
  // The channel was not re-derived: its nonce counter ran on, so the peer
  // (which would reject a restarted counter as a replay) opens the frame.
  EXPECT_TRUE(p.ChannelWorks("after"));

  const CertSnapshot newer =
      evil.IssueSnapshot(p.dir, {evil.IssueHostKey(2, 6, rng).first}, rng);
  ASSERT_GT(newer.seq, p.boot.seq);
  EXPECT_THROW(p.a.Accept(newer), InvalidArgument);
  EXPECT_EQ(p.a.Cert(2)->Serialize(), p.cert2.Serialize());
}

// --- cert snapshots --------------------------------------------------------

TEST(CryptoSnapshot, SignVerifyRoundTripAndForeignCaRejected) {
  Rng rng(79);
  BootedPair p(rng);
  EXPECT_TRUE(CertAuthority::VerifySnapshot(p.group, p.ca.public_key(),
                                            p.boot));
  const CertSnapshot back = CertSnapshot::Deserialize(p.boot.Serialize());
  EXPECT_EQ(back.Serialize(), p.boot.Serialize());
  EXPECT_TRUE(CertAuthority::VerifySnapshot(p.group, p.ca.public_key(), back));
  EXPECT_EQ(p.boot.root, DirectoryRoot(p.dir));
  EXPECT_GT(p.boot.seq, p.older.seq);
  ASSERT_NE(p.boot.Find(2), nullptr);
  EXPECT_EQ(p.boot.Find(2)->Serialize(), p.cert2.Serialize());
  EXPECT_EQ(p.boot.Find(3), nullptr);
  CertAuthority other(p.group, rng);
  EXPECT_FALSE(CertAuthority::VerifySnapshot(p.group, other.public_key(),
                                             p.boot));
}

TEST(CryptoSnapshot, StaleOrReplayedSeqDroppedWithoutSignatureCheck) {
  Rng rng(80);
  BootedPair p(rng);
  const std::size_t checks = SnapshotVerifies([&] {
    EXPECT_FALSE(p.a.Accept(p.boot));   // replay of the boot snapshot
    EXPECT_FALSE(p.a.Accept(p.older));  // an older genuine one
  });
  EXPECT_EQ(checks, 0u);
  EXPECT_TRUE(p.ChannelWorks("still live"));
  // A newer one costs exactly one check, whatever it lists.
  const CertSnapshot next = p.ca.IssueSnapshot(p.dir, {p.cert1, p.cert2}, rng);
  EXPECT_EQ(SnapshotVerifies([&] { EXPECT_TRUE(p.a.Accept(next)); }), 1u);
}

TEST(CryptoSnapshot, NewerForeignSnapshotThrowsAndInstallsNothing) {
  Rng rng(81);
  BootedPair p(rng);
  CertAuthority evil(p.group, rng);
  CertSnapshot forged;
  do {  // walk the foreign CA's counter past the genuine seq
    forged = evil.IssueSnapshot(
        p.dir, {evil.IssueHostKey(2, 9, rng).first,
                evil.IssueHostKey(7, 9, rng).first}, rng);
  } while (forged.seq <= p.boot.seq);
  EXPECT_THROW(p.a.Accept(forged), InvalidArgument);
  EXPECT_EQ(p.a.Cert(2)->Serialize(), p.cert2.Serialize());
  EXPECT_EQ(p.a.Cert(7), nullptr);
  // The refused seq is not held either: the next genuine snapshot lands.
  const HostCert fresh = p.ca.IssueHostKey(2, 6, rng).first;
  EXPECT_TRUE(p.a.Accept(p.ca.IssueSnapshot(p.dir, {fresh}, rng)));
  EXPECT_EQ(p.a.Cert(2)->Serialize(), fresh.Serialize());
}

TEST(CryptoSnapshot, BootRefusesRootMismatchForeignOrUnlistedBeforeInstalling) {
  Rng rng(82);
  BootedPair p(rng);
  const SchnorrGroup& group = p.group;
  auto [cert3, sk3] = p.ca.IssueHostKey(3, 5, rng);
  CertDirectory dir = p.dir;
  dir[3] = cert3;
  const CertSnapshot snap = p.ca.IssueSnapshot(dir, {cert3}, rng);
  PeerKeyring fresh(group, p.ca.public_key(), 3, true);

  // Root mismatch: the provisioned directory differs from the signed one.
  CertDirectory tampered = dir;
  tampered[1] = p.ca.IssueHostKey(1, 6, rng).first;
  EXPECT_THROW(fresh.Boot(sk3, tampered, snap), InvalidArgument);
  // A snapshot that does not list this endpoint's cert.
  EXPECT_THROW(fresh.Boot(sk3, p.dir, p.boot), InvalidArgument);
  // A foreign CA's snapshot of the same directory.
  CertAuthority evil(group, rng);
  EXPECT_THROW(fresh.Boot(sk3, dir, evil.IssueSnapshot(dir, {cert3}, rng)),
               InvalidArgument);
  for (std::uint32_t peer : {1u, 2u}) EXPECT_EQ(fresh.Cert(peer), nullptr);

  EXPECT_EQ(fresh.Boot(sk3, dir, snap), 5u);
  EXPECT_EQ(fresh.Cert(1)->Serialize(), p.cert1.Serialize());
  EXPECT_EQ(fresh.Cert(3), nullptr) << "its own cert is not a peer's";
}

TEST(CryptoSnapshot, OlderEpochInNewerSnapshotKeepsLiveChannel) {
  Rng rng(83);
  BootedPair p(rng);
  ASSERT_TRUE(p.ChannelWorks("before"));
  // Genuine and newer, but it lists an older epoch for host 2 and the
  // held one again for host 1: neither re-derives a channel.
  const CertSnapshot next = p.ca.IssueSnapshot(
      p.dir, {p.ca.IssueHostKey(2, 4, rng).first, p.cert1}, rng);
  EXPECT_TRUE(p.a.Accept(next));
  EXPECT_TRUE(p.b.Accept(next));
  EXPECT_EQ(p.a.Cert(2)->Serialize(), p.cert2.Serialize());
  EXPECT_TRUE(p.ChannelWorks("after"));
}

}  // namespace
}  // namespace pisces::crypto
