// Deserialization robustness: every wire-facing parser must reject arbitrary
// and truncated bytes with ParseError (never crash, never accept garbage),
// and mutated-but-parseable inputs must fail verification downstream.
//
// The structured fuzzer below starts from VALID wire messages and applies
// format-aware mutations (truncation, length-field lies, trailing garbage,
// byte flips) -- random blobs almost never get past the first length check,
// so structure-aware inputs exercise far deeper parser states. Default
// iteration counts keep the suite fast; set PISCES_FUZZ_ITERS to raise them
// for a longer sanitizer soak (scripts/check_sanitize.sh does).
#include <gtest/gtest.h>

#include <cstdlib>

#include "crypto/ca.h"
#include "field/primes.h"
#include "net/async_tcp.h"
#include "net/message.h"
#include "net/serving_frame.h"
#include "net/sim_transport.h"
#include "pisces/cluster.h"
#include "pisces/file_codec.h"
#include "pisces/host_process.h"
#include "pisces/serving_client.h"

namespace pisces {
namespace {

Bytes RandomBlob(Rng& rng, std::size_t max_len) {
  return rng.RandomBytes(rng.Below(max_len + 1));
}

// Boots `host` (id 0) the way the hypervisor does: a fresh key for epoch 1
// under a one-cert snapshot of a one-cert directory.
void BootAlone(Host& host, crypto::CertAuthority& ca, Rng& rng) {
  auto [cert, sk] = ca.IssueHostKey(0, 1, rng);
  const crypto::CertDirectory dir = {{0, cert}};
  host.Boot(std::move(sk), dir, ca.IssueSnapshot(dir, {cert}, rng));
}

std::size_t FuzzIters(std::size_t base) {
  if (const char* env = std::getenv("PISCES_FUZZ_ITERS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return base;
}

// A structurally valid message with randomized fields and payload.
net::Message RandomValidMessage(Rng& rng) {
  net::Message m;
  m.from = static_cast<std::uint32_t>(rng.Next());
  m.to = static_cast<std::uint32_t>(rng.Next());
  m.type = static_cast<net::MsgType>(rng.Below(net::kMaxMsgType + 1));
  m.file_id = rng.Next();
  m.epoch = static_cast<std::uint32_t>(rng.Next());
  m.batch = static_cast<std::uint32_t>(rng.Next());
  m.row = static_cast<std::uint32_t>(rng.Next());
  m.payload = RandomBlob(rng, 96);
  return m;
}

// Byte offset of the payload length prefix in the wire format.
constexpr std::size_t kLenOffset = 4 + 4 + 1 + 8 + 4 + 4 + 4;

TEST(Fuzz, MessageDeserializeNeverCrashes) {
  Rng rng(0xF122);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes blob = RandomBlob(rng, 200);
    try {
      net::Message m = net::Message::Deserialize(blob);
      ++accepted;
      // Anything accepted must re-serialize to the same bytes.
      EXPECT_EQ(m.Serialize(), blob);
    } catch (const ParseError&) {
      // expected for almost all inputs
    }
  }
  // Random blobs essentially never form a valid message (needs exact length
  // linkage and a valid type byte).
  EXPECT_LT(accepted, 5u);
}

TEST(Fuzz, MessageTruncationAlwaysRejected) {
  net::Message m;
  m.from = 1;
  m.to = 2;
  m.type = net::MsgType::kDeal;
  m.payload = Bytes(37, 0xAB);
  Bytes wire = m.Serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes cut(wire.begin(), wire.begin() + len);
    EXPECT_THROW(net::Message::Deserialize(cut), ParseError) << len;
  }
}

TEST(Fuzz, MessageStructuredMutationsNeverCrash) {
  Rng rng(0xF126);
  const std::size_t iters = FuzzIters(2000);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    net::Message m = RandomValidMessage(rng);
    Bytes wire = m.Serialize();
    switch (rng.Below(4)) {
      case 0:  // truncate
        wire.resize(rng.Below(wire.size() + 1));
        break;
      case 1: {  // length-field lie
        StoreLe32(static_cast<std::uint32_t>(rng.Next()),
                  wire.data() + kLenOffset);
        break;
      }
      case 2: {  // trailing garbage
        Bytes extra = rng.RandomBytes(1 + rng.Below(16));
        wire.insert(wire.end(), extra.begin(), extra.end());
        break;
      }
      default:  // random byte flips
        for (std::size_t k = 0; k < 1 + rng.Below(4); ++k) {
          wire[rng.Below(wire.size())] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
    }
    try {
      net::Message out = net::Message::Deserialize(wire);
      // Anything accepted must round-trip bit-exactly: the parser may only
      // accept inputs it would itself produce.
      EXPECT_EQ(out.Serialize(), wire) << "iteration " << iter;
    } catch (const ParseError&) {
      // expected for most mutations
    }
  }
}

TEST(Fuzz, MessageLengthFieldLiesAlwaysRejected) {
  net::Message m;
  m.from = 7;
  m.to = 8;
  m.type = net::MsgType::kMaskedShare;
  m.payload = Bytes(21, 0x5C);
  const Bytes wire = m.Serialize();
  const std::uint32_t actual = static_cast<std::uint32_t>(m.payload.size());
  // Shorter claim -> trailing bytes; longer claim -> underflow; absurd claim
  // -> the kMaxPayload cap fires before any allocation.
  const std::uint32_t lies[] = {
      0, actual - 1, actual + 1, actual + 1000,
      static_cast<std::uint32_t>(net::kMaxPayload + 1), 0xFFFFFFFFu};
  for (std::uint32_t lie : lies) {
    Bytes bad = wire;
    StoreLe32(lie, bad.data() + kLenOffset);
    EXPECT_THROW(net::Message::Deserialize(bad), ParseError) << lie;
  }
}

TEST(Fuzz, MessageTrailingGarbageAlwaysRejected) {
  Rng rng(0xF127);
  net::Message m = RandomValidMessage(rng);
  const Bytes wire = m.Serialize();
  for (std::size_t extra = 1; extra <= 32; ++extra) {
    Bytes bad = wire;
    Bytes tail = rng.RandomBytes(extra);
    bad.insert(bad.end(), tail.begin(), tail.end());
    EXPECT_THROW(net::Message::Deserialize(bad), ParseError) << extra;
  }
}

TEST(Fuzz, MessagePayloadCapRejectedWithoutAllocation) {
  // A header claiming a payload just over the cap, with no payload bytes at
  // all: the cap check must fire (clean ParseError) before any attempt to
  // consume or allocate the claimed length.
  net::Message m;
  m.type = net::MsgType::kDeal;
  Bytes wire = m.Serialize();
  wire.resize(net::kWireHeaderSize);  // keep header + length prefix only
  StoreLe32(static_cast<std::uint32_t>(net::kMaxPayload + 1),
            wire.data() + kLenOffset);
  EXPECT_THROW(net::Message::Deserialize(wire), ParseError);
}

TEST(Fuzz, FrameLengthPrefixCapFiresBeforeAllocation) {
  // Transport framing (async_tcp): the 4-byte frame length prefix must be
  // bounds-checked against kMaxFrameBytes before any buffer for the claimed
  // frame is allocated. FrameLengthAcceptable is that check;
  // an absurd prefix (a ~4 GiB claim from one malicious/corrupt peer) must
  // be rejected while every length an honest sender can produce passes.
  EXPECT_TRUE(net::FrameLengthAcceptable(0));  // keepalive frame
  EXPECT_TRUE(net::FrameLengthAcceptable(net::kHeartbeatFrameLen));
  EXPECT_TRUE(net::FrameLengthAcceptable(net::kWireHeaderSize));
  EXPECT_TRUE(net::FrameLengthAcceptable(net::kMaxFrameBytes));
  EXPECT_FALSE(net::FrameLengthAcceptable(net::kMaxFrameBytes + 1));
  EXPECT_FALSE(net::FrameLengthAcceptable(0xFFFFFFFFull));
  EXPECT_FALSE(net::FrameLengthAcceptable(~0ull));

  // Every serialized message an honest endpoint frames fits the cap.
  Rng rng(0xF128);
  for (int iter = 0; iter < 200; ++iter) {
    net::Message m = RandomValidMessage(rng);
    EXPECT_TRUE(net::FrameLengthAcceptable(m.Serialize().size()));
  }
}

TEST(Fuzz, FileMetaRejectsShortBlobs) {
  Rng rng(0xF123);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes blob = RandomBlob(rng, 63);  // below the fixed encoding size
    EXPECT_THROW(FileMeta::Deserialize(blob), ParseError);
  }
}

TEST(Fuzz, CertDeserializeNeverCrashesAndNeverVerifies) {
  Rng rng(0xF124);
  const auto& group = crypto::SchnorrGroup::Default();
  crypto::CertAuthority ca(group, rng);
  for (int iter = 0; iter < 300; ++iter) {
    Bytes blob = RandomBlob(rng, 300);
    try {
      crypto::HostCert cert = crypto::HostCert::Deserialize(blob);
      EXPECT_FALSE(crypto::CertAuthority::VerifyCert(group, ca.public_key(),
                                                     cert));
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, BitFlippedCertNeverVerifies) {
  Rng rng(0xF125);
  const auto& group = crypto::SchnorrGroup::Default();
  crypto::CertAuthority ca(group, rng);
  auto [cert, sk] = ca.IssueHostKey(3, 1, rng);
  Bytes wire = cert.Serialize();
  for (int iter = 0; iter < 100; ++iter) {
    Bytes mutated = wire;
    mutated[rng.Below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.Below(8));
    try {
      crypto::HostCert bad = crypto::HostCert::Deserialize(mutated);
      EXPECT_FALSE(
          crypto::CertAuthority::VerifyCert(group, ca.public_key(), bad))
          << "bit flip accepted at iteration " << iter;
    } catch (const Error&) {
      // Structurally destroyed -- also fine. (FromBytes may reject values
      // >= modulus with InvalidArgument before signature verification.)
    }
  }
}

TEST(Fuzz, CertAndSignatureRejectTrailingBytes) {
  Rng rng(0xF126);
  const auto& group = crypto::SchnorrGroup::Default();
  crypto::CertAuthority ca(group, rng);
  const crypto::HostCert cert = ca.IssueHostKey(3, 1, rng).first;
  Bytes cert_wire = cert.Serialize();
  ASSERT_EQ(crypto::HostCert::Deserialize(cert_wire).Serialize(), cert_wire);
  cert_wire.push_back(0);
  EXPECT_THROW(crypto::HostCert::Deserialize(cert_wire), ParseError);
  Bytes sig_wire = cert.sig.Serialize();
  sig_wire.push_back(0);
  EXPECT_THROW(crypto::SchnorrSignature::Deserialize(sig_wire), ParseError);
  // A tail inside the cert's signature blob is caught one level down.
  ByteWriter w;
  w.U32(cert.host_id);
  w.U32(cert.epoch);
  w.Blob(cert.host_pk);
  w.Blob(sig_wire);
  EXPECT_THROW(crypto::HostCert::Deserialize(w.bytes()), ParseError);
}

TEST(Fuzz, BitFlippedSnapshotNeverVerifies) {
  Rng rng(0xF127);
  const auto& group = crypto::SchnorrGroup::Default();
  crypto::CertAuthority ca(group, rng);
  crypto::CertDirectory dir;
  std::vector<crypto::HostCert> certs;
  for (std::uint32_t id : {4u, 5u}) {
    dir[id] = ca.IssueHostKey(id, 2, rng).first;
    certs.push_back(dir[id]);
  }
  const crypto::CertSnapshot snap = ca.IssueSnapshot(dir, certs, rng);
  const Bytes wire = snap.Serialize();
  ASSERT_TRUE(crypto::CertAuthority::VerifySnapshot(
      group, ca.public_key(), crypto::CertSnapshot::Deserialize(wire)));
  // Every single-bit flip anywhere in the image -- seq, root, the listed
  // certs, the signature -- is refused: by the parser or by the signature.
  std::size_t accepted = 0;
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    Bytes mutated = wire;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      if (crypto::CertAuthority::VerifySnapshot(
              group, ca.public_key(),
              crypto::CertSnapshot::Deserialize(mutated))) {
        ++accepted;
      }
    } catch (const Error&) {
    }
  }
  EXPECT_EQ(accepted, 0u);
}

// ---- multiplexed serving frames (net/serving_frame.h) ---------------------

net::ServingRequestFrame RandomValidServingRequest(Rng& rng) {
  net::ServingRequestFrame f;
  f.session = rng.Next();
  f.request = rng.Next();
  f.epoch = rng.Next();
  f.shard = static_cast<std::uint32_t>(rng.Next());
  f.op = static_cast<net::ServingOp>(rng.Below(net::kMaxServingOp + 1));
  f.file_id = rng.Next();
  f.payload = RandomBlob(rng, 96);
  return f;
}

net::ServingResponseFrame RandomValidServingResponse(Rng& rng) {
  net::ServingResponseFrame f;
  f.session = rng.Next();
  f.request = rng.Next();
  f.status =
      static_cast<net::ServingStatus>(rng.Below(net::kMaxServingStatus + 1));
  f.retry_after_ms = static_cast<std::uint32_t>(rng.Next());
  f.payload = RandomBlob(rng, 96);
  return f;
}

// Payload length-prefix offsets inside each frame (last header field).
constexpr std::size_t kReqLenOffset = net::kServingRequestHeaderSize - 4;
constexpr std::size_t kRespLenOffset = net::kServingResponseHeaderSize - 4;
// Op / status byte offsets (after session + request [+ epoch + shard]).
constexpr std::size_t kReqOpOffset = 8 + 8 + 8 + 4;
constexpr std::size_t kRespStatusOffset = 8 + 8;

TEST(Fuzz, ServingFrameDeserializeNeverCrashes) {
  Rng rng(0xF201);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes blob = RandomBlob(rng, 160);
    try {
      auto f = net::ServingRequestFrame::Deserialize(blob);
      ++accepted;
      EXPECT_EQ(f.Serialize(), blob);
    } catch (const ParseError&) {
    }
    try {
      auto f = net::ServingResponseFrame::Deserialize(blob);
      ++accepted;
      EXPECT_EQ(f.Serialize(), blob);
    } catch (const ParseError&) {
    }
  }
  // Random blobs essentially never satisfy the length linkage plus the
  // op/status validity check.
  EXPECT_LT(accepted, 5u);
}

TEST(Fuzz, ServingFrameStructuredMutationsNeverCrash) {
  Rng rng(0xF202);
  const std::size_t iters = FuzzIters(2000);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const bool request_side = rng.Below(2) == 0;
    Bytes wire = request_side ? RandomValidServingRequest(rng).Serialize()
                              : RandomValidServingResponse(rng).Serialize();
    const std::size_t len_off = request_side ? kReqLenOffset : kRespLenOffset;
    switch (rng.Below(4)) {
      case 0:  // truncate
        wire.resize(rng.Below(wire.size() + 1));
        break;
      case 1:  // length-field lie
        StoreLe32(static_cast<std::uint32_t>(rng.Next()),
                  wire.data() + len_off);
        break;
      case 2: {  // trailing garbage
        Bytes extra = rng.RandomBytes(1 + rng.Below(16));
        wire.insert(wire.end(), extra.begin(), extra.end());
        break;
      }
      default:  // random byte flips
        for (std::size_t k = 0; k < 1 + rng.Below(4); ++k) {
          wire[rng.Below(wire.size())] ^=
              static_cast<std::uint8_t>(1u << rng.Below(8));
        }
        break;
    }
    // Anything accepted must round-trip bit-exactly; anything else must be a
    // clean ParseError, never a crash or a silent default.
    try {
      if (request_side) {
        EXPECT_EQ(net::ServingRequestFrame::Deserialize(wire).Serialize(),
                  wire)
            << "iteration " << iter;
      } else {
        EXPECT_EQ(net::ServingResponseFrame::Deserialize(wire).Serialize(),
                  wire)
            << "iteration " << iter;
      }
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, ServingFrameTruncationAlwaysRejected) {
  Rng rng(0xF203);
  Bytes req = RandomValidServingRequest(rng).Serialize();
  for (std::size_t len = 0; len < req.size(); ++len) {
    Bytes cut(req.begin(), req.begin() + len);
    EXPECT_THROW(net::ServingRequestFrame::Deserialize(cut), ParseError)
        << len;
  }
  Bytes resp = RandomValidServingResponse(rng).Serialize();
  for (std::size_t len = 0; len < resp.size(); ++len) {
    Bytes cut(resp.begin(), resp.begin() + len);
    EXPECT_THROW(net::ServingResponseFrame::Deserialize(cut), ParseError)
        << len;
  }
}

TEST(Fuzz, ServingFramePayloadCapRejectedBeforeAllocation) {
  // A length field claiming a payload over the serving cap must throw on the
  // ANNOUNCED length -- before any buffer for it exists. A tiny frame lying
  // about a multi-GiB payload is the attack shape.
  Rng rng(0xF204);
  for (std::uint64_t lie :
       {static_cast<std::uint64_t>(net::kMaxServingPayload) + 1,
        std::uint64_t{0x40000000}, std::uint64_t{0xFFFFFFFF}}) {
    Bytes req = RandomValidServingRequest(rng).Serialize();
    req.resize(net::kServingRequestHeaderSize);  // drop any real payload
    StoreLe32(static_cast<std::uint32_t>(lie), req.data() + kReqLenOffset);
    EXPECT_THROW(net::ServingRequestFrame::Deserialize(req), ParseError);

    Bytes resp = RandomValidServingResponse(rng).Serialize();
    resp.resize(net::kServingResponseHeaderSize);
    StoreLe32(static_cast<std::uint32_t>(lie), resp.data() + kRespLenOffset);
    EXPECT_THROW(net::ServingResponseFrame::Deserialize(resp), ParseError);
  }
}

TEST(Fuzz, ServingFrameUnknownOpAndStatusRejected) {
  Rng rng(0xF205);
  for (std::uint32_t bad = net::kMaxServingOp + 1; bad <= 0xFF; ++bad) {
    Bytes req = RandomValidServingRequest(rng).Serialize();
    req[kReqOpOffset] = static_cast<std::uint8_t>(bad);
    EXPECT_THROW(net::ServingRequestFrame::Deserialize(req), ParseError)
        << "op byte " << bad;
  }
  for (std::uint32_t bad = net::kMaxServingStatus + 1; bad <= 0xFF; ++bad) {
    Bytes resp = RandomValidServingResponse(rng).Serialize();
    resp[kRespStatusOffset] = static_cast<std::uint8_t>(bad);
    EXPECT_THROW(net::ServingResponseFrame::Deserialize(resp), ParseError)
        << "status byte " << bad;
  }
}

// ---- versioned routing maps (net/serving_frame.h) --------------------------

net::RoutingMap RandomValidRoutingMap(Rng& rng) {
  net::RoutingMap m;
  m.epoch = rng.Next();
  const std::size_t count = rng.Below(6);
  for (std::size_t i = 0; i < count; ++i) {
    net::RoutingShard s;
    s.n = static_cast<std::uint32_t>(rng.Next());
    s.t = static_cast<std::uint32_t>(rng.Next());
    s.migrating = static_cast<std::uint8_t>(rng.Below(2));
    m.shards.push_back(s);
  }
  return m;
}

TEST(Fuzz, RoutingMapDeserializeNeverCrashes) {
  Rng rng(0xF301);
  std::size_t accepted = 0;
  for (std::size_t iter = 0; iter < FuzzIters(2000); ++iter) {
    Bytes blob = RandomBlob(rng, 120);
    try {
      net::RoutingMap m = net::RoutingMap::Deserialize(blob);
      // Anything accepted must round-trip bit-exactly.
      EXPECT_EQ(m.Serialize(), blob);
      ++accepted;
    } catch (const ParseError&) {
      // expected for almost everything
    }
  }
  (void)accepted;
}

TEST(Fuzz, RoutingMapTruncationAlwaysRejected) {
  Rng rng(0xF302);
  net::RoutingMap m = RandomValidRoutingMap(rng);
  while (m.shards.empty()) m = RandomValidRoutingMap(rng);
  const Bytes wire = m.Serialize();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes prefix(wire.begin(), wire.begin() + cut);
    EXPECT_THROW(net::RoutingMap::Deserialize(prefix), ParseError)
        << "prefix length " << cut;
  }
}

TEST(Fuzz, RoutingMapShardCountLieRejectedBeforeAllocation) {
  // A map announcing more shards than the cap must be rejected on the
  // announced count alone -- the buffer holds no entries at all, so any
  // attempt to reserve/read them first would be an allocation-before-check
  // bug (or a wild read).
  for (std::uint64_t lie :
       {std::uint64_t{net::kMaxRoutingShards + 1}, std::uint64_t{1} << 20,
        std::uint64_t{0xFFFFFFFF}}) {
    ByteWriter w;
    w.U64(7);  // epoch
    w.U32(static_cast<std::uint32_t>(lie));
    EXPECT_THROW(net::RoutingMap::Deserialize(w.bytes()), ParseError)
        << "count lie " << lie;
  }
  // In-cap counts with missing entries reject on truncation, not crash.
  ByteWriter w;
  w.U64(7);
  w.U32(3);
  EXPECT_THROW(net::RoutingMap::Deserialize(w.bytes()), ParseError);
}

TEST(Fuzz, RoutingMapBadMigratingByteRejected) {
  net::RoutingMap m;
  m.epoch = 9;
  m.shards.push_back({4, 1, 0});
  Bytes wire = m.Serialize();
  // The migrating byte is the last byte of the single entry.
  for (std::uint32_t bad = 2; bad <= 0xFF; ++bad) {
    wire.back() = static_cast<std::uint8_t>(bad);
    EXPECT_THROW(net::RoutingMap::Deserialize(wire), ParseError)
        << "migrating byte " << bad;
  }
}

TEST(Fuzz, RoutingMapEpochRollbackRefusedByClient) {
  net::SimNet simnet;
  net::SimEndpoint* ep = simnet.AddEndpoint(1);
  ServingWireClient client(WireClientConfig{}, *ep);

  net::RoutingMap m;
  m.epoch = 5;
  m.shards.push_back({9, 2, 0});
  ASSERT_TRUE(client.AdoptMap(m));
  EXPECT_EQ(client.map().epoch, 5u);

  // Equal and older epochs are both refused; the adopted map is untouched.
  EXPECT_FALSE(client.AdoptMap(m));
  m.epoch = 3;
  m.shards[0].n = 13;
  EXPECT_FALSE(client.AdoptMap(m));
  EXPECT_EQ(client.map().epoch, 5u);
  EXPECT_EQ(client.map().shards[0].n, 9u);

  m.epoch = 6;
  EXPECT_TRUE(client.AdoptMap(m));
  EXPECT_EQ(client.map().shards[0].n, 13u);
}

// The wire layouts are frozen: golden byte images, like the 12-byte
// staircase descriptor contract in comm_test.cpp. Changing any offset here
// breaks live gateways mid-rollout.
TEST(Fuzz, ServingRequestFrameLayoutFrozen) {
  net::ServingRequestFrame f;
  f.session = 0x1122334455667788ull;
  f.request = 0x99AABBCCDDEEFF00ull;
  f.epoch = 0x0102030405060708ull;
  f.shard = 0x0A0B0C0Du;
  f.op = net::ServingOp::kDownload;
  f.file_id = 0x1020304050607080ull;
  f.payload = Bytes{0xAA, 0xBB};

  const Bytes expected{
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // session (le)
      0x00, 0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99,  // request (le)
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // epoch (le)
      0x0D, 0x0C, 0x0B, 0x0A,                          // shard (le)
      0x01,                                            // op = kDownload
      0x80, 0x70, 0x60, 0x50, 0x40, 0x30, 0x20, 0x10,  // file_id (le)
      0x02, 0x00, 0x00, 0x00,                          // payload length
      0xAA, 0xBB,
  };
  ASSERT_EQ(expected.size(), net::kServingRequestHeaderSize + 2);
  EXPECT_EQ(f.Serialize(), expected);
  EXPECT_EQ(net::ServingRequestFrame::Deserialize(expected).Serialize(),
            expected);
}

TEST(Fuzz, RoutingMapLayoutFrozen) {
  net::RoutingMap m;
  m.epoch = 0x0102030405060708ull;
  m.shards.push_back({9, 2, 0});
  m.shards.push_back({13, 3, 1});

  const Bytes expected{
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // epoch (le)
      0x02, 0x00, 0x00, 0x00,                          // shard count
      0x09, 0x00, 0x00, 0x00,                          // shard 0: n
      0x02, 0x00, 0x00, 0x00,                          //          t
      0x00,                                            //          migrating
      0x0D, 0x00, 0x00, 0x00,                          // shard 1: n
      0x03, 0x00, 0x00, 0x00,                          //          t
      0x01,                                            //          migrating
  };
  ASSERT_EQ(expected.size(),
            net::kRoutingMapHeaderSize + 2 * net::kRoutingShardSize);
  EXPECT_EQ(m.Serialize(), expected);
  EXPECT_EQ(net::RoutingMap::Deserialize(expected).Serialize(), expected);
}

// --- control payloads (process-per-host plane, pisces/host_process.h) ---

Bytes Cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

// A HostCert with one-byte key and signature fields; its 27-byte image is
// spelled out in CertImage().
crypto::HostCert TinyCert() {
  crypto::HostCert c;
  c.host_id = 2;
  c.epoch = 7;
  c.host_pk = Bytes{0x01};
  c.sig.e = Bytes{0x02};
  c.sig.s = Bytes{0x03};
  return c;
}

Bytes CertImage() {
  return {
      0x02, 0x00, 0x00, 0x00,        // host_id
      0x07, 0x00, 0x00, 0x00,        // epoch
      0x01, 0x00, 0x00, 0x00, 0x01,  // host_pk blob
      0x0A, 0x00, 0x00, 0x00,        // signature blob length
      0x01, 0x00, 0x00, 0x00, 0x02,  //   e blob
      0x01, 0x00, 0x00, 0x00, 0x03,  //   s blob
  };
}

// A CertSnapshot listing TinyCert() under a one-byte-field signature; its
// 89-byte image is spelled out in SnapshotImage().
crypto::CertSnapshot TinySnapshot() {
  crypto::CertSnapshot snap;
  snap.seq = 9;
  snap.root.fill(0xAB);
  snap.certs = {TinyCert()};
  snap.sig.e = Bytes{0x02};
  snap.sig.s = Bytes{0x03};
  return snap;
}

Bytes SnapshotImage() {
  return Cat({
      {0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},  // seq
      Bytes(32, 0xAB),                                   // root
      {0x01, 0x00, 0x00, 0x00,                           // cert count
       0x1B, 0x00, 0x00, 0x00},                          //   cert blob (27)
      CertImage(),
      {0x0A, 0x00, 0x00, 0x00,        // signature blob length
       0x01, 0x00, 0x00, 0x00, 0x02,  //   e blob
       0x01, 0x00, 0x00, 0x00, 0x03}, //   s blob
  });
}

BootMaterial SampleBoot() {
  BootMaterial b;
  b.ca_pk = Bytes{0xCA};
  b.sk = Bytes{0x5C};
  b.directory = {{2, TinyCert()}};
  b.snapshot = TinySnapshot();
  return b;
}

const field::FpCtx& Ctx256() {
  static const field::FpCtx ctx(field::StandardPrimeBe(256));
  return ctx;
}

HostStatus SampleStatus() {
  HostStatus rep;
  rep.online = true;
  FileMeta meta;
  meta.file_id = 1;
  meta.raw_size = 2;
  meta.num_elems = 3;
  meta.num_blocks = 4;
  meta.checksum.fill(0xCC);
  rep.files = {meta};
  Host::StuckRefresh sr;
  sr.file_id = 1;
  sr.epoch = 0x65;
  sr.missing_dealers = {6};
  rep.stuck_refresh = {sr};
  Host::StuckRecovery sv;
  sv.file_id = 1;
  sv.epoch = 0x66;
  sv.target = 2;
  sv.missing_dealers = {3};
  rep.stuck_recovery = {sv};
  Host::FailedRefresh fr;
  fr.deals_by_dealer = {Ctx256().ToBytes(Ctx256().FromUint64(5)), {}};
  fr.deal_seen = {true, false};
  rep.failed_refresh.emplace(1, fr);
  return rep;
}

template <typename Parse>
void ExpectTruncationsRejected(const Bytes& wire, Parse parse) {
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes prefix(wire.begin(), wire.begin() + cut);
    EXPECT_THROW(parse(prefix), ParseError) << "prefix length " << cut;
  }
}

TEST(Fuzz, ControlPayloadsNeverCrash) {
  Rng rng(0xF401);
  const Bytes seeds[] = {SampleBoot().Serialize(),
                         SampleStatus().Serialize()};
  for (std::size_t iter = 0; iter < FuzzIters(1500); ++iter) {
    // Half random blobs, half byte-flipped valid payloads (deeper states).
    Bytes blob = RandomBlob(rng, 160);
    if (iter % 2 == 1) {
      blob = seeds[rng.Below(2)];
      blob[rng.Below(blob.size())] ^= static_cast<std::uint8_t>(
          1 + rng.Below(255));
    }
    try {
      BootMaterial::Deserialize(blob);
    } catch (const ParseError&) {
    }
    try {
      HostStatus::Deserialize(blob, Ctx256());
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, ControlPayloadTruncationAlwaysRejected) {
  ExpectTruncationsRejected(SampleBoot().Serialize(), [](const Bytes& b) {
    return BootMaterial::Deserialize(b);
  });
  ExpectTruncationsRejected(
      SampleStatus().Serialize(),
      [](const Bytes& b) { return HostStatus::Deserialize(b, Ctx256()); });
  // Trailing garbage is a parse error too, not a silently ignored tail.
  Bytes status = HostStatus{}.Serialize();
  status.push_back(0);
  EXPECT_THROW(HostStatus::Deserialize(status, Ctx256()), ParseError);
}

TEST(Fuzz, ControlPayloadCountLiesRejectedBeforeAllocation) {
  // Every element count read off the control plane must be checked against
  // the bytes actually present before anything is reserved: a 0xFFFFFFFF
  // count would otherwise ask for 16-32 GiB and die with std::bad_alloc,
  // which no hostd handler catches.
  constexpr std::uint32_t kLie = 0xFFFFFFFF;
  {
    ByteWriter w;  // CertSnapshot (the BootMaterial blob): cert count lie
    w.U64(9);
    w.Raw(Bytes(32, 0xAB));
    w.U32(kLie);
    EXPECT_THROW(crypto::CertSnapshot::Deserialize(w.bytes()), ParseError);
  }
  {
    ByteWriter w;  // BootMaterial: directory count lie
    w.Blob(Bytes{0xCA});
    w.Blob(Bytes{0x5C});
    w.U32(kLie);
    EXPECT_THROW(BootMaterial::Deserialize(w.bytes()), ParseError);
  }
  {
    ByteWriter w;  // HostStatus: held-file count lie
    w.U8(1);
    w.U8(0);
    w.U32(kLie);
    EXPECT_THROW(HostStatus::Deserialize(w.bytes(), Ctx256()), ParseError);
  }

  // The host's start handlers read participant / target / survivor counts
  // off hypervisor messages; a lie must be dropped like any parse error.
  pss::Params params;
  params.n = 5;
  params.t = 1;
  params.l = 1;
  params.r = 1;
  params.field_bits = 256;
  net::SimNet simnet;
  net::SimEndpoint* ep = simnet.AddEndpoint(0);
  Rng rng(0xF402);
  crypto::CertAuthority ca(crypto::SchnorrGroup::Default(), rng);
  HostConfig hc;
  hc.params = params;
  hc.ctx = std::make_shared<const field::FpCtx>(field::StandardPrimeBe(256));
  Host host(hc, *ep, crypto::SchnorrGroup::Default(), ca.public_key());
  BootAlone(host, ca, rng);

  FileMeta meta;
  meta.file_id = 1;
  meta.num_blocks = 1;
  std::vector<Bytes> payloads;
  {
    ByteWriter w;  // StartRefresh: participant count lie
    w.U32(kLie);
    payloads.push_back(w.Take());
  }
  {
    ByteWriter w;  // StartRecovery: target count lie
    w.Blob(meta.Serialize());
    w.U32(kLie);
    payloads.push_back(w.Take());
  }
  {
    ByteWriter w;  // StartRecovery: survivor count lie
    w.Blob(meta.Serialize());
    w.U32(1);
    w.U32(0);
    w.U32(kLie);
    payloads.push_back(w.Take());
  }
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    net::Message m;
    m.from = net::kHypervisorId;
    m.to = 0;
    m.type =
        i == 0 ? net::MsgType::kStartRefresh : net::MsgType::kStartRecovery;
    m.file_id = 1;
    m.epoch = 100 + static_cast<std::uint32_t>(i);
    m.payload = payloads[i];
    EXPECT_NO_THROW(host.HandleMessage(m)) << "payload " << i;
  }
  EXPECT_FALSE(host.HasActiveSessions());
}

// One booted host (n = 5, t = 1, l = 1) holding file 1, driven with
// hypervisor control messages.
class LoneHost {
 public:
  LoneHost() : rng_(0xF403), ca_(crypto::SchnorrGroup::Default(), rng_) {
    params_.n = 5;
    params_.t = 1;
    params_.l = 1;
    params_.r = 1;
    params_.field_bits = 256;
    HostConfig hc;
    hc.params = params_;
    hc.ctx = std::make_shared<const field::FpCtx>(field::StandardPrimeBe(256));
    hc.encrypt_links = false;  // the peers are bare mailboxes
    host_ = std::make_unique<Host>(hc, *simnet_.AddEndpoint(0),
                                   crypto::SchnorrGroup::Default(),
                                   ca_.public_key());
    for (std::uint32_t i = 1; i < params_.n; ++i) simnet_.AddEndpoint(i);
    simnet_.AddEndpoint(net::kHypervisorId);
    BootAlone(*host_, ca_, rng_);
    meta_.file_id = 1;
    meta_.num_blocks = 1;
    host_->store().Put(meta_, hc.ctx->ToBytes(hc.ctx->One()));
  }

  // Delivers a control message; true if it left a session running.
  bool Starts(net::MsgType type, std::uint32_t epoch, const Bytes& payload) {
    net::Message m;
    m.from = net::kHypervisorId;
    m.to = 0;
    m.type = type;
    m.file_id = 1;
    m.epoch = epoch;
    m.payload = payload;
    host_->HandleMessage(m);
    return host_->HasActiveSessions();
  }

  // kStartRecovery toward host 4 with survivors 0..3, up to the survivor
  // list.
  Bytes RecoveryPayload() const {
    ByteWriter w;
    w.Blob(meta_.Serialize());
    w.U32(1);
    w.U32(4);
    w.U32(4);
    for (std::uint32_t i = 0; i < 4; ++i) w.U32(i);
    return w.Take();
  }

 private:
  pss::Params params_;
  net::SimNet simnet_;
  Rng rng_;
  crypto::CertAuthority ca_;
  std::unique_ptr<Host> host_;
  FileMeta meta_;
};

TEST(Fuzz, StartRefreshTrailingBytesRejected) {
  LoneHost host;
  ByteWriter w;
  w.U32(5);
  for (std::uint32_t i = 0; i < 5; ++i) w.U32(i);
  const Bytes valid = w.Take();
  Bytes tail = valid;
  tail.push_back(0);
  EXPECT_FALSE(host.Starts(net::MsgType::kStartRefresh, 100, tail));
  // The dropped command did not burn its start-once key.
  EXPECT_TRUE(host.Starts(net::MsgType::kStartRefresh, 100, valid));
}

TEST(Fuzz, StartRecoveryTrailingBytesRejected) {
  LoneHost host;
  const Bytes valid = host.RecoveryPayload();
  for (std::size_t extra = 1; extra <= 4; ++extra) {
    Bytes tail = valid;
    tail.resize(valid.size() + extra, 1);  // a cut repair-mode section
    EXPECT_FALSE(host.Starts(net::MsgType::kStartRecovery, 100, tail))
        << extra << " trailing bytes";
  }
  ByteWriter w;  // a whole repair-mode section, then one more byte
  w.Raw(valid);
  w.U8(1);
  w.U32(3);
  w.U8(0);
  EXPECT_FALSE(host.Starts(net::MsgType::kStartRecovery, 100, w.bytes()));
  EXPECT_TRUE(host.Starts(net::MsgType::kStartRecovery, 100, valid));
}

TEST(Fuzz, AccusationListTrailingBytesRejected) {
  ClusterConfig cfg;
  cfg.params.n = 5;
  cfg.params.t = 1;
  cfg.params.l = 1;
  cfg.params.r = 1;
  cfg.params.field_bits = 256;
  Cluster cluster(cfg);
  net::Message m;
  m.from = 3;
  m.to = net::kHypervisorId;
  m.type = net::MsgType::kPhaseDone;
  m.file_id = 1;
  m.row = 1;  // recovery report
  ByteWriter w;
  w.U8(1);
  w.U32(1);  // one accused survivor: host 2
  w.U32(2);
  m.payload = w.bytes();
  m.payload.push_back(0);
  cluster.hypervisor().HandleMessage(m);
  EXPECT_TRUE(cluster.hypervisor().suspected_hosts().empty());
  m.payload = w.bytes();
  cluster.hypervisor().HandleMessage(m);
  EXPECT_EQ(cluster.hypervisor().suspected_hosts().count(2), 1u);
}

TEST(Fuzz, BootMaterialLayoutFrozen) {
  // The host's own cert and epoch ride in the boot batch's snapshot.
  const Bytes expected = Cat({
      {0x01, 0x00, 0x00, 0x00, 0xCA},  // ca_pk blob
      {0x01, 0x00, 0x00, 0x00, 0x5C},  // sk blob
      {0x01, 0x00, 0x00, 0x00,         // directory count
       0x1B, 0x00, 0x00, 0x00},        //   cert blob length (27)
      CertImage(),
      {0x59, 0x00, 0x00, 0x00},        // snapshot blob length (89)
      SnapshotImage(),
  });
  EXPECT_EQ(SampleBoot().Serialize(), expected);
  EXPECT_EQ(BootMaterial::Deserialize(expected).Serialize(), expected);
}

TEST(Fuzz, CertSnapshotLayoutFrozen) {
  const Bytes expected = SnapshotImage();
  ASSERT_EQ(expected.size(), 89u);
  EXPECT_EQ(TinySnapshot().Serialize(), expected);
  EXPECT_EQ(crypto::CertSnapshot::Deserialize(expected).Serialize(), expected);
  // The signed bytes: a domain tag, then the image minus its signature.
  const std::string tag = "pisces.cert-snapshot.v1";
  const Bytes body(expected.begin(), expected.end() - 14);  // minus sig blob
  const Bytes signed_bytes = Cat({Bytes(tag.begin(), tag.end()), body});
  EXPECT_EQ(TinySnapshot().SignedPayload(), signed_bytes);
}

TEST(Fuzz, CertSnapshotTruncationAndTailRejected) {
  ExpectTruncationsRejected(SnapshotImage(), [](const Bytes& b) {
    return crypto::CertSnapshot::Deserialize(b);
  });
  Bytes tail = SnapshotImage();
  tail.push_back(0);
  EXPECT_THROW(crypto::CertSnapshot::Deserialize(tail), ParseError);
}

TEST(Fuzz, HostStatusLayoutFrozen) {
  Bytes elem5(32, 0x00);  // the field element 5, little-endian
  elem5[0] = 0x05;
  const Bytes expected = Cat({
      {0x01,                    // online
       0x00,                    // active sessions
       0x01, 0x00, 0x00, 0x00,  // held files
       0x40, 0x00, 0x00, 0x00,  //   FileMeta blob (64 bytes)
       0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // file_id
       0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // raw_size
       0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,   // num_elems
       0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},  // num_blocks
      Bytes(32, 0xCC),                                    // checksum
      {0x01, 0x00, 0x00, 0x00,                          // stuck refreshes
       0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   file
       0x65, 0x00, 0x00, 0x00,                          //   seq
       0x00,                                            //   waiting verdicts
       0x01, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,  //   missing dealers
       0x01, 0x00, 0x00, 0x00,                          // stuck recoveries
       0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   file
       0x66, 0x00, 0x00, 0x00,                          //   seq
       0x02, 0x00, 0x00, 0x00,                          //   target
       0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,  //   missing dealers
       0x00, 0x00, 0x00, 0x00,                          //   missing senders
       0x01, 0x00, 0x00, 0x00,                          // failed refreshes
       0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   file
       0x02, 0x00, 0x00, 0x00,                          //   dealers
       0x01,                                            //   dealer 0 seen
       0x20, 0x00, 0x00, 0x00},                         //   column blob
      elem5,
      {0x00,                                            //   dealer 1 unseen
       0x00, 0x00, 0x00, 0x00},                         //   empty column
  });
  EXPECT_EQ(SampleStatus().Serialize(), expected);
  EXPECT_EQ(HostStatus::Deserialize(expected, Ctx256()).Serialize(),
            expected);
}

TEST(Fuzz, ElemDeserializeRejectsOverflowAndRagged) {
  field::FpCtx ctx(field::StandardPrimeBe(256));
  // Ragged length.
  Bytes ragged(33, 0);
  EXPECT_THROW(field::DeserializeElems(ctx, ragged), ParseError);
  // Value >= modulus.
  Bytes big(32, 0xFF);
  EXPECT_THROW(field::DeserializeElems(ctx, big), InvalidArgument);
}

}  // namespace
}  // namespace pisces
