#include "crypto/channel.h"

#include "crypto/chacha20.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"

namespace pisces::crypto {

std::pair<Bytes, Bytes> DeriveChannelKeys(std::span<const std::uint8_t> shared,
                                          std::uint32_t epoch,
                                          std::uint32_t id_lo,
                                          std::uint32_t id_hi) {
  ByteWriter info;
  info.Raw(Bytes{'p', 'i', 's', 'c', 'e', 's', '-', 'c', 'h'});
  info.U32(epoch);
  info.U32(id_lo);
  info.U32(id_hi);
  Bytes salt;  // empty salt is fine for HKDF
  Bytes okm = HkdfSha256(salt, shared, info.bytes(), 2 * (32 + 32));
  // Each direction: 32B cipher key + 32B mac key, packed together.
  Bytes lo_to_hi(okm.begin(), okm.begin() + 64);
  Bytes hi_to_lo(okm.begin() + 64, okm.end());
  return {std::move(lo_to_hi), std::move(hi_to_lo)};
}

SecureChannel::SecureChannel(Bytes send_key, Bytes recv_key)
    : send_key_(std::move(send_key)), recv_key_(std::move(recv_key)) {
  Require(send_key_.size() == 64 && recv_key_.size() == 64,
          "SecureChannel: keys must be 64 bytes (cipher||mac)");
}

namespace {
Bytes NonceFor(std::uint64_t counter) {
  Bytes nonce(kChaChaNonceSize, 0);
  StoreLe64(counter, nonce.data());
  return nonce;
}
}  // namespace

Bytes SecureChannel::Seal(std::span<const std::uint8_t> plaintext) {
  ++send_counter_;
  Bytes ct(plaintext.begin(), plaintext.end());
  Bytes nonce = NonceFor(send_counter_);
  std::span<const std::uint8_t> cipher_key(send_key_.data(), 32);
  std::span<const std::uint8_t> mac_key(send_key_.data() + 32, 32);
  ChaCha20Xor(cipher_key, nonce, 1, ct);

  ByteWriter w;
  w.U64(send_counter_);
  w.Blob(ct);
  Digest tag = HmacSha256(mac_key, w.bytes());
  w.Raw(tag);
  return w.Take();
}

std::optional<Bytes> SecureChannel::Open(std::span<const std::uint8_t> frame) {
  if (frame.size() < 8 + 4 + kSha256DigestSize) return std::nullopt;
  std::size_t body_len = frame.size() - kSha256DigestSize;
  std::span<const std::uint8_t> body = frame.subspan(0, body_len);
  std::span<const std::uint8_t> tag_bytes = frame.subspan(body_len);

  std::span<const std::uint8_t> cipher_key(recv_key_.data(), 32);
  std::span<const std::uint8_t> mac_key(recv_key_.data() + 32, 32);
  Digest expected = HmacSha256(mac_key, body);
  Digest got;
  std::copy(tag_bytes.begin(), tag_bytes.end(), got.begin());
  if (!DigestEq(expected, got)) return std::nullopt;

  try {
    ByteReader r(body);
    std::uint64_t counter = r.U64();
    auto ct = r.Blob();
    if (!r.AtEnd()) return std::nullopt;
    // Sliding-window anti-replay. recv_seen_ bit i covers counter
    // recv_highwater_ - i; bit 0 (the highwater itself) is always set.
    if (counter > recv_highwater_) {
      const std::uint64_t advance = counter - recv_highwater_;
      recv_seen_ = advance >= 64 ? 0 : recv_seen_ << advance;
      recv_seen_ |= 1;
      recv_highwater_ = counter;
    } else {
      const std::uint64_t behind = recv_highwater_ - counter;
      if (behind >= kReplayWindow) return std::nullopt;  // too old
      const std::uint64_t bit = 1ull << behind;
      if ((recv_seen_ & bit) != 0) return std::nullopt;  // replay
      recv_seen_ |= bit;
    }
    Bytes pt(ct.begin(), ct.end());
    ChaCha20Xor(cipher_key, NonceFor(counter), 1, pt);
    return pt;
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

SecureChannel MakeChannel(const SchnorrGroup& group,
                          std::span<const std::uint8_t> my_sk,
                          std::span<const std::uint8_t> peer_pk,
                          std::uint32_t epoch, std::uint32_t my_id,
                          std::uint32_t peer_id) {
  Require(my_id != peer_id, "MakeChannel: identical endpoints");
  Bytes shared = DhSharedSecret(group, my_sk, peer_pk);
  std::uint32_t lo = std::min(my_id, peer_id);
  std::uint32_t hi = std::max(my_id, peer_id);
  auto [lo_to_hi, hi_to_lo] = DeriveChannelKeys(shared, epoch, lo, hi);
  if (my_id == lo) {
    return SecureChannel(std::move(lo_to_hi), std::move(hi_to_lo));
  }
  return SecureChannel(std::move(hi_to_lo), std::move(lo_to_hi));
}

std::uint32_t PeerKeyring::Boot(Bytes sk, const CertDirectory& directory,
                                const CertSnapshot& snap) {
  const HostCert* mine = snap.Find(my_id_);
  Require(mine != nullptr, "PeerKeyring::Boot: snapshot lists no cert for me");
  Require(snap.root == DirectoryRoot(directory),
          "PeerKeyring::Boot: snapshot root is not the directory's");
  Require(CertAuthority::VerifySnapshot(group_, ca_pk_, snap),
          "PeerKeyring::Boot: bad snapshot signature");
  Clear();
  epoch_ = mine->epoch;
  sk_ = std::move(sk);
  seq_ = snap.seq;
  for (const auto& [id, cert] : directory) {
    if (id != my_id_) certs_.emplace(id, cert);
  }
  return epoch_;
}

bool PeerKeyring::Accept(const CertSnapshot& snap) {
  if (snap.seq <= seq_) return false;
  Require(CertAuthority::VerifySnapshot(group_, ca_pk_, snap),
          "PeerKeyring::Accept: bad snapshot signature");
  seq_ = snap.seq;
  for (const HostCert& cert : snap.certs) {
    if (cert.host_id == my_id_) continue;
    auto it = certs_.find(cert.host_id);
    if (it != certs_.end() && it->second.epoch >= cert.epoch) continue;
    certs_.insert_or_assign(cert.host_id, cert);
  }
  return true;
}

void PeerKeyring::Clear() {
  epoch_ = 0;
  sk_.clear();
  seq_ = 0;
  certs_.clear();
  channels_.clear();
}

const HostCert* PeerKeyring::Cert(std::uint32_t peer) const {
  auto it = certs_.find(peer);
  return it == certs_.end() ? nullptr : &it->second;
}

SecureChannel& PeerKeyring::ChannelTo(std::uint32_t peer) {
  const HostCert* pc = Cert(peer);
  Require(pc != nullptr,
          "PeerKeyring: no cert for peer (reboot announcement lost?)");
  const bool i_am_lo = my_id_ < peer;
  const std::uint32_t lo_epoch = i_am_lo ? epoch_ : pc->epoch;
  const std::uint32_t hi_epoch = i_am_lo ? pc->epoch : epoch_;
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(lo_epoch) << 32) | hi_epoch;
  auto it = channels_.find(peer);
  if (it == channels_.end() || it->second.first != pair) {
    SecureChannel ch = MakeChannel(group_, sk_, pc->host_pk,
                                   (lo_epoch << 16) ^ hi_epoch, my_id_, peer);
    it = channels_.insert_or_assign(peer, std::pair{pair, std::move(ch)})
             .first;
  }
  return it->second.second;
}

Bytes PeerKeyring::Seal(std::uint32_t peer,
                        std::span<const std::uint8_t> plaintext) {
  if (!encrypt_) return Bytes(plaintext.begin(), plaintext.end());
  return ChannelTo(peer).Seal(plaintext);
}

Bytes PeerKeyring::Open(std::uint32_t peer,
                        std::span<const std::uint8_t> frame) {
  if (!encrypt_) return Bytes(frame.begin(), frame.end());
  auto pt = ChannelTo(peer).Open(frame);
  if (!pt) throw ParseError("channel authentication failed");
  return std::move(*pt);
}

}  // namespace pisces::crypto
