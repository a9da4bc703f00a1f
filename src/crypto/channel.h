// Authenticated encrypted point-to-point channels between share storage
// hosts, replacing the paper's TLS links.
//
// Key agreement is static Diffie-Hellman over the Schnorr group using the
// hypervisor-signed host keys of the current epoch; directional keys come out
// of HKDF. Framing is encrypt-then-MAC: nonce counter || ChaCha20 ciphertext
// || HMAC-SHA256 tag. Because host keys are rotated at every reboot (Key
// Secrecy, paper SectionIII-C.3), an adversary corrupting a host in round i
// cannot decrypt traffic from rounds j > i.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "common/bytes.h"
#include "crypto/ca.h"
#include "crypto/schnorr.h"

namespace pisces::crypto {

// Derives the two directional channel keys for the (lo, hi) host pair from a
// DH shared secret. Returns {key_lo_to_hi, key_hi_to_lo}.
std::pair<Bytes, Bytes> DeriveChannelKeys(std::span<const std::uint8_t> shared,
                                          std::uint32_t epoch,
                                          std::uint32_t id_lo,
                                          std::uint32_t id_hi);

// One direction of a secure channel. Sealing increments a nonce counter;
// opening rejects replays with a sliding acceptance window (IPsec/DTLS
// style): frames up to kReplayWindow counters behind the highest seen are
// accepted exactly once, anything older or already seen is rejected. Plain
// strictly-increasing enforcement would turn benign network reordering into
// silent message loss -- the fault fabric's reorder knob found exactly that.
class SecureChannel {
 public:
  // Frames this far behind the newest accepted counter are still accepted
  // (once). Bounds legitimate reorder tolerance AND replay memory.
  static constexpr std::uint64_t kReplayWindow = 64;

  SecureChannel(Bytes send_key, Bytes recv_key);

  Bytes Seal(std::span<const std::uint8_t> plaintext);
  // nullopt on tag mismatch, replay/too-old counter, or malformed frame.
  std::optional<Bytes> Open(std::span<const std::uint8_t> frame);

  std::uint64_t sent_count() const { return send_counter_; }

 private:
  Bytes send_key_;
  Bytes recv_key_;
  std::uint64_t send_counter_ = 0;
  std::uint64_t recv_highwater_ = 0;  // highest counter accepted so far
  // Bit i records whether counter recv_highwater_ - i has been accepted.
  std::uint64_t recv_seen_ = 0;
};

// Convenience: build the pair of matching channel endpoints for two hosts
// given their long-term (epoch) keys.
SecureChannel MakeChannel(const SchnorrGroup& group,
                          std::span<const std::uint8_t> my_sk,
                          std::span<const std::uint8_t> peer_pk,
                          std::uint32_t epoch, std::uint32_t my_id,
                          std::uint32_t peer_id);

// The channel state of one endpoint (a host or the client): each peer's
// CA-signed cert and the channel derived for the current epoch pair. Certs
// arrive only in CA-signed snapshots (crypto/ca.h), one signature check per
// snapshot. With `encrypt` off, Seal and Open pass payloads through.
class PeerKeyring {
 public:
  // Pins the CA key's comb table for as long as the keyring lives.
  PeerKeyring(const SchnorrGroup& group, Bytes ca_pk, std::uint32_t my_id,
              bool encrypt)
      : group_(group), ca_pk_(std::move(ca_pk)),
        ca_table_(group.PinKeyTable(ca_pk_)), my_id_(my_id),
        encrypt_(encrypt) {}

  // Takes on a fresh identity from the snapshot of this endpoint's boot (or
  // enrollment) batch. First checks that `snap` lists this endpoint's cert,
  // that its root is `directory`'s and that its one CA signature verifies,
  // and throws InvalidArgument, changing nothing, when any check fails. Then
  // forgets every cert and channel, takes on `sk` for the listed cert's
  // epoch, installs every other directory cert and holds `snap`'s seq.
  // Returns that epoch.
  std::uint32_t Boot(Bytes sk, const CertDirectory& directory,
                     const CertSnapshot& snap);
  // A snapshot published after boot. One no newer than the held seq is
  // dropped before any signature check (returns false): a replay, or a
  // stale forgery. Otherwise throws InvalidArgument, installing nothing,
  // unless the signature verifies; then installs each listed peer cert
  // except where the held cert is no older -- re-deriving that channel
  // would restart its nonce counter.
  bool Accept(const CertSnapshot& snap);
  // Forgets the key, every cert and every channel (secure disassociation).
  void Clear();
  const HostCert* Cert(std::uint32_t peer) const;

  Bytes Seal(std::uint32_t peer, std::span<const std::uint8_t> plaintext);
  // Throws ParseError when the frame fails authentication.
  Bytes Open(std::uint32_t peer, std::span<const std::uint8_t> frame);

 private:
  SecureChannel& ChannelTo(std::uint32_t peer);

  const SchnorrGroup& group_;
  Bytes ca_pk_;
  std::shared_ptr<const FixedBaseTable> ca_table_;
  std::uint32_t my_id_;
  bool encrypt_;
  std::uint32_t epoch_ = 0;
  Bytes sk_;
  std::uint64_t seq_ = 0;  // newest snapshot taken; 0 before boot
  CertDirectory certs_;
  // peer -> (epoch pair the channel was derived for, channel)
  std::map<std::uint32_t, std::pair<std::uint64_t, SecureChannel>> channels_;
};

}  // namespace pisces::crypto
