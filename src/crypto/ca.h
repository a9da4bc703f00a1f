// The hypervisor's certificate authority.
//
// Paper SectionIV-A: "the hypervisor will install a new signed key pair --
// using a hypervisor specific key -- onto the server immediately after
// bootup. This key pair is then broadcast to the other S_i in the system,
// who in turn verify its authenticity." HostCert is that key pair's public
// half: (host id, epoch, host public key) signed by the CA.
//
// The broadcast is the hypervisor's, not the host's (DESIGN.md): once per
// reboot batch the CA signs one CertSnapshot carrying the batch's new certs
// and a digest of the whole cert directory, so every endpoint checks one CA
// signature per batch instead of one per cert. A booting host checks the
// snapshot against the directory it was provisioned with; every other
// endpoint takes the batch's certs from it. Trust is unchanged: the
// hypervisor is the CA either way.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "crypto/schnorr.h"
#include "crypto/sha256.h"

namespace pisces::crypto {

struct HostCert {
  std::uint32_t host_id = 0;
  std::uint32_t epoch = 0;  // reboot epoch the key is valid for
  Bytes host_pk;
  SchnorrSignature sig;

  Bytes Serialize() const;
  // Throws ParseError on a truncated image or a trailing tail.
  static HostCert Deserialize(std::span<const std::uint8_t> data);

  // The byte string the CA signs.
  Bytes SignedPayload() const;
};

// Hypervisor-signed certs by endpoint id (hosts and enrolled externals).
using CertDirectory = std::map<std::uint32_t, HostCert>;

// SHA-256 over the Serialize() image of every cert in `directory`, in
// ascending id order (the images are self-delimiting).
Digest DirectoryRoot(const CertDirectory& directory);

// One reboot batch's certs under one CA signature.
struct CertSnapshot {
  std::uint64_t seq = 0;  // CA-wide, strictly increasing
  Digest root{};          // DirectoryRoot of the directory at issue
  std::vector<HostCert> certs;  // the batch's new certs, each CA-signed too
  SchnorrSignature sig;

  Bytes Serialize() const;
  // Throws ParseError on a truncated image or a trailing tail.
  static CertSnapshot Deserialize(std::span<const std::uint8_t> data);

  // A domain tag, then seq, root and certs: the byte string the CA signs.
  Bytes SignedPayload() const;
  // The listed cert of `id`, or nullptr.
  const HostCert* Find(std::uint32_t id) const;
};

class CertAuthority {
 public:
  CertAuthority(const SchnorrGroup& group, Rng& rng);

  const Bytes& public_key() const { return keys_.pk; }

  // Issues a fresh, signed host keypair for (host_id, epoch). Returns the
  // cert plus the host's new secret key (installed onto the host by the
  // hypervisor, never sent over the network).
  std::pair<HostCert, Bytes> IssueHostKey(std::uint32_t host_id,
                                          std::uint32_t epoch, Rng& rng) const;
  // Signs `certs` (already entered in `directory`) as the next snapshot.
  CertSnapshot IssueSnapshot(const CertDirectory& directory,
                             std::vector<HostCert> certs, Rng& rng);

  // Both use the CA key's comb table while any holder pins it (this
  // authority does, as does every PeerKeyring trusting it).
  static bool VerifyCert(const SchnorrGroup& group,
                         std::span<const std::uint8_t> ca_pk,
                         const HostCert& cert);
  static bool VerifySnapshot(const SchnorrGroup& group,
                             std::span<const std::uint8_t> ca_pk,
                             const CertSnapshot& snap);

 private:
  const SchnorrGroup& group_;
  SchnorrKeyPair keys_;
  std::shared_ptr<const FixedBaseTable> key_table_;  // keeps keys_.pk's alive
  std::uint64_t next_seq_ = 1;
};

}  // namespace pisces::crypto
