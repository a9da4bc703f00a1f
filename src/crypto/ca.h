// The hypervisor's certificate authority.
//
// Paper SectionIV-A: "the hypervisor will install a new signed key pair --
// using a hypervisor specific key -- onto the server immediately after
// bootup. This key pair is then broadcast to the other S_i in the system,
// who in turn verify its authenticity." HostCert is that broadcastable
// object: (host id, epoch, host public key) signed by the CA.
#pragma once

#include <cstdint>

#include "crypto/schnorr.h"

namespace pisces::crypto {

struct HostCert {
  std::uint32_t host_id = 0;
  std::uint32_t epoch = 0;  // reboot epoch the key is valid for
  Bytes host_pk;
  SchnorrSignature sig;

  Bytes Serialize() const;
  static HostCert Deserialize(std::span<const std::uint8_t> data);

  // The byte string the CA signs.
  Bytes SignedPayload() const;
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

  // Uses the CA key's comb table while any holder pins it (this authority
  // does, as does every PeerKeyring trusting it).
  static bool VerifyCert(const SchnorrGroup& group,
                         std::span<const std::uint8_t> ca_pk,
                         const HostCert& cert);

 private:
  const SchnorrGroup& group_;
  SchnorrKeyPair keys_;
  std::shared_ptr<const FixedBaseTable> key_table_;  // keeps keys_.pk's alive
};

}  // namespace pisces::crypto
