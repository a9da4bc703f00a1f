#include "crypto/ca.h"

#include "obs/trace.h"

namespace pisces::crypto {

Bytes HostCert::SignedPayload() const {
  ByteWriter w;
  w.U32(host_id);
  w.U32(epoch);
  w.Blob(host_pk);
  return w.Take();
}

Bytes HostCert::Serialize() const {
  ByteWriter w;
  w.U32(host_id);
  w.U32(epoch);
  w.Blob(host_pk);
  w.Blob(sig.Serialize());
  return w.Take();
}

HostCert HostCert::Deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  HostCert cert;
  cert.host_id = r.U32();
  cert.epoch = r.U32();
  auto pk = r.Blob();
  cert.host_pk.assign(pk.begin(), pk.end());
  cert.sig = SchnorrSignature::Deserialize(r.Blob());
  return cert;
}

CertAuthority::CertAuthority(const SchnorrGroup& group, Rng& rng)
    : group_(group),
      keys_(SchnorrKeygen(group, rng)),
      key_table_(group.PinKeyTable(keys_.pk)) {}

std::pair<HostCert, Bytes> CertAuthority::IssueHostKey(std::uint32_t host_id,
                                                       std::uint32_t epoch,
                                                       Rng& rng) const {
  obs::Span span(obs::SpanKind::kSign, host_id, epoch);
  SchnorrKeyPair host_keys = SchnorrKeygen(group_, rng);
  HostCert cert;
  cert.host_id = host_id;
  cert.epoch = epoch;
  cert.host_pk = host_keys.pk;
  cert.sig = SchnorrSign(group_, keys_.sk, cert.SignedPayload(), rng);
  return {std::move(cert), std::move(host_keys.sk)};
}

bool CertAuthority::VerifyCert(const SchnorrGroup& group,
                               std::span<const std::uint8_t> ca_pk,
                               const HostCert& cert) {
  obs::Span span(obs::SpanKind::kCertVerify, cert.host_id, cert.epoch);
  return SchnorrVerify(group, ca_pk, cert.SignedPayload(), cert.sig);
}

}  // namespace pisces::crypto
