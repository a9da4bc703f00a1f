#include "crypto/ca.h"

#include <algorithm>
#include <string_view>

#include "obs/trace.h"

namespace pisces::crypto {

namespace {

// Prefixes a snapshot's signed bytes: no HostCert payload starts with it, so
// a snapshot signature never doubles as a cert signature or vice versa.
constexpr std::string_view kSnapshotTag = "pisces.cert-snapshot.v1";

void WriteSnapshotBody(const CertSnapshot& snap, ByteWriter& w) {
  w.U64(snap.seq);
  w.Raw(snap.root);
  w.U32(static_cast<std::uint32_t>(snap.certs.size()));
  for (const HostCert& cert : snap.certs) w.Blob(cert.Serialize());
}

}  // namespace

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
  if (!r.AtEnd()) throw ParseError("HostCert: trailing bytes");
  return cert;
}

Digest DirectoryRoot(const CertDirectory& directory) {
  Sha256 h;
  for (const auto& [id, cert] : directory) h.Update(cert.Serialize());
  return h.Finish();
}

Bytes CertSnapshot::SignedPayload() const {
  ByteWriter w;
  w.Raw(std::span(reinterpret_cast<const std::uint8_t*>(kSnapshotTag.data()),
                  kSnapshotTag.size()));
  WriteSnapshotBody(*this, w);
  return w.Take();
}

Bytes CertSnapshot::Serialize() const {
  ByteWriter w;
  WriteSnapshotBody(*this, w);
  w.Blob(sig.Serialize());
  return w.Take();
}

CertSnapshot CertSnapshot::Deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  CertSnapshot snap;
  snap.seq = r.U64();
  auto root = r.Raw(snap.root.size());
  std::copy(root.begin(), root.end(), snap.root.begin());
  const std::uint32_t count = r.Count(4);  // each cert: a length-prefixed blob
  snap.certs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    snap.certs.push_back(HostCert::Deserialize(r.Blob()));
  }
  snap.sig = SchnorrSignature::Deserialize(r.Blob());
  if (!r.AtEnd()) throw ParseError("CertSnapshot: trailing bytes");
  return snap;
}

const HostCert* CertSnapshot::Find(std::uint32_t id) const {
  for (const HostCert& cert : certs) {
    if (cert.host_id == id) return &cert;
  }
  return nullptr;
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

CertSnapshot CertAuthority::IssueSnapshot(const CertDirectory& directory,
                                          std::vector<HostCert> certs,
                                          Rng& rng) {
  obs::Span span(obs::SpanKind::kSignSnapshot, next_seq_, certs.size());
  CertSnapshot snap;
  snap.seq = next_seq_++;
  snap.root = DirectoryRoot(directory);
  snap.certs = std::move(certs);
  snap.sig = SchnorrSign(group_, keys_.sk, snap.SignedPayload(), rng);
  return snap;
}

bool CertAuthority::VerifyCert(const SchnorrGroup& group,
                               std::span<const std::uint8_t> ca_pk,
                               const HostCert& cert) {
  obs::Span span(obs::SpanKind::kCertVerify, cert.host_id, cert.epoch);
  return SchnorrVerify(group, ca_pk, cert.SignedPayload(), cert.sig);
}

bool CertAuthority::VerifySnapshot(const SchnorrGroup& group,
                                   std::span<const std::uint8_t> ca_pk,
                                   const CertSnapshot& snap) {
  obs::Span span(obs::SpanKind::kVerifySnapshot, snap.seq, snap.certs.size());
  return SchnorrVerify(group, ca_pk, snap.SignedPayload(), snap.sig);
}

}  // namespace pisces::crypto
