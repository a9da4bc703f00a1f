// The user's client: uploads files as packed shares and reassembles them on
// download (paper SectionI use cases; SectionVI-E lifecycle steps 1 and 3).
//
// The client is stateless between sessions: it keeps no share material, only
// an enrolled keypair (in a real deployment, the user's TLS identity). Upload
// shares every block to every host; download requests shares from all hosts
// and reconstructs from the first d+1 responses, so up to n-(d+1) hosts may
// be offline or withholding without affecting availability.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/clock.h"
#include "crypto/ca.h"
#include "crypto/channel.h"
#include "net/sync_network.h"
#include "pisces/file_codec.h"
#include "pisces/metrics.h"
#include "pisces/read_spec.h"
#include "pss/comm_efficient.h"
#include "pss/packed_shamir.h"

namespace pisces {

struct ClientConfig {
  std::uint32_t id = net::kClientId;
  pss::Params params;
  std::shared_ptr<const field::FpCtx> ctx;
  bool encrypt_links = true;
  std::uint64_t rng_seed = 7;
};

class Client : public net::MessageHandler {
 public:
  // Enrolls under `sk` and the certs of `directory`, checked once against
  // `snap`, the signed snapshot of the enrollment (PeerKeyring::Boot).
  // Later certs arrive as the hypervisor's kHostCert snapshots.
  Client(ClientConfig cfg, net::Transport& transport,
         const crypto::SchnorrGroup& group, Bytes ca_pk, Bytes sk,
         const crypto::CertDirectory& directory,
         const crypto::CertSnapshot& snap);

  std::uint32_t id() const { return cfg_.id; }

  // The installed cert of `peer`, or nullptr.
  const crypto::HostCert* PeerCert(std::uint32_t peer) const {
    return keyring_.Cert(peer);
  }

  // Splits `data` into packed shares and sends one kSetShares to each host.
  // Caller pumps the network, then checks UploadAcks == n.
  FileMeta BeginUpload(std::uint64_t file_id,
                       std::span<const std::uint8_t> data);
  std::size_t UploadAcks(std::uint64_t file_id) const;
  // Re-sends the CACHED share payloads to hosts that have not acked yet (an
  // upload must never re-encode: fresh randomness would hand different
  // polynomials to hosts that already stored the first attempt). Returns the
  // number of hosts re-targeted. Caller pumps again.
  std::size_t RetryUpload(std::uint64_t file_id);
  // Drops the cached upload payloads once the caller is done retrying.
  void FinishUpload(std::uint64_t file_id);

  // Starts the download described by `spec` (pisces/read_spec.h). On the
  // full-share path this asks every host for its whole share vector; on the
  // staircase path it contacts spec.policy.contacts hosts (0 = all n) and
  // each ships only its assigned stripe. An infeasible staircase budget
  // degrades to the full-share path when the spec's fallback allows it and
  // throws InvalidArgument otherwise. Caller pumps, then calls TryAssemble.
  void BeginDownload(const ReadSpec& spec);
  // Re-requests only from hosts whose response is still missing, keeping the
  // responses already received. Returns the number of hosts re-asked.
  std::size_t RetryDownload(const ReadSpec& spec);
  std::size_t ResponsesFor(std::uint64_t file_id) const;
  // Reconstructs and decodes; nullopt when the active path is still missing
  // responses. Throws ParseError if reconstruction succeeds but integrity
  // checks fail (classic path: inconsistent shares above threshold;
  // staircase path: any corrupted stripe -- the caller decides whether to
  // fall back to the full-share oracle).
  std::optional<Bytes> TryAssemble(std::uint64_t file_id);

  void RequestDelete(std::uint64_t file_id);

  // Retargets the client at a resharded fleet (Hypervisor::Reshare). The
  // packing l must match -- the codec's chunking depends only on l, so every
  // stored FileMeta stays valid across the migration. Refuses while uploads
  // or downloads are in flight (their share vectors are sized for the old
  // fleet).
  void AdoptParams(const pss::Params& params);

  void HandleMessage(const net::Message& msg) override;

  const PhaseMetrics& metrics() const { return metrics_; }
  // Upload/download re-sends issued after missing acks or responses.
  std::uint64_t retries() const { return retries_; }

 private:
  // Berlekamp-Welch fallback over all responses when the fast path fails its
  // integrity check (a minority of hosts returned corrupted shares).
  Bytes AssembleRobust(const FileMeta& meta,
                       std::uint64_t* extra_cpu_ns = nullptr);

  ClientConfig cfg_;
  net::Transport& transport_;
  crypto::PeerKeyring keyring_;
  Rng rng_;

  std::shared_ptr<pss::PackedShamir> shamir_;
  FileCodec codec_;

  // Hosts that acked the upload, plus the per-host plaintext payloads kept
  // for retries (sealed fresh on each send; the share material is fixed).
  struct PendingUpload {
    std::set<std::uint32_t> acked;
    std::vector<Bytes> payloads;  // [host] serialized meta + shares
  };
  std::map<std::uint64_t, PendingUpload> uploads_;
  // A response kept as its opened payload, meta blob || elements; the
  // elements were range-checked (field::ValidateElems) on arrival and stay
  // in their wire encoding.
  struct ShareResponse {
    FileMeta meta;
    Bytes body;
    std::size_t offset = 0;  // where the elements start in body
    std::size_t count = 0;   // elements
    bool striped = false;    // stripe (row=1) vs full share vector (row=0)

    std::span<const std::uint8_t> elems() const {
      return std::span<const std::uint8_t>(body).subspan(offset);
    }
  };
  struct PendingDownload {
    ReadPolicy policy;  // resolved policy this download runs under
    // Staircase only: contacted host ids in contact-index order. Empty on
    // the full-share path (which asks all n hosts).
    std::vector<std::uint32_t> contacted;
    std::map<std::uint32_t, ShareResponse> responses;
  };
  std::map<std::uint64_t, PendingDownload> downloads_;

  void SendReconstructRequest(std::uint64_t file_id, std::uint32_t host,
                              const PendingDownload& dl);
  std::optional<Bytes> AssembleStaircase(std::uint64_t file_id,
                                         PendingDownload& dl);

  PhaseMetrics metrics_;
  std::uint64_t retries_ = 0;
};

}  // namespace pisces
