// Share storage host S_i: the paper's Fig 5 control flow as a message-driven
// state machine.
//
// A host consumes events from its transport: Set (share upload),
// Reconstruct (share download), Update/rerandomization (refresh), Recovery,
// and Process Message (the data-plane messages of the PSS protocols). Heavy
// share operations are spread over a pool of b workers (the paper's
// "process pool", realized as threads since there is no GIL to dodge here).
//
// The hypervisor drives the host lifecycle through direct Boot/Shutdown calls
// (modeling the CSP's privileged control channel, Fig 4): Shutdown wipes all
// state -- secure disassociation -- and Boot installs a fresh hypervisor-
// signed keypair. The hypervisor then publishes the boot batch's signed cert
// snapshot (crypto/ca.h) to every other endpoint, which is how the host
// rejoins the network.
//
// All data-plane payloads are encrypted and authenticated with per-peer,
// per-epoch channel keys derived from the hypervisor-signed host keys
// (paper SectionIII-C.3 "Key Secrecy").
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/clock.h"
#include "common/rng.h"
#include "crypto/ca.h"
#include "crypto/channel.h"
#include "net/sync_network.h"
#include "pisces/metrics.h"
#include "pisces/share_store.h"
#include "pss/recovery.h"
#include "pss/refresh.h"
#include "pss/reshare.h"

namespace pisces {

class ByzantineActor;

struct HostConfig {
  std::uint32_t id = 0;
  pss::Params params;
  std::shared_ptr<const field::FpCtx> ctx;
  bool encrypt_links = true;
  std::uint64_t rng_seed = 1;
};

class Host : public net::MessageHandler {
 public:
  Host(HostConfig cfg, net::Transport& transport,
       const crypto::SchnorrGroup& group, Bytes ca_pk);

  std::uint32_t id() const { return cfg_.id; }
  bool online() const { return online_; }
  std::uint32_t epoch() const { return epoch_; }

  // --- hypervisor control plane (direct privileged calls, Fig 4) ---
  // Takes on the fresh secret key `sk` and the certs of `directory` under
  // `snap`, the signed snapshot of its boot batch (PeerKeyring::Boot checks
  // it once and throws InvalidArgument, changing nothing, on a forged,
  // foreign or mismatched one), and clears session state.
  void Boot(Bytes sk, const crypto::CertDirectory& directory,
            const crypto::CertSnapshot& snap);
  // Secure disassociation: wipes shares, keys, channels, and sessions.
  void Shutdown();

  void HandleMessage(const net::Message& msg) override;

  // The installed cert of `peer`, or nullptr.
  const crypto::HostCert* PeerCert(std::uint32_t peer) const {
    return keyring_.Cert(peer);
  }

  // Aborts sessions that cannot complete (bounded-delay timeout fired by the
  // synchrony layer). Returns human-readable descriptions of what was stuck.
  std::vector<std::string> AbortStuckSessions();

  bool HasActiveSessions() const;

  // --- dealer-exclusion diagnostics (privileged hypervisor calls) ---
  // Snapshot of a refresh session wedged at the bounded-delay timeout: which
  // dealers' dealings never arrived. Call before AbortStuckSessions.
  struct StuckRefresh {
    std::uint64_t file_id = 0;
    std::uint32_t epoch = 0;  // hypervisor op sequence
    std::vector<std::uint32_t> missing_dealers;
    bool waiting_verdicts = false;  // all deals arrived; stuck later
  };
  std::vector<StuckRefresh> StuckRefreshSessions() const;

  // Same idea for recovery sessions wedged at the bounded-delay timeout:
  // which survivors' mask dealings never arrived (survivor side, one entry
  // per target the wedged round serves) and which survivors' masked shares
  // never arrived (target side). The hypervisor applies the dealer-exclusion
  // strike rule to both, per (file, target).
  struct StuckRecovery {
    std::uint64_t file_id = 0;
    std::uint32_t epoch = 0;  // hypervisor op sequence
    std::uint32_t target = 0;
    std::vector<std::uint32_t> missing_dealers;  // survivor-session view
    std::vector<std::uint32_t> missing_senders;  // target-session view
  };
  std::vector<StuckRecovery> StuckRecoverySessions() const;

  // Arms (or disarms, with nullptr) the active-adversary hooks: a non-null
  // actor makes this host cheat per its ByzantineStrategy. Stored state stays
  // honest; the actor only perturbs what leaves on the wire. With no actor
  // armed every code path is a null-pointer check away from the honest
  // build (the armed-vs-unarmed differential test pins this down).
  void ArmByzantine(ByzantineActor* actor) { byz_ = actor; }

  // Raw dealing columns of a refresh session that failed hyperinvertible
  // verification, archived so the hypervisor can attribute the corrupt
  // dealer: deals_by_dealer[i] is the Deal payload this host received from
  // the i-th participant named in the round's kStartRefresh (element g:
  // group g). Consumed (erased) by the call.
  struct FailedRefresh {
    std::vector<Bytes> deals_by_dealer;
    std::vector<bool> deal_seen;
  };
  std::optional<FailedRefresh> TakeFailedRefresh(std::uint64_t file_id,
                                                 std::uint32_t epoch);

  // --- resharing (privileged hypervisor calls; docs/resharding.md) ---
  // Computes this host's masked reshare contribution toward the new group
  // from nothing but its OWN stored share vector of `file_id`. Returns
  // nullopt when the host is offline, does not hold the file, or (armed with
  // a withholding actor) silently skips the send. The finished rows (one
  // element encoding per new party, see pss/reshare.h) pass through the
  // Byzantine deal-tamper seam before they leave the host, so the
  // verification path downstream faces the same adversary as refresh.
  std::optional<std::vector<Bytes>> ComputeReshare(
      std::uint64_t file_id, const pss::ResharePublic& pub,
      std::size_t ordinal);

  // Adopts a new group shape: wipes every stored share (the old-scheme share
  // state is obsolete after a reshare -- proactive obsolescence) and rebuilds
  // the local scheme. Keys, certs, and channels survive: resharing is a
  // share-state operation; key rotation stays with secure reboot.
  void AdoptParams(const pss::Params& params);

  // Installs a reshared file (privileged re-provisioning; the reshare analog
  // of the recovery target's apply step): `shares` is the at-rest encoding,
  // one element per block.
  void InstallShares(const FileMeta& meta, Bytes shares);

  ShareStore& store() { return store_; }
  const ShareStore& store() const { return store_; }
  HostMetrics& metrics() { return metrics_; }
  const HostMetrics& metrics() const { return metrics_; }
  const pss::PackedShamir& shamir() const { return *shamir_; }

  // Number of refresh/recovery verifications this host rejected (nonzero only
  // under fault injection).
  std::uint64_t verdicts_rejected() const { return verdicts_rejected_; }

 private:
  // One batched VSS round (paper SectionIII-B): n dealings, the
  // hyperinvertible transform, 2t opened check rows, then verdicts. Refresh
  // and recovery masking run the same round; only the vanishing sets and the
  // completion step differ (batch->recovery_shape() tells them apart). A
  // recovery round masks every target of its reboot batch at once.
  struct VssSession {
    std::optional<pss::VssBatch> batch;
    std::size_t blocks = 0;
    // Recovery only: the targets, one batch segment each, and the
    // reduced-repair point budget per block (pss/comm_efficient.h); 0 means
    // full masked vectors from every survivor.
    std::vector<std::uint32_t> targets;
    std::size_t mask_budget = 0;
    // Rows are element encodings, element g for group g (pss/vss.h).
    std::vector<Bytes> deals_by_dealer;  // the Deal payloads, [dealers]
    std::vector<bool> deal_seen;
    std::size_t deals = 0;
    std::vector<Bytes> outputs;  // transform rows, [dealers]
    // Verifier role: check_row -> per-holder CheckShare payloads ([k]).
    std::map<std::uint32_t, std::vector<Bytes>> check_vals;
    std::map<std::uint32_t, std::size_t> check_counts;
    std::set<std::uint32_t> verdict_rows;
    bool failed = false;
    bool done = false;
  };

  struct TargetSession {  // rebooted host waiting for masked shares
    FileMeta meta;
    pss::RecoveryPlan plan;
    std::size_t mask_budget = 0;  // 0 = full masked vectors
    std::map<std::uint32_t, Bytes> masked_by_sender;  // the payloads
  };

  // (file, epoch): epoch is the hypervisor op sequence, drawn afresh for
  // every refresh and recovery attempt, so it names one VSS round.
  using FileSeq = std::pair<std::uint64_t, std::uint32_t>;

  // --- message handlers (the *Plain variants take decrypted payloads and
  // are also the replay targets for buffered out-of-order messages) ---
  void OnSetShares(const net::Message& msg);
  void OnReconstructRequest(const net::Message& msg);
  void OnDeleteFile(const net::Message& msg);
  void OnStartRefresh(const net::Message& msg);
  void OnStartRecovery(const net::Message& msg);
  void OnDealPlain(const net::Message& msg);
  void OnCheckSharePlain(const net::Message& msg);
  void OnVerdictPlain(const net::Message& msg);
  void OnMaskedSharePlain(const net::Message& msg);

  // --- VSS round steps (refresh and recovery masking alike) ---
  // Sends this host's dealing `deal` of round `key` to every other holder and
  // records its self-deal.
  void StartVss(FileSeq key, VssSession s, std::vector<Bytes> deal);
  void TransformAndCheck(FileSeq key, VssSession& s);
  void MaybeVerifyRow(FileSeq key, VssSession& s, std::uint32_t row);
  void AcceptVerdict(FileSeq key, VssSession& s, std::uint32_t row, bool ok);
  PhaseMetrics& VssBucket(const VssSession& s);
  // Completion: a refresh applies its zero-sharing; a recovery round masks
  // this survivor's shares and ships them to the target.
  void MaybeApplyRefresh(FileSeq key, VssSession& s);
  void MaybeSendMaskedShares(FileSeq key, VssSession& s);

  // --- recovery target ---
  void MaybeFinishTarget(std::uint64_t file_id, std::uint32_t seq,
                         TargetSession& s);

  // --- plumbing ---
  void SendMetered(net::Message msg, PhaseMetrics& bucket);
  // When `accused` is non-empty the report carries the accused host ids after
  // the ok byte (recovery dispute); an empty list keeps the legacy one-byte
  // payload, so honest-path bytes are unchanged.
  void ReportPhaseDone(std::uint64_t file_id, std::uint32_t epoch,
                       std::uint32_t kind, bool ok, PhaseMetrics& bucket,
                       const std::vector<std::uint32_t>& accused = {});
  void ReplayPending();

  HostConfig cfg_;
  net::Transport& transport_;
  crypto::PeerKeyring keyring_;
  Rng rng_;

  std::shared_ptr<pss::PackedShamir> shamir_;
  ShareStore store_;
  HostMetrics metrics_;

  bool online_ = false;
  std::uint32_t epoch_ = 0;

  std::map<FileSeq, VssSession> vss_;
  std::map<FileSeq, TargetSession> target_;
  std::vector<net::Message> pending_;  // out-of-order protocol messages
  std::uint64_t verdicts_rejected_ = 0;
  // Failed-verification archives for hypervisor-side dealer attribution.
  std::map<FileSeq, FailedRefresh> failed_refresh_;
  // Start-once guard: duplicated control messages (fault injection) must not
  // resurrect sessions that already ran under the same (file, seq) key.
  std::set<FileSeq> started_;
  // Active-adversary hooks; nullptr on honest hosts (pisces/byzantine.h).
  ByzantineActor* byz_ = nullptr;
};

}  // namespace pisces
