#include "pisces/host.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "math/berlekamp_welch.h"
#include "obs/registry.h"
#include "pisces/byzantine.h"
#include "pss/comm_efficient.h"

namespace pisces {

using field::FpElem;
using net::Message;
using net::MsgType;

namespace {

// Detection-side counters for the active-adversary model. They count causes,
// not strategies: any corrupted input trips them, whether it came from a
// ByzantineActor or from wire-level fault injection.
obs::Counter& VssCheckFailures() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.vss_check_failures",
      "hyperinvertible check rows rejected by verifiers");
  return c;
}
obs::Counter& RecoveryInconsistent() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.recovery_inconsistent",
      "masked-share blocks failing the target consistency check");
  return c;
}
obs::Counter& RecoverySharesCorrected() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.recovery_shares_corrected",
      "wrong masked shares decoded through by the recovery target");
  return c;
}

// Runs `handle`, dropping `msg` with a warning if it turns out malformed or
// unauthorized. InternalError is deliberately NOT caught -- invariant
// violations are bugs and must surface.
template <typename Handle>
void DropIfMalformed(std::uint32_t self, const Message& msg, Handle&& handle) {
  try {
    handle();
  } catch (const ParseError& e) {
    LogWarn() << "host " << self << ": dropping message (" << e.what()
              << "): " << msg.Describe();
  } catch (const InvalidArgument& e) {
    // Malformed or unauthorized input (unknown peer, bad sizes).
    LogWarn() << "host " << self << ": rejecting message (" << e.what()
              << "): " << msg.Describe();
  }
}

}  // namespace

Host::Host(HostConfig cfg, net::Transport& transport,
           const crypto::SchnorrGroup& group, Bytes ca_pk)
    : cfg_(std::move(cfg)),
      transport_(transport),
      keyring_(group, std::move(ca_pk), cfg_.id, cfg_.encrypt_links),
      rng_(cfg_.rng_seed ^ (std::uint64_t{cfg_.id} << 32)),
      shamir_(std::make_shared<pss::PackedShamir>(cfg_.ctx, cfg_.params)),
      store_(*cfg_.ctx) {}

void Host::Boot(Bytes sk, const crypto::CertDirectory& directory,
                const crypto::CertSnapshot& snap) {
  epoch_ = keyring_.Boot(std::move(sk), directory, snap);
  online_ = true;
  vss_.clear();
  target_.clear();
  pending_.clear();
  failed_refresh_.clear();
  started_.clear();
}

void Host::Shutdown() {
  online_ = false;
  // Secure disassociation: nothing from this incarnation survives.
  store_.WipeAll();
  keyring_.Clear();
  vss_.clear();
  target_.clear();
  pending_.clear();
  failed_refresh_.clear();
  started_.clear();
}

void Host::SendMetered(Message msg, PhaseMetrics& bucket) {
  bucket.msgs_sent += 1;
  bucket.bytes_sent += msg.WireSize();
  transport_.Send(std::move(msg));
}

void Host::ReportPhaseDone(std::uint64_t file_id, std::uint32_t epoch,
                           std::uint32_t kind, bool ok, PhaseMetrics& bucket,
                           const std::vector<std::uint32_t>& accused) {
  Message m;
  m.from = cfg_.id;
  m.to = net::kHypervisorId;
  m.type = MsgType::kPhaseDone;
  m.file_id = file_id;
  m.epoch = epoch;
  m.row = kind;
  if (accused.empty()) {
    m.payload = Bytes{static_cast<std::uint8_t>(ok ? 1 : 0)};
  } else {
    // Dispute report: ok byte, then the survivors whose masked shares the
    // robust decode rejected. Only non-empty lists change the wire format.
    ByteWriter w;
    w.U8(ok ? 1 : 0);
    w.U32(static_cast<std::uint32_t>(accused.size()));
    for (std::uint32_t id : accused) w.U32(id);
    m.payload = w.bytes();
  }
  SendMetered(std::move(m), bucket);
}

void Host::HandleMessage(const Message& msg) {
  if (!online_) return;
  DropIfMalformed(cfg_.id, msg, [&] {
    switch (msg.type) {
      case MsgType::kSetShares: OnSetShares(msg); break;
      case MsgType::kReconstructRequest: OnReconstructRequest(msg); break;
      case MsgType::kDeleteFile: OnDeleteFile(msg); break;
      case MsgType::kStartRefresh: OnStartRefresh(msg); break;
      case MsgType::kStartRecovery: OnStartRecovery(msg); break;
      case MsgType::kHostCert:
        // A reboot batch's cert snapshot: only the hypervisor publishes one.
        if (msg.from != net::kHypervisorId) {
          LogWarn() << "host " << cfg_.id << ": dropping a cert snapshot from "
                    << msg.from;
          break;
        }
        keyring_.Accept(crypto::CertSnapshot::Deserialize(msg.payload));
        break;
      case MsgType::kVerdict: OnVerdictPlain(msg); break;
      case MsgType::kDeal:
      case MsgType::kCheckShare:
      case MsgType::kMaskedShare: {
        // Decrypt immediately: channel counters advance in receive order, so
        // deferring decryption of buffered messages would break replay
        // protection. Everything downstream sees plaintext payloads.
        Message plain = msg;
        plain.payload = keyring_.Open(msg.from, msg.payload);
        if (msg.type == MsgType::kDeal) {
          OnDealPlain(plain);
        } else if (msg.type == MsgType::kCheckShare) {
          OnCheckSharePlain(plain);
        } else {
          OnMaskedSharePlain(plain);
        }
        break;
      }
      case MsgType::kShareResponse:
      case MsgType::kPhaseDone:
      // Process-lifecycle control is handled by the HostProcess wrapper (a
      // bare in-process Host has no process to manage); reaching here means a
      // peer sent control traffic to the wrong layer.
      case MsgType::kBootHost:
      case MsgType::kHaltHost:
      case MsgType::kStatusRequest:
      case MsgType::kStatusReport:
      case MsgType::kAbortStuck:
      // Serving frames terminate at a ServingGateway, never at a host.
      case MsgType::kServingRequest:
      case MsgType::kServingResponse:
        LogWarn() << "host " << cfg_.id << ": unexpected " << msg.Describe();
        break;
    }
  });
}

// ---------------------------------------------------------------------------
// Client-facing plane (Fig 5 events "Set" and "Reconstruct")
// ---------------------------------------------------------------------------

void Host::OnSetShares(const Message& msg) {
  FileMeta meta;
  {
    ComputeSection section(metrics_.serve, obs::SpanKind::kServe, cfg_.id,
                           msg.file_id);
    Bytes pt = keyring_.Open(msg.from, msg.payload);
    ByteReader r(pt);
    meta = FileMeta::Deserialize(r.Blob());
    // The upload is already in the at-rest encoding: check it in place,
    // then keep the payload minus its meta blob.
    const std::size_t head = pt.size() - r.Remaining();
    Require(field::ValidateElems(*cfg_.ctx, r.Raw(r.Remaining())) ==
                meta.num_blocks,
            "SetShares: wrong share count");
    pt.erase(pt.begin(), pt.begin() + static_cast<std::ptrdiff_t>(head));
    store_.Put(meta, std::move(pt));
  }

  Message ack;
  ack.from = cfg_.id;
  ack.to = msg.from;
  ack.type = MsgType::kPhaseDone;
  ack.file_id = meta.file_id;
  ack.epoch = epoch_;
  ack.row = 2;  // set-ack
  ack.payload = Bytes{1};
  SendMetered(std::move(ack), metrics_.serve);
}

void Host::OnReconstructRequest(const Message& msg) {
  const ShareStore::Stored* stored = store_.Find(msg.file_id);
  if (stored == nullptr) {
    Message nak;
    nak.from = cfg_.id;
    nak.to = msg.from;
    nak.type = MsgType::kPhaseDone;
    nak.file_id = msg.file_id;
    nak.row = 3;  // reconstruct-nak
    nak.payload = Bytes{0};
    SendMetered(std::move(nak), metrics_.serve);
    return;
  }
  // Empty payload = classic full-share read (wire bytes unchanged).
  // Non-empty = staircase descriptor {contact index, contacts, need}: serve
  // only the blocks this host's contact index covers (docs/bandwidth.md).
  bool striped = false;
  std::vector<std::size_t> assigned;
  if (!msg.payload.empty()) {
    ByteReader r(msg.payload);
    const std::uint32_t index = r.U32();
    const std::uint32_t contacts = r.U32();
    const std::uint32_t need = r.U32();
    Require(r.AtEnd(), "ReconstructRequest: trailing bytes");
    Require(need == cfg_.params.degree() + 1,
            "ReconstructRequest: need must be degree+1");
    Require(contacts <= cfg_.params.n && index < contacts,
            "ReconstructRequest: bad contact window");
    const pss::StripeLayout layout(contacts, need);
    assigned = layout.BlocksFor(index, stored->meta.num_blocks);
    striped = true;
  }

  Bytes sealed;
  {
    ComputeSection section(metrics_.serve, obs::SpanKind::kServe, cfg_.id,
                           msg.file_id);
    // The at-rest bytes are the wire encoding: a read copies them (or the
    // stripe's element slices) straight into the response, never loading.
    // The client parses and range-checks every element it receives.
    const std::span<const std::uint8_t> at_rest = stored->at_rest;
    const std::size_t eb = cfg_.ctx->elem_bytes();
    ByteWriter w;
    w.Blob(stored->meta.Serialize());
    const std::size_t head = w.bytes().size();
    if (striped) {
      for (std::size_t b : assigned) w.Raw(at_rest.subspan(b * eb, eb));
    } else {
      w.Raw(at_rest);
    }
    Bytes body = w.Take();
    if (byz_ != nullptr) {
      // Wrong-share attack on client reconstruction: lie on the wire while
      // the stored shares stay honest (the mobile adversary corrupts and
      // leaves; it does not get to rot the store beyond the decode radius).
      byz_->TamperShares(std::span<std::uint8_t>(body).subspan(head));
    }
    sealed = keyring_.Seal(msg.from, body);
  }

  Message resp;
  resp.from = cfg_.id;
  resp.to = msg.from;
  resp.type = MsgType::kShareResponse;
  resp.file_id = msg.file_id;
  resp.epoch = epoch_;
  resp.row = striped ? 1 : 0;  // stripe vs full share vector
  resp.payload = std::move(sealed);
  SendMetered(std::move(resp), metrics_.serve);
}

void Host::OnDeleteFile(const Message& msg) {
  // Destructive request: must open on an authenticated channel and the inner
  // file id must match the header (prevents splicing a sealed delete onto a
  // different file). Unknown senders throw and are dropped upstream.
  Bytes pt = keyring_.Open(msg.from, msg.payload);
  ByteReader r(pt);
  std::uint64_t confirmed = r.U64();
  Require(confirmed == msg.file_id, "DeleteFile: id mismatch");
  store_.Delete(msg.file_id);
}

// ---------------------------------------------------------------------------
// Refresh (rerandomization) and recovery: starting a VSS round
// ---------------------------------------------------------------------------

void Host::OnStartRefresh(const Message& msg) {
  // Control plane: only the hypervisor may start update phases (in a real
  // CSP this arrives over the privileged management channel).
  Require(msg.from == net::kHypervisorId,
          "StartRefresh: not from the hypervisor");
  // The hypervisor names the agreed participant set (every live holder, or
  // fewer in a dealer-exclusion round).
  ByteReader r(msg.payload);
  const std::uint32_t count = r.Count(4);
  std::vector<std::uint32_t> participants;
  participants.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) participants.push_back(r.U32());
  Require(r.AtEnd(), "StartRefresh: trailing bytes");

  // Start-once: a duplicated (fault-injected) control message must not
  // resurrect a session that already ran and completed under this key.
  if (!started_.insert({msg.file_id, msg.epoch}).second) return;
  const bool i_participate =
      std::find(participants.begin(), participants.end(), cfg_.id) !=
      participants.end();
  if (!i_participate) return;  // excluded this round; shares refresh without us

  if (!store_.Has(msg.file_id)) {
    ReportPhaseDone(msg.file_id, msg.epoch, 0, true, metrics_.rerandomize);
    return;
  }

  VssSession s;
  std::vector<Bytes> deal;
  {
    ComputeSection section(metrics_.rerandomize, obs::SpanKind::kRefreshDeal,
                           cfg_.id, msg.file_id);
    s.blocks = store_.MetaOf(msg.file_id).num_blocks;
    s.batch.emplace(pss::MakeRefreshBatch(*shamir_, s.blocks, participants));
    if (participants.size() < cfg_.params.n) {
      metrics_.faults.deals_excluded += cfg_.params.n - participants.size();
    }
    // The optional tamper hook is the dealer-side attack seam (equivocation,
    // corrupted zero-sharings); nullptr on honest hosts.
    deal = s.batch->Deal(rng_, section.extra(), byz_);
  }
  StartVss({msg.file_id, msg.epoch}, std::move(s), std::move(deal));
  ReplayPending();
}

void Host::OnStartRecovery(const Message& msg) {
  Require(msg.from == net::kHypervisorId,
          "StartRecovery: not from the hypervisor");
  ByteReader r(msg.payload);
  FileMeta meta = FileMeta::Deserialize(r.Blob());
  const std::uint32_t count = r.Count(4);
  std::vector<std::uint32_t> targets;
  targets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) targets.push_back(r.U32());
  // Survivor list: the hypervisor restricts dealing to hosts that are
  // reachable and hold consistent shares.
  const std::uint32_t scount = r.Count(4);
  std::vector<std::uint32_t> available;
  available.reserve(scount + targets.size());
  for (std::uint32_t i = 0; i < scount; ++i) available.push_back(r.U32());
  // Optional trailing repair-mode section (after the survivor list): mode
  // byte 1 = reduced masking with a per-block point budget, so survivors
  // stripe their masked vectors instead of each shipping all blocks.
  // Absent means full masked vectors.
  const bool repair_section = !r.AtEnd();
  const std::uint8_t mode = repair_section ? r.U8() : 0;
  const std::uint32_t budget = repair_section ? r.U32() : 0;
  Require(r.AtEnd(), "StartRecovery: trailing bytes");
  Require(mode <= 1, "StartRecovery: unknown repair mode");

  // Targets are implicitly "available" for plan construction (they are
  // filtered out of the survivor set again inside For).
  available.insert(available.end(), targets.begin(), targets.end());
  const pss::RecoveryPlan plan = pss::RecoveryPlan::For(
      meta.num_blocks, cfg_.params, targets, available);
  std::size_t mask_budget = 0;
  if (mode == 1) {
    Require(budget >= cfg_.params.degree() + 1 &&
                budget <= plan.survivors.size(),
            "StartRecovery: repair budget out of range");
    if (budget < plan.survivors.size()) mask_budget = budget;
  }

  // Start-once per (file, seq): duplicated control messages are ignored.
  if (!started_.insert({meta.file_id, msg.epoch}).second) return;

  const bool i_am_target =
      std::find(targets.begin(), targets.end(), cfg_.id) != targets.end();
  if (i_am_target) {
    TargetSession s;
    s.meta = meta;
    s.plan = plan;
    s.mask_budget = mask_budget;
    target_[{meta.file_id, msg.epoch}] = std::move(s);
    ReplayPending();
    return;
  }

  const bool i_survive =
      std::find(plan.survivors.begin(), plan.survivors.end(), cfg_.id) !=
      plan.survivors.end();
  if (!i_survive) return;  // not in the dealing set this round

  // Survivor: one VSS round masks every target of the batch.
  VssSession s;
  std::vector<Bytes> deal;
  {
    ComputeSection section(metrics_.recover, obs::SpanKind::kRecoverDeal,
                           cfg_.id, meta.file_id);
    s.blocks = plan.blocks;
    s.targets = plan.targets;
    s.mask_budget = mask_budget;
    s.batch.emplace(pss::MakeRecoveryBatch(*shamir_, plan));
    deal = s.batch->Deal(rng_, section.extra());
  }
  StartVss({meta.file_id, msg.epoch}, std::move(s), std::move(deal));
  ReplayPending();
}

// ---------------------------------------------------------------------------
// The VSS round: deal, transform, open check rows, verdicts
// ---------------------------------------------------------------------------

namespace {

// Blocks each survivor masks and ships to a recovery target: a stripe of
// `mask_budget` points per block (reduced repair), or with budget 0 (full
// repair) every block from every survivor.
pss::StripeLayout MaskLayout(std::size_t survivors, std::size_t mask_budget) {
  return pss::StripeLayout(survivors,
                           mask_budget > 0 ? mask_budget : survivors);
}

// Holders whose dealing of a round never arrived.
std::vector<std::uint32_t> MissingDealers(const pss::VssBatch& batch,
                                          const std::vector<bool>& deal_seen) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < deal_seen.size(); ++i) {
    if (!deal_seen[i]) out.push_back(batch.holders()[i]);
  }
  return out;
}

// Per-holder CheckShare payloads of one row -> all groups well formed.
bool VerifyRow(const pss::VssBatch& batch, const std::vector<Bytes>& mat) {
  obs::Span span(obs::SpanKind::kVssVerify, mat.size(), batch.groups());
  std::vector<const std::uint8_t*> rows;
  for (const Bytes& row : mat) rows.push_back(row.data());
  return batch.VerifyCheckRows(rows);
}

}  // namespace

PhaseMetrics& Host::VssBucket(const VssSession& s) {
  return s.batch->recovery_shape() ? metrics_.recover : metrics_.rerandomize;
}

void Host::StartVss(FileSeq key, VssSession s, std::vector<Bytes> deal) {
  const auto [file_id, epoch] = key;
  const std::size_t dealers = s.batch->dealers();
  s.deals_by_dealer.resize(dealers);
  s.deal_seen.assign(dealers, false);
  VssSession& session = vss_.emplace(key, std::move(s)).first->second;

  const std::vector<std::uint32_t>& holders = session.batch->holders();
  for (std::size_t k = 0; k < dealers; ++k) {
    const std::uint32_t holder = holders[k];
    if (holder == cfg_.id) continue;
    if (byz_ != nullptr && byz_->WithholdSend()) continue;
    Message m;
    m.from = cfg_.id;
    m.to = holder;
    m.type = MsgType::kDeal;
    m.file_id = file_id;
    m.epoch = epoch;
    m.payload = keyring_.Seal(holder, deal[k]);
    SendMetered(std::move(m), VssBucket(session));
  }
  // Self-deal, delivered locally.
  const std::size_t my_idx = session.batch->IndexOf(cfg_.id);
  Invariant(my_idx != pss::VssBatch::npos, "holder not in own batch");
  session.deals_by_dealer[my_idx] = std::move(deal[my_idx]);
  session.deal_seen[my_idx] = true;
  session.deals += 1;
  if (session.deals == dealers) TransformAndCheck(key, session);
}

void Host::OnDealPlain(const Message& msg) {
  const FileSeq key{msg.file_id, msg.epoch};
  auto it = vss_.find(key);
  if (it == vss_.end()) {
    pending_.push_back(msg);
    return;
  }
  VssSession& s = it->second;
  // Kept as it came: Transform reads its limbs unchecked, so each element
  // must be below p.
  const std::size_t count = field::ValidateElems(*cfg_.ctx, msg.payload);
  const std::size_t idx = s.batch->IndexOf(msg.from);
  Require(idx != pss::VssBatch::npos, "OnDeal: dealer not a holder");
  Require(count == s.batch->groups(), "OnDeal: wrong group count");
  if (s.deal_seen[idx]) return;  // duplicate
  s.deals_by_dealer[idx] = msg.payload;
  s.deal_seen[idx] = true;
  s.deals += 1;
  if (s.deals == s.batch->dealers()) TransformAndCheck(key, s);
}

void Host::TransformAndCheck(FileSeq key, VssSession& s) {
  const auto [file_id, epoch] = key;
  const bool recovery = s.batch->recovery_shape();
  {
    ComputeSection section(VssBucket(s),
                           recovery ? obs::SpanKind::kRecoverTransform
                                    : obs::SpanKind::kRefreshTransform,
                           cfg_.id, file_id);
    s.outputs =
        s.batch->Transform(s.deals_by_dealer, cfg_.params.b, section.extra());
  }
  // A refresh keeps deals_by_dealer: if verification fails, the raw columns
  // are archived so the hypervisor can attribute the corrupt dealer.
  if (recovery) {
    s.deals_by_dealer.clear();
    s.deals_by_dealer.shrink_to_fit();
  }

  for (std::uint32_t a = 0; a < s.batch->check_rows(); ++a) {
    const std::uint32_t verifier = s.batch->VerifierOf(a);
    Message m;
    m.from = cfg_.id;
    m.to = verifier;
    m.type = MsgType::kCheckShare;
    m.file_id = file_id;
    m.epoch = epoch;
    m.row = a;
    if (verifier == cfg_.id) {
      m.payload = s.outputs[a];
      OnCheckSharePlain(m);
      // The local hand-off may have completed (and erased) this session.
      if (vss_.find(key) == vss_.end()) return;
    } else {
      m.payload = keyring_.Seal(verifier, s.outputs[a]);
      SendMetered(std::move(m), VssBucket(s));
    }
  }
}

void Host::OnCheckSharePlain(const Message& msg) {
  const FileSeq key{msg.file_id, msg.epoch};
  auto it = vss_.find(key);
  if (it == vss_.end()) {
    pending_.push_back(msg);
    return;
  }
  VssSession& s = it->second;
  const std::size_t count = field::ValidateElems(*cfg_.ctx, msg.payload);
  auto& mat = s.check_vals[msg.row];
  if (mat.empty()) mat.resize(s.batch->dealers());
  const std::size_t idx = s.batch->IndexOf(msg.from);
  Require(idx != pss::VssBatch::npos, "OnCheckShare: unknown holder");
  if (!mat[idx].empty()) return;  // duplicate
  Require(count == s.batch->groups(), "OnCheckShare: group mismatch");
  mat[idx] = msg.payload;
  s.check_counts[msg.row] += 1;
  if (s.check_counts[msg.row] == s.batch->dealers()) {
    MaybeVerifyRow(key, s, msg.row);
  }
}

void Host::MaybeVerifyRow(FileSeq key, VssSession& s, std::uint32_t row) {
  const auto [file_id, epoch] = key;
  bool ok;
  {
    ComputeSection section(VssBucket(s),
                           s.batch->recovery_shape()
                               ? obs::SpanKind::kRecoverVerify
                               : obs::SpanKind::kRefreshVerify,
                           cfg_.id, row);
    ok = VerifyRow(*s.batch, s.check_vals[row]);
  }
  s.check_vals.erase(row);
  if (!ok) {
    verdicts_rejected_ += 1;
    VssCheckFailures().Add(1);
    obs::Span span(obs::SpanKind::kByzDetect, cfg_.id, row);
  }

  // Deliver to every other holder first: our own verdict may complete (and
  // erase) the session, and peers still need this row's verdict.
  for (std::uint32_t holder : s.batch->holders()) {
    if (holder == cfg_.id) continue;
    Message m;
    m.from = cfg_.id;
    m.to = holder;
    m.type = MsgType::kVerdict;
    m.file_id = file_id;
    m.epoch = epoch;
    m.row = row;
    m.payload = Bytes{static_cast<std::uint8_t>(ok ? 1 : 0)};
    SendMetered(std::move(m), VssBucket(s));
  }
  AcceptVerdict(key, s, row, ok);
}

void Host::OnVerdictPlain(const Message& msg) {
  const FileSeq key{msg.file_id, msg.epoch};
  auto it = vss_.find(key);
  if (it == vss_.end()) {
    pending_.push_back(msg);
    return;
  }
  VssSession& s = it->second;
  // Only a row's verifier may judge it: a verdict from anyone else could fill
  // verdict_rows before this host has even transformed.
  Require(msg.row < s.batch->check_rows() &&
              msg.from == s.batch->VerifierOf(msg.row),
          "OnVerdict: sender is not the row's verifier");
  const bool ok = !msg.payload.empty() && msg.payload[0] == 1;
  AcceptVerdict(key, s, msg.row, ok);
}

void Host::AcceptVerdict(FileSeq key, VssSession& s, std::uint32_t row,
                         bool ok) {
  if (!ok) s.failed = true;
  s.verdict_rows.insert(row);
  if (s.verdict_rows.size() < s.batch->check_rows()) return;
  if (s.batch->recovery_shape()) {
    MaybeSendMaskedShares(key, s);
  } else {
    MaybeApplyRefresh(key, s);
  }
}

void Host::MaybeApplyRefresh(FileSeq key, VssSession& s) {
  if (s.done) return;
  s.done = true;
  const auto [file_id, epoch] = key;
  const bool ok = !s.failed;
  if (!ok) {
    // Archive the raw dealing columns: the hypervisor cross-references them
    // across hosts to attribute which dealer's polynomials were malformed.
    FailedRefresh fr;
    fr.deals_by_dealer = std::move(s.deals_by_dealer);
    fr.deal_seen = std::move(s.deal_seen);
    failed_refresh_[{file_id, epoch}] = std::move(fr);
  } else {
    ComputeSection section(metrics_.rerandomize, obs::SpanKind::kRefreshApply,
                           cfg_.id, file_id);
    const field::FpCtx& ctx = *cfg_.ctx;
    // Each new share overwrites the old one at rest: the proactive "delete
    // old shares" step. Usable row a_rel of group g refreshes block
    // g * usable + a_rel.
    const std::span<std::uint8_t> shares = store_.Writable(file_id);
    Require(shares.size() == s.blocks * ctx.elem_bytes(),
            "Refresh: stored block count changed during the round");
    const std::size_t base = s.batch->check_rows();
    const std::size_t usable = s.batch->usable_rows();
    for (std::size_t blk = 0; blk < s.blocks; ++blk) {
      const FpElem zero_share =
          field::ElemAt(ctx, s.outputs[base + blk % usable], blk / usable);
      ctx.ToBytes(ctx.Add(field::ElemAt(ctx, shares, blk), zero_share),
                  shares.data() + blk * ctx.elem_bytes());
    }
  }
  ReportPhaseDone(file_id, epoch, 0, ok, metrics_.rerandomize);
  vss_.erase(key);
}

// ---------------------------------------------------------------------------
// Recovery: masked shares to the target
// ---------------------------------------------------------------------------

void Host::MaybeSendMaskedShares(FileSeq key, VssSession& s) {
  if (s.done) return;
  s.done = true;
  const auto [file_id, epoch] = key;
  if (s.failed) {
    ReportPhaseDone(file_id, epoch, 1, false, metrics_.recover);
    vss_.erase(key);
    return;
  }

  // One masked vector per target; target j's masks are the groups of batch
  // segment j.
  std::vector<Bytes> sealed(s.targets.size());
  {
    ComputeSection section(metrics_.recover, obs::SpanKind::kRecoverMask,
                           cfg_.id, file_id);
    const field::FpCtx& ctx = *cfg_.ctx;
    const std::span<const std::uint8_t> shares = store_.AtRest(file_id);
    Require(shares.size() == s.blocks * ctx.elem_bytes(),
            "Recovery: stored block count differs from the plan");
    const std::size_t base = s.batch->check_rows();
    const std::size_t usable = s.batch->usable_rows();
    // Ship only the stripe this survivor's rank covers.
    const std::vector<std::size_t> blocks_to_send =
        MaskLayout(s.batch->dealers(), s.mask_budget)
            .BlocksFor(s.batch->IndexOf(cfg_.id), s.blocks);
    for (std::size_t j = 0; j < s.targets.size(); ++j) {
      const std::size_t first_group = j * s.batch->segment_groups();
      Bytes masked(blocks_to_send.size() * ctx.elem_bytes());
      for (std::size_t i = 0; i < blocks_to_send.size(); ++i) {
        const std::size_t blk = blocks_to_send[i];
        const FpElem mask = field::ElemAt(ctx, s.outputs[base + blk % usable],
                                          first_group + blk / usable);
        ctx.ToBytes(ctx.Add(field::ElemAt(ctx, shares, blk), mask),
                    masked.data() + i * ctx.elem_bytes());
      }
      // Wrong-share attack on recovery: the target's consistency check and
      // robust decode are responsible for catching this.
      if (byz_ != nullptr) byz_->TamperShares(masked);
      sealed[j] = keyring_.Seal(s.targets[j], masked);
    }
  }

  for (std::size_t j = 0; j < s.targets.size(); ++j) {
    if (byz_ != nullptr && byz_->WithholdSend()) continue;
    Message m;
    m.from = cfg_.id;
    m.to = s.targets[j];
    m.type = MsgType::kMaskedShare;
    m.file_id = file_id;
    m.epoch = epoch;
    m.row = s.targets[j];
    m.payload = std::move(sealed[j]);
    SendMetered(std::move(m), metrics_.recover);
  }
  vss_.erase(key);
}

void Host::OnMaskedSharePlain(const Message& msg) {
  auto it = target_.find({msg.file_id, msg.epoch});
  if (it == target_.end()) {
    pending_.push_back(msg);
    return;
  }
  TargetSession& s = it->second;
  std::size_t count;
  {
    ComputeSection section(metrics_.recover, obs::SpanKind::kRecoverMask,
                           cfg_.id, msg.from);
    count = field::ValidateElems(*cfg_.ctx, msg.payload);
  }
  const auto sender_it =
      std::find(s.plan.survivors.begin(), s.plan.survivors.end(), msg.from);
  Require(sender_it != s.plan.survivors.end(),
          "MaskedShare: sender is not a survivor");
  const std::size_t rank =
      static_cast<std::size_t>(sender_it - s.plan.survivors.begin());
  Require(count == MaskLayout(s.plan.survivors.size(), s.mask_budget)
                       .CountFor(rank, s.meta.num_blocks),
          "MaskedShare: wrong block count");
  if (!s.masked_by_sender.emplace(msg.from, msg.payload).second) return;
  if (s.masked_by_sender.size() == s.plan.survivors.size()) {
    MaybeFinishTarget(msg.file_id, msg.epoch, s);
    target_.erase({msg.file_id, msg.epoch});
  }
}

void Host::MaybeFinishTarget(std::uint64_t file_id, std::uint32_t seq,
                             TargetSession& s) {
  ComputeSection section(metrics_.recover, obs::SpanKind::kRecoverFinish,
                         cfg_.id, file_id);
  const field::FpCtx& ctx = *cfg_.ctx;
  const std::size_t d = cfg_.params.degree();
  const FpElem alpha_me = shamir_->points().alpha(cfg_.id);
  // Each survivor shipped its stripe, so each block interpolates from exactly
  // `budget` points. Blocks with the same residue mod |survivors| share a
  // sender set, hence one interpolation system (checker + weights + decode
  // radius) per residue class. Full repair is one class over every survivor.
  const std::size_t S = s.plan.survivors.size();
  const pss::StripeLayout layout = MaskLayout(S, s.mask_budget);
  const std::size_t budget = layout.need;
  const std::size_t classes =
      s.mask_budget > 0 ? std::min<std::size_t>(S, s.meta.num_blocks) : 1;
  std::vector<const Bytes*> rows(S, nullptr);
  for (std::size_t k = 0; k < S; ++k) {
    auto rit = s.masked_by_sender.find(s.plan.survivors[k]);
    Invariant(rit != s.masked_by_sender.end(),
              "MaybeFinishTarget: missing masked row");
    rows[k] = &rit->second;
  }
  struct ClassInterp {
    std::vector<std::uint32_t> ranks;
    std::vector<FpElem> xs;
    std::optional<math::PointChecker> checker;
    math::WeightRows at_me;  // one row: the interpolant at alpha_me
  };
  std::vector<ClassInterp> cls(classes);
  for (std::size_t rc = 0; rc < classes; ++rc) {
    cls[rc].ranks = layout.SendersFor(rc);
    for (std::uint32_t k : cls[rc].ranks) {
      cls[rc].xs.push_back(shamir_->points().alpha(s.plan.survivors[k]));
    }
    cls[rc].checker.emplace(ctx, cls[rc].xs, d);
    cls[rc].at_me = cls[rc].checker->WeightsAt({&alpha_me, 1});
  }
  // Unique-decoding radius of the masked-share code: the budget's slack over
  // d+1 leaves room for e wrong values per block. A corruption beyond it
  // fails the phase; the hypervisor retries (in full mode, or with a
  // survivor set that excludes the accused/stuck hosts).
  const std::size_t max_errors = budget > d + 1 ? (budget - d - 1) / 2 : 0;

  bool ok = true;
  std::set<std::uint32_t> accused_set;
  const std::size_t eb = ctx.elem_bytes();
  Bytes shares(s.meta.num_blocks * eb);
  std::vector<std::size_t> cursor(S, 0);
  std::vector<const std::uint8_t*> ys(budget);
  for (std::size_t blk = 0; blk < s.meta.num_blocks; ++blk) {
    const ClassInterp& c = cls[blk % classes];
    std::uint8_t* const share = shares.data() + blk * eb;
    for (std::size_t i = 0; i < c.ranks.size(); ++i) {
      ys[i] = rows[c.ranks[i]]->data() + cursor[c.ranks[i]]++ * eb;
    }
    // The masked polynomial f + q has degree <= d; inconsistency means a
    // corrupted survivor (caught here even though verification passed for
    // the masks, since the share component is unverified).
    if (c.checker->Consistent(ys)) {
      c.at_me.EvalInto(ctx, ys, {&share, 1});
      continue;
    }
    // Dispute path: decode through the wrong values with Berlekamp-Welch and
    // accuse the senders whose points the decoded polynomial rejects.
    RecoveryInconsistent().Add(1);
    obs::Span span(obs::SpanKind::kByzDetect, cfg_.id, blk);
    std::vector<FpElem> vals;
    for (const std::uint8_t* y : ys) vals.push_back(ctx.FromBytes({y, eb}));
    auto f = math::RobustInterpolate(ctx, c.xs, vals, d, max_errors);
    if (!f.has_value()) {
      ok = false;
      break;
    }
    std::vector<std::size_t> bad = math::Mismatches(ctx, *f, c.xs, vals);
    RecoverySharesCorrected().Add(bad.size());
    for (std::size_t b : bad) accused_set.insert(s.plan.survivors[c.ranks[b]]);
    ctx.ToBytes(f->Eval(ctx, alpha_me), share);
  }
  if (ok) store_.Put(s.meta, std::move(shares));
  std::vector<std::uint32_t> accused(accused_set.begin(), accused_set.end());
  ReportPhaseDone(file_id, seq, 1, ok, metrics_.recover, accused);
}

// ---------------------------------------------------------------------------
// Buffering / diagnostics
// ---------------------------------------------------------------------------

void Host::ReplayPending() {
  if (pending_.empty()) return;
  std::vector<Message> queue;
  queue.swap(pending_);
  for (const Message& m : queue) {
    // Buffered payloads are already plaintext. Each replayed message is
    // judged on its own: a malformed one must not drop those behind it.
    DropIfMalformed(cfg_.id, m, [&] {
      switch (m.type) {
        case MsgType::kDeal: OnDealPlain(m); break;
        case MsgType::kCheckShare: OnCheckSharePlain(m); break;
        case MsgType::kMaskedShare: OnMaskedSharePlain(m); break;
        case MsgType::kVerdict: OnVerdictPlain(m); break;
        default:
          LogWarn() << "host " << cfg_.id << ": unexpected buffered "
                    << m.Describe();
      }
    });
  }
}

std::vector<Host::StuckRefresh> Host::StuckRefreshSessions() const {
  std::vector<StuckRefresh> out;
  for (const auto& [key, s] : vss_) {
    if (s.batch->recovery_shape()) continue;
    StuckRefresh info;
    info.file_id = key.first;
    info.epoch = key.second;
    info.missing_dealers = MissingDealers(*s.batch, s.deal_seen);
    info.waiting_verdicts = info.missing_dealers.empty();
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<Host::StuckRecovery> Host::StuckRecoverySessions() const {
  std::vector<StuckRecovery> out;
  // A survivor's round serves every target of its batch; it is reported once
  // per target, so the hypervisor's per-(file, target) strike rule sees it.
  for (const auto& [key, s] : vss_) {
    for (std::uint32_t target : s.targets) {
      StuckRecovery info;
      info.file_id = key.first;
      info.epoch = key.second;
      info.target = target;
      info.missing_dealers = MissingDealers(*s.batch, s.deal_seen);
      out.push_back(std::move(info));
    }
  }
  for (const auto& [key, s] : target_) {
    StuckRecovery info;
    info.file_id = key.first;
    info.epoch = key.second;
    info.target = cfg_.id;
    for (std::uint32_t sv : s.plan.survivors) {
      if (s.masked_by_sender.count(sv) == 0) {
        info.missing_senders.push_back(sv);
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

std::optional<Host::FailedRefresh> Host::TakeFailedRefresh(
    std::uint64_t file_id, std::uint32_t epoch) {
  auto it = failed_refresh_.find({file_id, epoch});
  if (it == failed_refresh_.end()) return std::nullopt;
  FailedRefresh fr = std::move(it->second);
  failed_refresh_.erase(it);
  return fr;
}

std::vector<std::string> Host::AbortStuckSessions() {
  std::vector<std::string> out;
  auto describe = [&](const char* kind, std::uint64_t file,
                      std::uint32_t epoch, std::uint32_t extra) {
    std::ostringstream os;
    os << "host " << cfg_.id << ": stuck " << kind << " file=" << file
       << " epoch=" << epoch << " aux=" << extra;
    out.push_back(os.str());
  };
  // Every refresh round first, then every recovery round (once per target).
  for (const auto& [key, s] : vss_) {
    if (s.targets.empty()) describe("refresh", key.first, key.second, 0);
  }
  for (const auto& [key, s] : vss_) {
    for (std::uint32_t target : s.targets) {
      describe("recovery-survivor", key.first, key.second, target);
    }
  }
  for (const auto& [key, s] : target_) {
    describe("recovery-target", key.first, key.second, 0);
  }
  for (const auto& m : pending_) {
    describe("pending-msg", m.file_id, m.epoch, m.row);
  }
  metrics_.faults.timeouts_fired += vss_.size() + target_.size();
  vss_.clear();
  target_.clear();
  pending_.clear();
  return out;
}

bool Host::HasActiveSessions() const {
  return !vss_.empty() || !target_.empty();
}

std::optional<std::vector<Bytes>> Host::ComputeReshare(
    std::uint64_t file_id, const pss::ResharePublic& pub,
    std::size_t ordinal) {
  if (!online_ || !store_.Has(file_id)) return std::nullopt;
  if (byz_ != nullptr && byz_->WithholdSend()) return std::nullopt;
  ComputeSection section(metrics_.rerandomize, obs::SpanKind::kReshareFile,
                         cfg_.id, file_id);
  return pss::ReshareContribution(pub, ordinal, store_.AtRest(file_id), rng_,
                                  byz_);
}

void Host::AdoptParams(const pss::Params& params) {
  Require(!HasActiveSessions(),
          "Host::AdoptParams: refresh/recovery sessions still active");
  params.Validate();
  Require(params.l == cfg_.params.l,
          "Host::AdoptParams: packing must match (re-pack via the codec)");
  cfg_.params = params;
  shamir_ = std::make_shared<pss::PackedShamir>(cfg_.ctx, cfg_.params);
  // The old-scheme share state is obsolete the moment the fleet reshapes;
  // keeping it would hand a mobile adversary a second, stale sharing to
  // collect. Keys and channels survive: resharing rotates share state, not
  // identities.
  store_.WipeAll();
  pending_.clear();
  failed_refresh_.clear();
  started_.clear();
}

void Host::InstallShares(const FileMeta& meta, Bytes shares) {
  Require(online_, "Host::InstallShares: host is offline");
  Require(shares.size() == meta.num_blocks * cfg_.ctx->elem_bytes(),
          "Host::InstallShares: share count does not match meta");
  store_.Put(meta, std::move(shares));
}

}  // namespace pisces
