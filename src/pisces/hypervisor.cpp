#include "pisces/hypervisor.h"

#include <algorithm>

#include "common/log.h"
#include "math/weight_cache.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "pss/comm_efficient.h"

namespace pisces {

using field::FpElem;
using net::Message;
using net::MsgType;

namespace {

// Detection-side dispute counters (the matching action-side byz.* counters
// live in pisces/byzantine.cpp).
obs::Counter& DealersAttributed() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.dealers_attributed",
      "dealers attributed as corrupt from archived dealing columns");
  return c;
}
obs::Counter& SurvivorsSuspected() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.survivors_suspected",
      "survivors barred from recovery (accused by robust decode or "
      "repeatedly silent)");
  return c;
}

// Reshare migration counters (reshare.*): the no-reconstruction invariant is
// asserted against these plus the absence of kReconstructRequest wire bytes
// (net/net_obs.h) during a migration.
struct ReshareCounters {
  obs::Counter& migrations = obs::RegisterCounter(
      "reshare.migrations", "completed fleet migrations to a new group shape");
  obs::Counter& files = obs::RegisterCounter(
      "reshare.files", "files migrated to a new sharing without reconstruction");
  obs::Counter& contributions = obs::RegisterCounter(
      "reshare.contributions", "reshare sub-sharings received from contributors");
  obs::Counter& rejected = obs::RegisterCounter(
      "reshare.contributions_rejected",
      "reshare sub-sharings rejected by public verification");
  obs::Counter& withheld = obs::RegisterCounter(
      "reshare.contributions_withheld",
      "reshare sub-sharings withheld by silent contributors");
  obs::Counter& retries = obs::RegisterCounter(
      "reshare.retries", "per-file reshare rounds re-run with offenders excluded");
  obs::Counter& hosts_added = obs::RegisterCounter(
      "reshare.hosts_added", "fleet slots created or revived by a migration");
  obs::Counter& hosts_retired = obs::RegisterCounter(
      "reshare.hosts_retired", "fleet slots shut down by a shrink migration");
};

ReshareCounters& ReshareObs() {
  static ReshareCounters* c = new ReshareCounters();
  return *c;
}

// The strike step: two strikes bar a host. True only for a new bar.
bool Strike(std::map<std::uint32_t, std::uint32_t>& strikes,
            std::set<std::uint32_t>& barred, std::uint32_t id) {
  return ++strikes[id] >= 2 && barred.insert(id).second;
}

std::string Hosts(std::span<const std::uint32_t> ids) {
  std::string line = "hosts";
  for (std::uint32_t id : ids) line += " " + std::to_string(id);
  return line;
}

}  // namespace

Hypervisor::Hypervisor(HypervisorConfig cfg,
                       std::unique_ptr<FleetControl> fleet,
                       const crypto::SchnorrGroup& group)
    : cfg_(std::move(cfg)),
      fleet_(std::move(fleet)),
      rng_(cfg_.seed ^ 0x9D15CE5ULL),
      ca_(group, rng_) {
  cfg_.params.Validate();
  fleet_->Attach(ca_.public_key(), this);
  const std::size_t n = cfg_.params.n;
  for (std::uint32_t i = 0; i < n; ++i) peer_ids_.push_back(i);
  schedule_ = MakeSchedule(cfg_.schedule, n, cfg_.params.r, cfg_.seed ^ 0x5C4ED);

  BootBatch(peer_ids_);
  fleet_->Settle(0, {});
}

Hypervisor::~Hypervisor() = default;

std::vector<std::uint32_t> Hypervisor::BootBatch(
    std::span<const std::uint32_t> ids) {
  if (ids.empty()) return {};
  std::vector<crypto::HostCert> certs;
  std::vector<Bytes> sks;
  for (std::uint32_t id : ids) {
    auto [cert, sk] = ca_.IssueHostKey(id, ++boot_epoch_, rng_);
    directory_[id] = cert;
    certs.push_back(std::move(cert));
    sks.push_back(std::move(sk));
  }
  const crypto::CertSnapshot snap =
      ca_.IssueSnapshot(directory_, std::move(certs), rng_);
  std::vector<std::uint32_t> booted;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t id = ids[i];
    // A host that never acked is still the old image: its record stands.
    if (!fleet_->Boot(id, std::move(sks[i]), directory_, snap)) continue;
    // The fresh image is trusted again: wipe its exclusion record.
    excluded_.erase(id);
    dealer_strikes_.erase(id);
    suspects_.erase(id);
    suspect_strikes_.erase(id);
    booted.push_back(id);
  }
  Publish(snap, ids);
  return booted;
}

void Hypervisor::Publish(const crypto::CertSnapshot& snap,
                         std::span<const std::uint32_t> skip) {
  std::vector<std::uint32_t> to;
  for (std::uint32_t id : peer_ids_) {
    if (std::find(skip.begin(), skip.end(), id) == skip.end()) to.push_back(id);
  }
  if (!to.empty()) fleet_->Publish(snap, to);
}

std::map<std::uint32_t, std::vector<std::uint64_t>> Hypervisor::Survey() {
  fleet_->BeginOperation();
  std::map<std::uint32_t, std::vector<std::uint64_t>> view;
  for (std::uint32_t id : ReachableHosts()) {
    view.emplace(id, fleet_->HeldFiles(id));
  }
  return view;
}

std::pair<Bytes, crypto::CertSnapshot> Hypervisor::EnrollExternal(
    std::uint32_t id) {
  auto [cert, sk] = ca_.IssueHostKey(id, 0, rng_);
  directory_[id] = cert;
  crypto::CertSnapshot snap = ca_.IssueSnapshot(directory_, {cert}, rng_);
  const std::uint32_t self[] = {id};
  Publish(snap, self);
  if (std::find(peer_ids_.begin(), peer_ids_.end(), id) == peer_ids_.end()) {
    peer_ids_.push_back(id);
  }
  fleet_->Settle(0, {});  // every host holds the cert before it is used
  return {std::move(sk), std::move(snap)};
}

std::vector<std::uint64_t> Hypervisor::AllFileIds() const {
  std::vector<std::uint64_t> ids;
  for (std::uint32_t h = 0; h < fleet_->slots(); ++h) {
    if (!fleet_->Online(h)) continue;
    for (std::uint64_t id : fleet_->HeldFiles(h)) {
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::uint32_t> Hypervisor::ReachableHosts() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < fleet_->slots(); ++i) {
    if (fleet_->Reachable(i)) out.push_back(i);
  }
  return out;
}

std::vector<std::uint32_t> Hypervisor::Survivors(
    std::uint64_t file, std::span<const std::uint32_t> skip) const {
  // Reachable, consistent (not stale) holders outside `skip`. Suspects never
  // serve: a robust decode convicted their contribution, or they withheld
  // it. Excluded hosts are a reserve: exclusion distrusts their *dealing*,
  // but the target verifies a recovery contribution, and without them
  // strike-exclusions plus stale hosts could starve recovery forever.
  std::vector<std::uint32_t> survivors;
  std::vector<std::uint32_t> reserve;
  for (std::uint32_t id : ReachableHosts()) {
    if (stale_.count(id) != 0 || suspects_.count(id) != 0 ||
        std::find(skip.begin(), skip.end(), id) != skip.end() ||
        fleet_->Held(id, file) == nullptr) {
      continue;
    }
    (excluded_.count(id) != 0 ? reserve : survivors).push_back(id);
  }
  for (std::uint32_t id : reserve) {
    if (survivors.size() >= cfg_.params.quorum()) break;
    survivors.push_back(id);
  }
  return survivors;
}

bool Hypervisor::AuditLost(std::span<const std::uint64_t> held,
                           std::vector<std::string>& lines) const {
  bool lost = false;
  for (std::uint64_t f : catalog_) {
    if (std::find(held.begin(), held.end(), f) != held.end()) continue;
    lines.push_back("file " + std::to_string(f) +
                    " lost: no booted host holds a share");
    lost = true;
  }
  return lost;
}

std::set<std::uint32_t> Hypervisor::SilentHosts(std::uint32_t seq) {
  // Snapshot the wedged sessions (refresh keyed by file, recovery by (file,
  // target)). A host is silent when missing from more than half of one
  // key's sessions: one lost message blames the link, not the host (random
  // loss would otherwise strike out the whole fleet within two attempts).
  using Key = std::pair<std::uint64_t, std::uint32_t>;
  std::map<Key, std::size_t> wedged;
  std::map<Key, std::map<std::uint32_t, std::size_t>> missing_at;
  for (std::uint32_t h = 0; h < fleet_->slots(); ++h) {
    for (const auto& stuck : fleet_->StuckRefresh(h)) {
      if (stuck.epoch != seq) continue;
      const Key key{stuck.file_id, 0};
      wedged[key] += 1;
      for (std::uint32_t id : stuck.missing_dealers) missing_at[key][id]++;
    }
    for (const auto& stuck : fleet_->StuckRecovery(h)) {
      if (stuck.epoch != seq) continue;
      const Key key{stuck.file_id, stuck.target};
      wedged[key] += 1;
      for (std::uint32_t id : stuck.missing_dealers) missing_at[key][id]++;
      for (std::uint32_t id : stuck.missing_senders) missing_at[key][id]++;
    }
  }
  std::set<std::uint32_t> silent;
  for (const auto& [key, counts] : missing_at) {
    for (const auto& [id, cnt] : counts) {
      if (cnt * 2 > wedged[key]) silent.insert(id);
    }
  }
  return silent;
}

std::set<std::uint32_t> Hypervisor::AttributeCorruptDealers(
    std::uint32_t seq,
    const std::map<std::uint64_t, std::vector<std::uint32_t>>& parts_by_file) {
  std::set<std::uint32_t> corrupt;
  const field::FpCtx& ctx = *cfg_.ctx;
  const pss::PackedShamir shamir(cfg_.ctx, cfg_.params);
  const std::size_t d = cfg_.params.degree();

  for (const auto& [file, parts] : parts_by_file) {
    // Drain every participant's archived dealing columns for this round.
    std::map<std::uint32_t, Host::FailedRefresh> archives;
    for (std::uint32_t id : parts) {
      if (auto fr = fleet_->TakeFailedRefresh(id, file, seq)) {
        archives.emplace(id, std::move(*fr));
      }
    }
    if (archives.empty()) continue;
    // Column i of every archive came from the i-th participant named in the
    // round's kStartRefresh, i.e. parts[i].
    const std::vector<std::uint32_t>& dealers = parts;

    // A dealer's column across holder evaluation points must be a
    // degree-<=d polynomial vanishing on every beta; an honest holder's
    // archive is its received value at its own alpha, so with >= d+2
    // independent points any fabricated dealing is caught.
    for (std::size_t i = 0; i < dealers.size(); ++i) {
      std::vector<FpElem> xs;
      std::vector<const Bytes*> cols;
      for (const auto& [holder, fr] : archives) {
        if (i < fr.deal_seen.size() && fr.deal_seen[i] &&
            !fr.deals_by_dealer[i].empty()) {
          xs.push_back(shamir.points().alpha(holder));
          cols.push_back(&fr.deals_by_dealer[i]);
        }
      }
      if (xs.size() < d + 2) continue;  // not enough evidence to judge
      math::PointChecker checker(ctx, xs, d);
      const math::WeightRows at_betas =
          checker.WeightsAt(shamir.points().betas());
      const std::size_t eb = ctx.elem_bytes();
      const std::size_t groups = cols.front()->size() / eb;
      std::vector<const std::uint8_t*> ys(xs.size());
      bool bad = false;
      for (std::size_t g = 0; g < groups && !bad; ++g) {
        for (std::size_t k = 0; k < cols.size() && !bad; ++k) {
          if (g < cols[k]->size() / eb) {
            ys[k] = cols[k]->data() + g * eb;
          } else {
            bad = true;
          }
        }
        bad = bad || !checker.Consistent(ys) || !at_betas.Vanishes(ctx, ys);
      }
      if (bad && corrupt.insert(dealers[i]).second) {
        DealersAttributed().Add(1);
        obs::Span span(obs::SpanKind::kByzDetect, dealers[i], file);
      }
    }
  }
  return corrupt;
}

bool Hypervisor::RefreshAllFiles(WindowReport* report) {
  fleet_->BeginOperation();
  return RefreshFilesInternal(AllFileIds(), /*audit_catalog=*/true, report);
}

bool Hypervisor::RefreshFiles(std::span<const std::uint64_t> file_ids,
                              WindowReport* report) {
  // Subset refresh (the serving plane's batch scheduler): only the named
  // files are launched, and the fleet-wide loss audit is skipped.
  fleet_->BeginOperation();
  return RefreshFilesInternal(
      std::vector<std::uint64_t>(file_ids.begin(), file_ids.end()),
      /*audit_catalog=*/false, report);
}

bool Hypervisor::RefreshFilesInternal(std::vector<std::uint64_t> files,
                                      bool audit_catalog,
                                      WindowReport* report) {
  const HostMetrics before = fleet_->Metrics();
  catalog_.insert(files.begin(), files.end());

  std::vector<std::string> failures;  // non-retryable ones, until the end
  if (audit_catalog) AuditLost(files, failures);
  if (files.empty() && failures.empty()) return true;

  const std::size_t n = cfg_.params.n;
  const std::size_t max_attempts = cfg_.params.t + 2;

  std::vector<std::uint64_t> todo = files;
  // file -> hosts holding the post-refresh sharing.
  std::map<std::uint64_t, std::set<std::uint32_t>> fresh_for;
  std::vector<std::string> last_failures;  // diagnostics of the last attempt
  std::uint64_t sweeps = 0;

  for (std::size_t attempt = 0; !todo.empty() && attempt < max_attempts;
       ++attempt) {
    std::vector<std::uint32_t> base;
    for (std::uint32_t id : ReachableHosts()) {
      if (excluded_.count(id) == 0) base.push_back(id);
    }
    if (n - base.size() > cfg_.params.t) {
      // Corruption bound exceeded: completing the round could hand control
      // of the sharing to the adversary, so the window aborts atomically.
      failures.push_back("refresh aborted: " +
                         std::to_string(n - base.size()) +
                         " dealers unavailable or excluded exceeds bound t=" +
                         std::to_string(cfg_.params.t));
      break;
    }
    if (attempt > 0 && report != nullptr) report->refresh_retries += 1;

    Round round(*this);
    const std::uint32_t seq = ++op_seq_;
    // One span per refresh attempt over the still-pending files; the message
    // pump below runs every host's dealing/transform/verify under it.
    obs::Span session_span(obs::SpanKind::kRefreshSession, seq, todo.size());

    // Launch one session per pending file among the holders that are
    // reachable and not excluded.
    std::map<std::uint64_t, std::vector<std::uint32_t>> parts_by_file;
    std::vector<std::uint64_t> launched;
    Completions expect;
    for (std::uint64_t f : todo) {
      std::vector<std::uint32_t> parts;
      for (std::uint32_t id : base) {
        if (fleet_->Held(id, f)) parts.push_back(id);
      }
      if (parts.size() < cfg_.params.quorum()) {
        failures.push_back("file " + std::to_string(f) +
                           ": not enough holders to rerandomize");
        continue;
      }
      ByteWriter w;
      w.U32(static_cast<std::uint32_t>(parts.size()));
      for (std::uint32_t id : parts) w.U32(id);
      const Bytes payload = w.Take();
      for (std::uint32_t id : parts) {
        Message m;
        m.from = net::kHypervisorId;
        m.to = id;
        m.type = MsgType::kStartRefresh;
        m.file_id = f;
        m.epoch = seq;
        m.payload = payload;
        fleet_->Send(std::move(m));
        expect.emplace(id, f);
      }
      parts_by_file.emplace(f, std::move(parts));
      launched.push_back(f);
    }
    if (launched.empty()) {
      todo.clear();
      break;
    }
    sweeps += fleet_->Settle(seq, expect);

    // Classify each file's outcome from the phase reports of this round.
    std::map<std::uint64_t, std::set<std::uint32_t>> ok_by_file;
    for (const PhaseReport& pr : round.reports) {
      if (pr.kind != 0 || pr.seq != seq) continue;
      if (pr.ok) ok_by_file[pr.file].insert(pr.host);
    }
    // Bounded-delay timeout: find the silent dealers before aborting the
    // wedged sessions fleet-wide.
    const std::set<std::uint32_t> silent = SilentHosts(seq);
    fleet_->AbortStuck(round.lines);

    std::vector<std::uint64_t> next_todo;
    for (std::uint64_t f : launched) {
      // Partial apply: the okset committed the new sharing, the rest of the
      // holders resync through recovery (a re-run would corrupt the file).
      const std::set<std::uint32_t>& okset = ok_by_file[f];
      if (okset.empty()) {
        next_todo.push_back(f);  // nobody applied: safe to retry
      } else {
        fresh_for[f] = okset;
      }
    }

    // Exclusion: provably corrupt dealers first, then repeat silent ones.
    for (std::uint32_t dealer : AttributeCorruptDealers(seq, parts_by_file)) {
      excluded_.insert(dealer);
      round.lines.push_back("dealer " + std::to_string(dealer) +
                            " excluded: inconsistent dealing");
    }
    for (std::uint32_t dealer : silent) {
      if (!fleet_->Reachable(dealer)) continue;  // crash: availability
      if (Strike(dealer_strikes_, excluded_, dealer)) {
        round.lines.push_back("dealer " + std::to_string(dealer) +
                              " excluded: dealings repeatedly missing");
      }
    }
    last_failures = std::move(round.lines);
    todo = std::move(next_todo);
  }

  bool ok = todo.empty() && failures.empty();

  // Staleness bookkeeping: holders outside a file's fresh set still carry
  // the pre-refresh polynomial and must not serve as recovery survivors.
  std::set<std::uint32_t> stale_now;
  for (const auto& [f, fresh] : fresh_for) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (fleet_->Held(i, f) && fresh.count(i) == 0) stale_now.insert(i);
    }
  }
  stale_.insert(stale_now.begin(), stale_now.end());

  if (!ok) {
    failures.insert(failures.end(), last_failures.begin(),
                    last_failures.end());
  }
  for (std::uint64_t f : todo) {
    failures.push_back("file " + std::to_string(f) +
                       ": no refresh round completed");
  }

  // Resync reachable stale hosts now; crashed ones keep the mark until their
  // reboot-and-recover heals them.
  std::vector<std::uint32_t> resync;
  for (std::uint32_t id : stale_now) {
    if (fleet_->Reachable(id)) resync.push_back(id);
  }
  if (!RunRecovery(std::move(resync), report, failures)) ok = false;

  if (report != nullptr) {
    report->sweeps_refresh += sweeps;
    report->files_refreshed += files.size();
    Account(before, &HostMetrics::rerandomize, report->rerandomize_total, ok,
            failures, *report);
  }
  return ok;
}

void Hypervisor::Account(const HostMetrics& before,
                         PhaseMetrics HostMetrics::*phase, PhaseMetrics& total,
                         bool ok, const std::vector<std::string>& failures,
                         WindowReport& report) {
  const HostMetrics after = fleet_->Metrics();
  total.cpu_ns += (after.*phase).cpu_ns - (before.*phase).cpu_ns;
  total.wall_ns += (after.*phase).wall_ns - (before.*phase).wall_ns;
  total.bytes_sent += (after.*phase).bytes_sent - (before.*phase).bytes_sent;
  total.msgs_sent += (after.*phase).msgs_sent - (before.*phase).msgs_sent;
  report.deals_excluded +=
      after.faults.deals_excluded - before.faults.deals_excluded;
  report.timeouts_fired +=
      after.faults.timeouts_fired - before.faults.timeouts_fired;
  report.failures.insert(report.failures.end(), failures.begin(),
                         failures.end());
  report.ok = report.ok && ok;
}

bool Hypervisor::RunRecovery(std::vector<std::uint32_t> targets,
                             WindowReport* report,
                             std::vector<std::string>& failures) {
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  if (targets.empty()) return true;

  const std::size_t max_attempts = cfg_.params.t + 2;
  bool all_ok = true;

  for (std::size_t pos = 0; pos < targets.size(); pos += cfg_.params.r) {
    const std::size_t end = std::min(pos + cfg_.params.r, targets.size());
    const std::vector<std::uint32_t> chunk(targets.begin() + pos,
                                           targets.begin() + end);
    bool chunk_ok = false;
    for (std::size_t attempt = 0; attempt < max_attempts && !chunk_ok;
         ++attempt) {
      if (attempt > 0 && report != nullptr) report->recovery_retries += 1;
      Round round(*this);

      const std::uint32_t seq = ++op_seq_;
      // One span per recovery attempt of this target chunk; the pump runs
      // every survivor/target session under it.
      obs::Span batch_span(obs::SpanKind::kRecoveryBatch, seq, chunk.size());
      std::vector<std::uint64_t> launched;
      Completions expect;
      const std::vector<std::uint64_t> stored = AllFileIds();
      catalog_.insert(stored.begin(), stored.end());
      bool quorum_fatal = AuditLost(stored, round.lines);
      for (std::uint64_t f : stored) {
        const std::vector<std::uint32_t> survivors = Survivors(f, chunk);
        if (survivors.size() < cfg_.params.quorum()) {
          round.lines.push_back("file " + std::to_string(f) +
                                ": not enough fresh survivors for recovery");
          quorum_fatal = true;
          continue;
        }
        const FileMeta meta = *fleet_->Held(survivors.front(), f);
        // Reduced repair (cfg_.repair): with fallback kClassic only the
        // first attempt ships stripes; a failed attempt (corruption beyond
        // the reduced decode radius, or a wedged session) retries with full
        // masked vectors, byte-identical to the legacy format.
        const bool want_reduced =
            cfg_.repair.path == ReadPath::kStaircase &&
            (attempt == 0 || cfg_.repair.fallback == ReadFallback::kFail);
        std::size_t budget = 0;
        if (want_reduced) {
          budget = cfg_.repair.contacts != 0
                       ? std::min<std::size_t>(cfg_.repair.contacts,
                                               survivors.size())
                       : pss::DefaultRecoveryBudget(cfg_.params,
                                                    survivors.size());
          // A budget below degree+1 or covering every survivor is not a
          // reduction; fall back to the classic full-vector format.
          if (budget < cfg_.params.degree() + 1 || budget >= survivors.size())
            budget = 0;
        }
        Message proto;
        proto.from = net::kHypervisorId;
        proto.type = MsgType::kStartRecovery;
        proto.epoch = seq;
        proto.file_id = f;
        ByteWriter w;
        w.Blob(meta.Serialize());
        w.U32(static_cast<std::uint32_t>(chunk.size()));
        for (std::uint32_t id : chunk) w.U32(id);
        w.U32(static_cast<std::uint32_t>(survivors.size()));
        for (std::uint32_t id : survivors) w.U32(id);
        if (budget != 0) {
          // Optional trailing repair-mode section (Host::OnStartRecovery).
          w.U8(1);
          w.U32(static_cast<std::uint32_t>(budget));
        }
        proto.payload = w.Take();
        for (std::uint32_t id : survivors) {
          Message m = proto;
          m.to = id;
          fleet_->Send(std::move(m));
        }
        for (std::uint32_t id : chunk) {
          Message m = proto;
          m.to = id;
          fleet_->Send(std::move(m));
          expect.emplace(id, f);
        }
        launched.push_back(f);
      }
      const std::uint64_t sweeps = fleet_->Settle(seq, expect);
      if (report != nullptr) report->sweeps_recovery += sweeps;

      bool bad = quorum_fatal;
      for (const PhaseReport& pr : round.reports) {
        if (pr.kind == 1 && pr.seq == seq && !pr.ok) bad = true;
      }
      for (std::uint32_t id : chunk) {
        for (std::uint64_t f : launched) {
          if (!fleet_->Held(id, f)) {
            round.lines.push_back("host " + std::to_string(id) +
                                  " missing file after recovery");
            bad = true;
          }
        }
      }
      // Sessions still active at quiescence are wedged (bounded-delay
      // timeout). Judge only live sessions: stale pending buffers from a
      // previous attempt are cleaned below but say nothing about this one.
      for (std::uint32_t id = 0; id < fleet_->slots() && !bad; ++id) {
        bad = fleet_->HasActiveSessions(id);
      }
      // A silent survivor -- its dealing or masked share missing -- earns a
      // strike, as a silent refresh dealer does; two mark it suspect.
      for (std::uint32_t id : SilentHosts(seq)) {
        if (!fleet_->Reachable(id)) continue;  // crash: availability
        if (!Strike(suspect_strikes_, suspects_, id)) continue;
        SurvivorsSuspected().Add(1);
        obs::Span span(obs::SpanKind::kByzDetect, id, seq);
        round.lines.push_back(
            "host " + std::to_string(id) +
            " suspected: recovery traffic repeatedly missing");
      }
      fleet_->AbortStuck(round.lines);

      if (!bad) {
        chunk_ok = true;
        for (std::uint32_t id : chunk) stale_.erase(id);
      } else if (quorum_fatal || attempt + 1 == max_attempts) {
        failures.insert(failures.end(), round.lines.begin(),
                        round.lines.end());
        if (quorum_fatal) break;  // a shortage no retry can mend
      }
    }
    if (!chunk_ok) {
      all_ok = false;
      failures.push_back(Hosts(chunk) + ": recovery did not complete");
    }
  }
  return all_ok;
}

bool Hypervisor::BatchSafeToReboot(
    std::span<const std::uint32_t> batch) const {
  // Below the quorum, wiping the batch would destroy the last consistent
  // copies of a file an outage already degraded.
  for (std::uint64_t f : AllFileIds()) {
    if (Survivors(f, batch).size() < cfg_.params.quorum()) return false;
  }
  return true;
}

bool Hypervisor::RebootAndRecover(std::span<const std::uint32_t> batch,
                                  WindowReport* report) {
  const HostMetrics before = fleet_->Metrics();

  // Secure disassociation: kill the batch. Until recovery completes the
  // rebooted stores are empty, so the batch is stale by definition.
  for (std::uint32_t id : batch) {
    fleet_->Halt(id);
    stale_.insert(id);
  }
  // Fresh keys + the batch's signed snapshot to every other endpoint. A host
  // that never acknowledges its boot (a dead process) stays stale until a
  // later reboot succeeds.
  const std::vector<std::uint32_t> booted = BootBatch(batch);
  const std::uint64_t boot_sweeps = fleet_->Settle(0, {});

  std::vector<std::string> failures;
  bool ok = RunRecovery(booted, report, failures);
  for (std::uint32_t id : batch) {
    if (std::find(booted.begin(), booted.end(), id) != booted.end()) continue;
    failures.push_back("host " + std::to_string(id) +
                       " did not acknowledge its boot");
    ok = false;
  }

  if (report != nullptr) {
    report->sweeps_recovery += boot_sweeps;
    report->reboots += booted.size();
    Account(before, &HostMetrics::recover, report->recover_total, ok,
            failures, *report);
  }
  return ok;
}

WindowReport Hypervisor::RunUpdateWindow() {
  // Root trace span of the whole update window; every refresh session,
  // recovery batch, and host compute section below nests under it, and its
  // ordinal tags all contained events for the per-window flame summary.
  obs::Span window_span(obs::SpanKind::kWindow, window_);
  WindowReport report;
  RefreshAllFiles(&report);
  for (const auto& batch : schedule_->BatchesForWindow(window_)) {
    if (!BatchSafeToReboot(batch)) {
      // Proactivity yields to durability: skip this batch rather than wipe
      // hosts a degraded fleet cannot re-provision. The schedule revisits
      // every host, so the reboot happens once recovery has healed enough
      // holders; until then the window is reported as incomplete.
      report.failures.push_back("reboot deferred (recovery quorum at risk): " +
                                Hosts(batch));
      report.reboots_deferred += batch.size();
      report.ok = false;
      continue;
    }
    RebootAndRecover(batch, &report);
  }
  ++window_;
  return report;
}

bool Hypervisor::Reshare(const pss::Params& to, ReshareReport* report) {
  to.Validate();
  Require(to.l == cfg_.params.l,
          "Hypervisor::Reshare: packing must match (re-pack via the codec)");
  Require(to.field_bits == cfg_.params.field_bits,
          "Hypervisor::Reshare: field must match");
  const pss::Params from = cfg_.params;
  ReshareReport local;
  ReshareReport& rep = report != nullptr ? *report : local;
  obs::Span span(obs::SpanKind::kReshare, window_, to.n);

  auto* sim = dynamic_cast<SimFleet*>(fleet_.get());
  if (sim == nullptr) {
    rep.ok = false;
    rep.failures.push_back(
        "reshare: live resharing runs only on an in-process fleet");
    return false;
  }
  const pss::PackedShamir from_scheme(cfg_.ctx, from);
  pss::PackedShamir to_scheme(cfg_.ctx, to);
  const std::size_t d_old = from.degree();

  // Phase 1: per file, gather d_old+1 publicly verified contributions and
  // sum them into the new sharing. Nothing in the fleet mutates until every
  // file has a complete new sharing, so a failed migration leaves the old
  // group serving untouched.
  const std::vector<std::uint64_t> files = AllFileIds();
  if (AuditLost(files, rep.failures)) rep.ok = false;
  if (!rep.ok) return false;

  std::map<std::uint64_t, std::vector<Bytes>> new_shares;
  std::map<std::uint64_t, FileMeta> metas;
  const std::size_t max_attempts = from.t + 2;
  for (std::uint64_t file : files) {
    const FileMeta* meta = nullptr;
    for (std::uint32_t h = 0; h < fleet_->slots() && !meta; ++h) {
      if (fleet_->Online(h)) meta = fleet_->Held(h, file);
    }
    if (meta == nullptr) {
      rep.failures.push_back("reshare: file " + std::to_string(file) +
                             " has no readable meta");
      rep.ok = false;
      continue;
    }
    bool migrated = false;
    for (std::size_t attempt = 0; attempt < max_attempts && !migrated;
         ++attempt) {
      obs::Span round(obs::SpanKind::kReshareFile, file, attempt);
      // Contributors: fresh (non-stale), non-excluded holders of the current
      // sharing, ascending -- deterministic given the exclusion state.
      std::vector<std::uint32_t> holders;
      for (std::uint32_t i : ReachableHosts()) {
        if (excluded_.count(i) != 0 || stale_.count(i) != 0) continue;
        if (fleet_->Held(i, file)) holders.push_back(i);
      }
      if (holders.size() < d_old + 1) break;
      holders.resize(d_old + 1);
      pss::ResharePublic pub =
          pss::MakeResharePublic(from_scheme, to_scheme, holders);

      std::vector<Bytes> acc;
      bool round_ok = true;
      for (std::size_t ordinal = 0; ordinal < holders.size(); ++ordinal) {
        const std::uint32_t c = holders[ordinal];
        auto contribution =
            sim->host(c).ComputeReshare(file, pub, ordinal);
        rep.contributions += 1;
        ReshareObs().contributions.Add(1);
        if (!contribution.has_value()) {
          // Silent contributor: same two-strike rule as refresh dealers.
          rep.contributions_withheld += 1;
          ReshareObs().withheld.Add(1);
          if (Strike(dealer_strikes_, excluded_, c)) {
            rep.failures.push_back("host " + std::to_string(c) +
                                   " excluded: silent reshare contributor");
          }
          round_ok = false;
          continue;
        }
        if (!pss::VerifyReshareContribution(pub, ordinal, *contribution)) {
          // Provably corrupt sub-sharing: exclude immediately, like a dealer
          // whose archived dealing column fails attribution.
          rep.contributions_rejected += 1;
          ReshareObs().rejected.Add(1);
          obs::Span detect(obs::SpanKind::kByzDetect, c, file);
          excluded_.insert(c);
          rep.failures.push_back(
              "host " + std::to_string(c) +
              " excluded: corrupt reshare contribution (file " +
              std::to_string(file) + ")");
          round_ok = false;
          continue;
        }
        if (round_ok) pss::AccumulateReshare(*cfg_.ctx, acc, *contribution);
      }
      if (!round_ok) {
        rep.retries += 1;
        ReshareObs().retries.Add(1);
        continue;
      }
      new_shares[file] = std::move(acc);
      metas[file] = *meta;
      migrated = true;
    }
    if (!migrated) {
      rep.failures.push_back("reshare: file " + std::to_string(file) +
                             " could not gather " + std::to_string(d_old + 1) +
                             " verified contributions");
      rep.ok = false;
    }
  }
  if (!rep.ok) return false;

  // Phase 2: reshape the fleet. Surviving slots wipe-and-adopt the new
  // scheme; grown slots boot fresh (reviving parked slots from an earlier
  // shrink); every slot < n' that is offline -- crashed, parked, or spot-
  // killed -- is re-provisioned with a fresh boot. Shrunk slots shut down
  // and park for a later grow.
  const std::size_t n_old = from.n;
  cfg_.params = to;
  for (std::uint32_t i = fleet_->slots(); i < to.n; ++i) peer_ids_.push_back(i);
  sim->AddSlots(to);
  std::vector<std::uint32_t> revived;
  for (std::uint32_t i = 0; i < to.n; ++i) {
    sim->host(i).AdoptParams(to);
    if (!fleet_->Reachable(i)) revived.push_back(i);
  }
  BootBatch(revived);
  rep.hosts_added += revived.size();
  ReshareObs().hosts_added.Add(revived.size());
  for (std::uint32_t i = to.n; i < n_old && i < fleet_->slots(); ++i) {
    if (!fleet_->Online(i)) continue;
    fleet_->Halt(i);
    rep.hosts_retired += 1;
    ReshareObs().hosts_retired.Add(1);
  }
  schedule_ = MakeSchedule(cfg_.schedule, to.n, to.r, cfg_.seed ^ 0x5C4ED);
  // Every slot is about to receive the fresh sharing: nobody is stale.
  stale_.clear();
  fleet_->Settle(0, {});  // deliver the boot batch's cert snapshot

  // Phase 3: install the new sharings (privileged re-provisioning, the same
  // control channel BootBatch uses).
  for (const auto& [file, shares] : new_shares) {
    for (std::uint32_t rho = 0; rho < to.n; ++rho) {
      sim->host(rho).InstallShares(metas.at(file), shares[rho]);
    }
    rep.files += 1;
    ReshareObs().files.Add(1);
  }
  ReshareObs().migrations.Add(1);
  return rep.ok;
}

void Hypervisor::HandleMessage(const Message& msg) {
  if (msg.type != MsgType::kPhaseDone) {
    LogWarn() << "hypervisor: unexpected " << msg.Describe();
    return;
  }
  const bool ok = !msg.payload.empty() && msg.payload[0] == 1;
  // Recovery targets append the survivor ids their robust decode convicted
  // of serving wrong masked shares (Host::ReportPhaseDone); honest reports
  // keep the legacy one-byte payload.
  std::vector<std::uint32_t> accused;
  if (msg.row == 1 && msg.payload.size() > 1) {
    try {
      ByteReader r(msg.payload);
      r.U8();  // ok byte, already read above
      const std::uint32_t count = r.Count(4);
      for (std::uint32_t i = 0; i < count; ++i) accused.push_back(r.U32());
      if (!r.AtEnd()) throw ParseError("accusation list: trailing bytes");
    } catch (const ParseError&) {
      LogWarn() << "hypervisor: dropping malformed accusation list from host "
                << msg.from;
      return;
    }
  }
  // An accusation comes from one (possibly lying) host, so its effect is
  // bounded: the suspect only loses its survivor role until its next reboot
  // re-establishes trust.
  for (std::uint32_t id : accused) {
    if (id >= fleet_->slots() || id == msg.from) continue;
    if (!suspects_.insert(id).second) continue;
    SurvivorsSuspected().Add(1);
    obs::Span span(obs::SpanKind::kByzDetect, id, msg.from);
    if (round_ == nullptr) continue;
    round_->lines.push_back("host " + std::to_string(id) +
                            " suspected: wrong masked shares (accused by "
                            "target " + std::to_string(msg.from) + ")");
  }
  // A report that arrives between rounds belongs to none.
  if (round_ == nullptr) return;
  round_->reports.push_back({msg.from, msg.row, msg.file_id, msg.epoch, ok});
  if (!ok) {
    round_->lines.push_back("host " + std::to_string(msg.from) +
                            " reported failure (kind=" +
                            std::to_string(msg.row) +
                            ", file=" + std::to_string(msg.file_id) + ")");
  }
}

}  // namespace pisces
