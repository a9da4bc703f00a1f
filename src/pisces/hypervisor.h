// The hypervisor: chief organizing agent of the virtual hosts (paper
// SectionIV-A and Fig 4).
//
// Responsibilities implemented here, mirroring the paper's minimal required
// hypervisor functionality:
//   * Public Key Installation -- owns the CA; generates, signs and installs a
//     fresh host keypair at every (re)boot;
//   * Secure Reboot -- shuts a batch of hosts down (secure disassociation
//     wipes all state), brings them back with fresh keys, re-provisions the
//     public cert directory, publishes the batch's certs to every other
//     endpoint in one signed snapshot, and triggers share recovery;
//   * Restart Schedule -- executes a complete (round-robin) or randomized
//     schedule in batches of r hosts per recovery phase;
//   * Update orchestration -- one update window = rerandomize every stored
//     file, then reboot every host per the schedule with recovery after each
//     batch (paper SectionVI-E step 2);
//   * Fault tolerance -- a refresh or recovery round that loses a dealer to a
//     crash, a dropped message, or a corrupted dealing is re-run with the
//     offending dealer excluded instead of failing the window. The window
//     aborts only when more than t dealers are unavailable (the paper's
//     corruption bound).
//
// Dealer exclusion works in three tiers: (1) availability -- offline hosts
// never join a round; (2) attribution -- when hyperinvertible verification
// rejects a round, each dealer's archived dealing column is checked (a
// degree-<=d polynomial vanishing on the betas) and an inconsistent dealer is
// excluded at once; (3) strikes -- a live host that goes silent twice is
// barred. A reboot the host acknowledged wipes its record.
//
// A partially applied round is never re-run (re-randomizing an inconsistent
// base would corrupt the sharing for good): the hosts that missed the apply
// turn stale and resync through recovery, serving as no survivor until then.
//
// Who may serve in a round is decided once: recovery launches with
// Survivors() and the reboot guard counts the same set. Each operation
// collects its own failure lines and hands them to its report.
//
// The hypervisor holds only policy. Every lifecycle operation and host
// inspection goes through a FleetControl (pisces/fleet.h): a SimFleet of
// in-process hosts, or a WireFleet of pisces_hostd processes -- the same
// policy runs unchanged over either.
#pragma once

#include <memory>
#include <set>

#include "pisces/fleet.h"
#include "pisces/read_spec.h"
#include "pisces/schedule.h"

namespace pisces {

struct WindowReport {
  bool ok = true;
  std::vector<std::string> failures;
  std::uint64_t sweeps_refresh = 0;
  std::uint64_t sweeps_recovery = 0;
  std::size_t reboots = 0;
  // Scheduled reboots skipped because wiping the batch would have dropped a
  // file below the recovery quorum (fleet already degraded); retried in a
  // later window once recovery has healed enough holders.
  std::size_t reboots_deferred = 0;
  std::size_t files_refreshed = 0;
  // Aggregate per-phase metrics summed over all hosts (delta for this
  // window).
  PhaseMetrics rerandomize_total;
  PhaseMetrics recover_total;
  // Robustness activity during this window (host-metric deltas plus the
  // hypervisor's own retry counters).
  std::uint64_t deals_excluded = 0;
  std::uint64_t refresh_retries = 0;
  std::uint64_t recovery_retries = 0;
  std::uint64_t timeouts_fired = 0;
};

// Outcome of one Hypervisor::Reshare migration (docs/resharding.md).
struct ReshareReport {
  bool ok = true;
  std::vector<std::string> failures;
  std::size_t files = 0;          // files migrated to the new shape
  std::size_t hosts_added = 0;    // fleet slots created or revived
  std::size_t hosts_retired = 0;  // fleet slots shut down (shrink)
  std::uint64_t contributions = 0;
  std::uint64_t contributions_rejected = 0;  // failed public verification
  std::uint64_t contributions_withheld = 0;  // silent contributors (strikes)
  std::uint64_t retries = 0;  // per-file rounds re-run with offenders excluded
};

struct HypervisorConfig {
  pss::Params params;
  std::shared_ptr<const field::FpCtx> ctx;
  std::string schedule = "round-robin";
  std::uint64_t seed = 1;
  // Repair read policy (docs/bandwidth.md): kStaircase asks survivors to
  // ship reduced masked-share stripes (budget points per block instead of
  // every survivor's full vector); `contacts` overrides the per-block point
  // budget (0 = DefaultRecoveryBudget). With fallback kClassic only the
  // first attempt of a chunk runs reduced -- retries use full vectors, so a
  // corruption beyond the reduced decode radius heals at classic cost.
  ReadPolicy repair;
};

class Hypervisor : public net::MessageHandler {
 public:
  // Creates the CA, attaches `fleet` (n host slots) and boots every host
  // with fresh CA-signed keys.
  Hypervisor(HypervisorConfig cfg, std::unique_ptr<FleetControl> fleet,
             const crypto::SchnorrGroup& group);
  ~Hypervisor() override;

  // Logical fleet size: the current group shape's n. After a shrink the
  // fleet keeps retired slots parked (offline, wiped) for reuse by a later
  // grow, so FleetControl::slots() may exceed n().
  std::size_t n() const { return cfg_.params.n; }
  const pss::Params& params() const { return cfg_.params; }
  Bytes ca_public_key() const { return ca_.public_key(); }
  // Public cert directory (hypervisor-signed; used to provision newcomers).
  const CertDirectory& directory() const { return directory_; }

  // Issues a signed keypair for an external participant (the client) and
  // publishes its cert to every host in a signed snapshot. Returns the
  // participant's secret key and that snapshot: with directory() it is what
  // the participant boots its keyring from.
  std::pair<Bytes, crypto::CertSnapshot> EnrollExternal(std::uint32_t id);

  // --- update orchestration (paper SectionVI-E) ---
  // Rerandomizes every stored file, retrying with failed dealers excluded
  // (up to t+2 attempts) and resyncing stale hosts afterwards. Returns false
  // only when a file could not be refreshed within the corruption bound.
  bool RefreshAllFiles(WindowReport* report = nullptr);
  // Rerandomizes exactly `file_ids` (the serving plane's batch-refresh
  // scheduler feeds shard-local batches through this). All sessions of a
  // call launch before a single network pump, so a batch of F files costs
  // one round-trip structure, not F of them. Byte-identity with F
  // sequential single-file calls is a tested contract (differential_test):
  // per-host refresh randomness is drawn once per session at kStartRefresh
  // receipt, and start messages are delivered in launch order.
  bool RefreshFiles(std::span<const std::uint64_t> file_ids,
                    WindowReport* report = nullptr);
  // Reboots `batch` (secure disassociation + fresh keys) and runs share
  // recovery for every stored file toward the rebooted hosts.
  bool RebootAndRecover(std::span<const std::uint32_t> batch,
                        WindowReport* report = nullptr);
  // One full proactive update window: refresh, then every schedule batch.
  WindowReport RunUpdateWindow();

  // --- live resharing (docs/resharding.md) ---
  // Migrates every stored file to the new group shape `to` (same packing l,
  // same field) WITHOUT reconstructing: each of d_old+1 contributor hosts
  // deals a masked sub-sharing from its own share (pss/reshare.h), the
  // hypervisor publicly verifies every contribution (corrupt contributors
  // are excluded and the file's round retried, silent ones accrue strikes),
  // and only when every file's new sharing is ready does the fleet reshape:
  // surviving hosts wipe-and-adopt the new scheme, grown slots boot fresh
  // (parked slots from an earlier shrink are revived), shrunk slots shut
  // down, and every slot <n' -- including previously crashed ones -- ends
  // online with the fresh sharing installed (re-provisioning through
  // reshare, not recovery). Returns false, fleet untouched, when any file
  // cannot gather d_old+1 verified contributions within the corruption
  // bound, or when the fleet's hosts run in other processes.
  bool Reshare(const pss::Params& to, ReshareReport* report = nullptr);

  void HandleMessage(const net::Message& msg) override;

  // Hosts currently barred from dealing (corrupt or repeatedly silent).
  const std::set<std::uint32_t>& excluded_dealers() const { return excluded_; }
  // Hosts barred from acting as recovery survivors: accused by a recovery
  // target's robust decode (wrong masked shares) or repeatedly silent during
  // recovery (withheld dealings/masked shares, two strikes). Cleared by
  // reboot, like the dealer exclusion record.
  const std::set<std::uint32_t>& suspected_hosts() const { return suspects_; }
  // Hosts holding shares that missed the latest rerandomization (awaiting
  // resync through recovery).
  const std::set<std::uint32_t>& stale_hosts() const { return stale_; }

  // Operator's view, freshly surveyed: every reachable host and the files it
  // holds (a wire fleet answers in one round trip per host).
  std::map<std::uint32_t, std::vector<std::uint64_t>> Survey();

  // Marks a file as intentionally deleted. Without this signal the file
  // catalog would report the disappearance as data loss and fail every
  // subsequent window.
  void ForgetFile(std::uint64_t file_id) { catalog_.erase(file_id); }

 private:
  // A kPhaseDone record: host reported the end of a protocol phase.
  // kind: 0 = refresh, 1 = recovery (see Host::ReportPhaseDone callers).
  struct PhaseReport {
    std::uint32_t host = 0;
    std::uint32_t kind = 0;
    std::uint64_t file = 0;
    std::uint32_t seq = 0;
    bool ok = false;
  };
  // One attempt of a refresh or recovery round: the kPhaseDone reports and
  // failure lines HandleMessage receives while it runs.
  struct Round {
    explicit Round(Hypervisor& hv) : hv(hv) { hv.round_ = this; }
    ~Round() { hv.round_ = nullptr; }
    Hypervisor& hv;
    std::vector<PhaseReport> reports;
    std::vector<std::string> lines;
  };

  // Issues fresh keys for every host of `ids` under one signed snapshot,
  // boots each with it and publishes it to every other endpoint. Returns
  // the hosts that acked their boot.
  std::vector<std::uint32_t> BootBatch(std::span<const std::uint32_t> ids);
  // Publishes `snap` to every peer but those in `skip`.
  void Publish(const crypto::CertSnapshot& snap,
               std::span<const std::uint32_t> skip);
  // Shared body of RefreshAllFiles / RefreshFiles; `audit_catalog` enables
  // the fleet-wide lost-file check (full-namespace refresh only).
  bool RefreshFilesInternal(std::vector<std::uint64_t> files,
                            bool audit_catalog, WindowReport* report);
  std::vector<std::uint64_t> AllFileIds() const;

  // Hosts that are booted and reachable (not net-offline), ascending.
  std::vector<std::uint32_t> ReachableHosts() const;
  // The survivors recovery of `file` launches with while `skip` is wiped.
  std::vector<std::uint32_t> Survivors(
      std::uint64_t file, std::span<const std::uint32_t> skip) const;
  // Whether Survivors(f, batch) reaches the quorum for every stored file f.
  bool BatchSafeToReboot(std::span<const std::uint32_t> batch) const;
  // Appends a line per catalogued file missing from `held`; true on a loss.
  bool AuditLost(std::span<const std::uint64_t> held,
                 std::vector<std::string>& lines) const;
  // The hosts silent in round `seq`'s wedged sessions.
  std::set<std::uint32_t> SilentHosts(std::uint32_t seq);
  // Folds the fleet's `phase` metric growth since `before` into `total`, and
  // the fault deltas, the operation's `failures` and `ok` into `report`.
  void Account(const HostMetrics& before, PhaseMetrics HostMetrics::*phase,
               PhaseMetrics& total, bool ok,
               const std::vector<std::string>& failures, WindowReport& report);
  // Cross-checks archived dealing columns of failed refresh rounds and
  // returns the dealers whose columns are provably inconsistent.
  std::set<std::uint32_t> AttributeCorruptDealers(
      std::uint32_t seq,
      const std::map<std::uint64_t, std::vector<std::uint32_t>>&
          parts_by_file);
  // Recovers every stored file toward `targets` (chunked by r, retried with
  // a shrinking survivor set). Erases recovered targets from stale_. Appends
  // its failures to `failures`.
  bool RunRecovery(std::vector<std::uint32_t> targets, WindowReport* report,
                   std::vector<std::string>& failures);

  HypervisorConfig cfg_;
  std::unique_ptr<FleetControl> fleet_;
  Rng rng_;
  crypto::CertAuthority ca_;

  std::vector<std::uint32_t> peer_ids_;  // hosts + enrolled externals
  CertDirectory directory_;

  std::unique_ptr<RestartSchedule> schedule_;
  std::uint32_t boot_epoch_ = 0;
  std::uint32_t op_seq_ = 100;  // session correlation counter
  std::uint32_t window_ = 0;
  Round* round_ = nullptr;  // the attempt in progress; null between them
  std::set<std::uint32_t> excluded_;
  std::map<std::uint32_t, std::uint32_t> dealer_strikes_;
  // Recovery dispute state: suspects are excluded from the survivor set (base
  // AND reserve -- their verified-at-target contribution is exactly what was
  // rejected); strikes accumulate toward suspicion for silent survivors.
  std::set<std::uint32_t> suspects_;
  std::map<std::uint32_t, std::uint32_t> suspect_strikes_;
  std::set<std::uint32_t> stale_;
  // Every file id ever observed on a host. Host stores are the only file
  // directory, so once the last holder is wiped a file would silently vanish
  // from AllFileIds() and refresh/recovery would succeed vacuously; the
  // catalog turns that into a reported loss instead.
  std::set<std::uint64_t> catalog_;
};

}  // namespace pisces
