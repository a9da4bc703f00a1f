// Mobile honest-but-curious adversary simulator (paper SectionIII-A).
//
// The adversary corrupts hosts (reading everything they store), moves between
// hosts across time periods, and is expelled from a host when the hypervisor
// reboots it. It wins if it ever holds enough same-period shares of a file:
//   * > t shares of one period: perfect privacy is lost (partial information);
//   * >= d+1 shares of one period: full reconstruction.
// Because refresh rerandomizes every share each period, shares captured in
// different periods do not combine -- which is precisely the proactive
// security property, and AttemptReconstruction demonstrates it by actually
// running the attack.
#pragma once

#include <optional>
#include <set>

#include "pisces/cluster.h"

namespace pisces {

class Adversary {
 public:
  explicit Adversary(Cluster& cluster) : cluster_(&cluster) {}

  // Corrupts a host now: snapshots every stored share at the current share
  // version. The host stays corrupted (and is re-read by ObserveWindow) until
  // a reboot expels the adversary.
  void Corrupt(std::uint32_t host);

  // Call once after each cluster.RunUpdateWindow(): hosts rebooted during the
  // window expel the adversary; hosts still corrupted are read again (their
  // shares now belong to the new period).
  void ObserveWindow();

  const std::set<std::uint32_t>& corrupted() const { return corrupted_; }

  // Most same-period shares ever captured for the file.
  std::size_t MaxSamePeriodShares(std::uint64_t file_id) const;
  // True when the capture history violates perfect privacy (> t shares of
  // one period).
  bool ExceedsPrivacyThreshold(std::uint64_t file_id) const;

  // Runs the real attack: for every captured period with >= d+1 shares,
  // reconstructs and decodes (checksum-verified). nullopt = the adversary
  // cannot recover the file.
  std::optional<Bytes> AttemptReconstruction(std::uint64_t file_id) const;

  // Deliberately mixes shares from different periods (ignoring the version
  // bookkeeping) and tries to decode -- used by tests to show stale shares
  // are useless.
  std::optional<Bytes> AttemptMixedReconstruction(std::uint64_t file_id) const;

 private:
  void SnapshotHost(std::uint32_t host);

  Cluster* cluster_;
  std::set<std::uint32_t> corrupted_;
  // Epoch counters per corrupted host at capture time let us group captures
  // by share period: captures[file][period][host] = the at-rest share bytes.
  std::map<std::uint64_t,
           std::map<std::uint64_t, std::map<std::uint32_t, Bytes>>>
      captures_;
  std::map<std::uint64_t, FileMeta> metas_;
  std::uint64_t period_ = 0;
};

}  // namespace pisces
