#include "pisces/adversary.h"

#include "obs/registry.h"

namespace pisces {
namespace {

// Mobile-adversary activity ledger (adv.* namespace; the active engine's
// counters live under byz.*). Drills and the chaos suite read these as
// registry deltas instead of threading bespoke getters around.
obs::Counter& HostsCorrupted() {
  static obs::Counter& c = obs::RegisterCounter(
      "adv.hosts_corrupted", "host corruption events (mobile adversary)");
  return c;
}
obs::Counter& SharesCaptured() {
  static obs::Counter& c = obs::RegisterCounter(
      "adv.shares_captured", "share elements exfiltrated from corrupted hosts");
  return c;
}
obs::Counter& ReconstructionAttempts() {
  static obs::Counter& c = obs::RegisterCounter(
      "adv.reconstruction_attempts",
      "same-period reconstruction attempts by the adversary");
  return c;
}
obs::Counter& MixedAttempts() {
  static obs::Counter& c = obs::RegisterCounter(
      "adv.mixed_reconstruction_attempts",
      "cross-period (mixed-share) reconstruction attempts");
  return c;
}

}  // namespace

void Adversary::Corrupt(std::uint32_t host) {
  Require(host < cluster_->config().params.n, "Adversary: no such host");
  corrupted_.insert(host);
  HostsCorrupted().Add(1);
  SnapshotHost(host);
}

void Adversary::SnapshotHost(std::uint32_t host) {
  Host& h = cluster_->host(host);
  if (!h.online()) return;
  for (std::uint64_t file_id : h.store().FileIds()) {
    const FileMeta& meta = h.store().MetaOf(file_id);
    metas_[file_id] = meta;
    const std::span<const std::uint8_t> shares = h.store().AtRest(file_id);
    SharesCaptured().Add(meta.num_blocks);
    captures_[file_id][period_][host].assign(shares.begin(), shares.end());
  }
}

void Adversary::ObserveWindow() {
  ++period_;
  // Reboots expel the adversary: with a complete schedule every host reboots
  // every window, so the corruption set empties unless re-established.
  // (We model expulsion by checking the host's key epoch advanced; with the
  // complete schedule that is every host.)
  corrupted_.clear();
}

std::size_t Adversary::MaxSamePeriodShares(std::uint64_t file_id) const {
  auto it = captures_.find(file_id);
  if (it == captures_.end()) return 0;
  std::size_t best = 0;
  for (const auto& [period, by_host] : it->second) {
    best = std::max(best, by_host.size());
  }
  return best;
}

bool Adversary::ExceedsPrivacyThreshold(std::uint64_t file_id) const {
  return MaxSamePeriodShares(file_id) > cluster_->config().params.t;
}

std::optional<Bytes> Adversary::AttemptReconstruction(
    std::uint64_t file_id) const {
  ReconstructionAttempts().Add(1);
  auto it = captures_.find(file_id);
  if (it == captures_.end()) return std::nullopt;
  auto meta_it = metas_.find(file_id);
  if (meta_it == metas_.end()) return std::nullopt;
  const FileMeta& meta = meta_it->second;
  const pss::Params& p = cluster_->config().params;
  const auto& ctx = cluster_->ctx();
  pss::PackedShamir shamir(cluster_->ctx_ptr(), p);
  FileCodec codec(ctx, p.l);

  for (const auto& [period, by_host] : it->second) {
    if (by_host.size() < p.degree() + 1) continue;
    std::vector<std::uint32_t> parties;
    std::vector<const std::uint8_t*> rows;
    for (const auto& [host, shares] : by_host) {
      if (shares.size() != meta.num_blocks * ctx.elem_bytes()) continue;
      parties.push_back(host);
      rows.push_back(shares.data());
    }
    if (parties.size() < p.degree() + 1) continue;
    parties.resize(p.degree() + 1);
    rows.resize(p.degree() + 1);

    Bytes secrets(meta.num_blocks * p.l * ctx.elem_bytes());
    shamir.ReconstructRows(parties, rows, meta.num_blocks, secrets.data());
    try {
      return codec.DecodeWire(meta, secrets);
    } catch (const ParseError&) {
      continue;  // garbage -- not actually a consistent period
    }
  }
  return std::nullopt;
}

std::optional<Bytes> Adversary::AttemptMixedReconstruction(
    std::uint64_t file_id) const {
  MixedAttempts().Add(1);
  auto it = captures_.find(file_id);
  if (it == captures_.end()) return std::nullopt;
  auto meta_it = metas_.find(file_id);
  if (meta_it == metas_.end()) return std::nullopt;
  const FileMeta& meta = meta_it->second;
  const pss::Params& p = cluster_->config().params;
  const auto& ctx = cluster_->ctx();

  // Flatten captures across periods, one (most recent) vector per host.
  std::map<std::uint32_t, const std::uint8_t*> latest;
  for (const auto& [period, by_host] : it->second) {
    for (const auto& [host, shares] : by_host) {
      if (shares.size() == meta.num_blocks * ctx.elem_bytes()) {
        latest[host] = shares.data();
      }
    }
  }
  if (latest.size() < p.degree() + 1) return std::nullopt;

  pss::PackedShamir shamir(cluster_->ctx_ptr(), p);
  FileCodec codec(ctx, p.l);
  std::vector<std::uint32_t> parties;
  std::vector<const std::uint8_t*> rows;
  for (const auto& [host, shares] : latest) {
    parties.push_back(host);
    rows.push_back(shares);
    if (parties.size() == p.degree() + 1) break;
  }
  Bytes secrets(meta.num_blocks * p.l * ctx.elem_bytes());
  shamir.ReconstructRows(parties, rows, meta.num_blocks, secrets.data());
  try {
    return codec.DecodeWire(meta, secrets);
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace pisces
