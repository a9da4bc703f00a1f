// Share recovery for rebooted hosts (the paper's SectionIII-B
// "reconstructing lost shares", the hard part of any PSS scheme).
//
// For each rebooted host rho, the surviving parties generate verified random
// degree-<=d masking sharings q_b that vanish at alpha_rho (one per block,
// produced by the same hyperinvertible pipeline as refresh, with vanishing
// set {alpha_rho}); each survivor i then sends f_b(alpha_i) + q_b(alpha_i).
// rho interpolates the masked polynomial g_b = f_b + q_b (possible: at least
// d+1 survivors) and evaluates g_b(alpha_rho) = f_b(alpha_rho), its share.
// Privacy: q_b is uniformly random everywhere except alpha_rho, so rho (and
// any t eavesdropped survivors) learn nothing beyond rho's own share.
//
// One VSS run serves a whole reboot batch, with one segment of masks per
// target: target j's masks vanish at its own alpha ONLY. A mask vanishing at
// every target would let each target evaluate the g_b it interpolates (then
// equal to f_b at every target's alpha) at the others' alphas and read their
// shares; per-target masks keep a target's repair traffic to its own data.
//
// This is the vanishing-mask formulation of the paper's batched share
// reconstruction; it keeps the same O(1) amortized complexity (n dealings
// yield dealers-2t verified masks) -- see DESIGN.md SectionIII for the
// documented deviation from the share-of-shares matrix inversion.
#pragma once

#include "pss/packed_shamir.h"
#include "pss/vss.h"

namespace pisces::pss {

struct RecoveryPlan {
  std::size_t blocks = 0;
  std::size_t usable = 0;  // survivors - 2t
  std::size_t groups = 0;  // per target
  std::vector<std::uint32_t> targets;    // rebooted parties, in given order
  std::vector<std::uint32_t> survivors;  // live parties, ascending

  static RecoveryPlan For(std::size_t blocks, const Params& p,
                          std::span<const std::uint32_t> rebooting);
  // Restricted variant: survivors are drawn from `available` only (hosts that
  // are reachable AND hold consistent shares), minus the rebooting set. Used
  // when recovery must route around crashed or stale hosts.
  static RecoveryPlan For(std::size_t blocks, const Params& p,
                          std::span<const std::uint32_t> rebooting,
                          std::span<const std::uint32_t> available);
};

// The VssBatch recovering every plan target among the plan's survivors:
// segment j (plan.groups groups) vanishes at alpha of targets[j], degree d,
// 2t check rows. Block blk of target j takes output row 2t + blk % usable of
// group j * groups + blk / usable.
VssBatch MakeRecoveryBatch(const PackedShamir& shamir,
                           const RecoveryPlan& plan);

// Runs a complete recovery locally for every host in `rebooting`:
// shares_by_party[i][b] holds current shares; entries for rebooting parties
// are overwritten with the recovered values. Used by unit tests and as
// executable documentation; pisces::Host implements the message version.
void ReferenceRecover(const PackedShamir& shamir,
                      std::vector<std::vector<FpElem>>& shares_by_party,
                      std::span<const std::uint32_t> rebooting, Rng& rng);

// Active-adversary variant: every survivor listed in `liars` sends corrupted
// masked shares (its true value plus a fixed nonzero offset). The target
// interpolates through them with Berlekamp-Welch -- the mask dealings leave
// exactly the Reed-Solomon slack for e = (survivors - d - 1) / 2 errors --
// and identifies the lying survivors via the decoded polynomial's mismatch
// set. Returns the accused host ids (union over targets and blocks); the
// recovered shares are correct whenever liars.size() fits the radius.
// Executable documentation of the dispute path in Host::MaybeFinishTarget.
std::vector<std::uint32_t> ReferenceRecoverRobust(
    const PackedShamir& shamir,
    std::vector<std::vector<FpElem>>& shares_by_party,
    std::span<const std::uint32_t> rebooting, Rng& rng,
    std::span<const std::uint32_t> liars);

}  // namespace pisces::pss
