// Communication-efficient reconstruct and repair: staircase-style striped
// share layout (Bitar-El Rouayheb, PAPERS.md) adapted to packed Shamir.
//
// The classic download protocol asks every host for its FULL share vector
// (one evaluation per block) and reconstructs from the first degree+1
// responses -- n*B evaluations cross the wire for a B-block file. But any
// degree+1 evaluations per block suffice, and proactive refresh
// re-randomizes every block independently, so per-block downloads are
// lower-bounded at need = degree+1 evaluations. The achievable win is to
// SPREAD that need across a contact set of d in (t, n] hosts, staircase
// style: block b is served by the `need` contacts whose index follows b
// cyclically, so every contacted host ships only ceil(need/d) of its share
// vector and the total transfer is exactly need*B evaluations -- a
// need/n fraction of the classic protocol's bytes at d = n.
//
// The same rotation prices recovery: a rebooted host needs its masked share
// g_b(alpha_target) interpolated from degree+1 survivor points per block, so
// survivors can ship a reduced stripe (budget >= degree+1 points per block,
// the slack buying error detection) instead of their full masked vectors.
//
// Everything here is pure layout math plus reconstruction helpers over the
// math/ domain caches; no transport or session state.
#pragma once

#include "pss/packed_shamir.h"

namespace pisces::pss {

// Cyclic striped assignment of blocks to a contact set of size `contacts`:
// contact j in [0, contacts) serves block b iff j lies in the window of
// `need` contact indices starting at b mod contacts. Every block is covered
// by exactly `need` contacts and consecutive blocks rotate the window, so
// per-contact load is exactly equal when contacts divides the block count
// and within `need` blocks of even otherwise (ragged residue classes).
struct StripeLayout {
  std::size_t contacts = 0;  // d: hosts contacted
  std::size_t need = 0;      // evaluations required per block (degree+1)

  StripeLayout(std::size_t contacts_, std::size_t need_);

  bool Sends(std::size_t contact, std::size_t block) const {
    return (contact + contacts - block % contacts) % contacts < need;
  }
  // Contact indices serving `block`, in rotation order. All blocks with the
  // same residue mod `contacts` share one sender set, so there are at most
  // `contacts` distinct reconstruction subsets (and weight-cache entries).
  std::vector<std::uint32_t> SendersFor(std::size_t block) const;
  // Blocks (ascending) that `contact` serves out of `blocks` total.
  std::vector<std::size_t> BlocksFor(std::size_t contact,
                                     std::size_t blocks) const;
  std::size_t CountFor(std::size_t contact, std::size_t blocks) const;
};

// A staircase read needs at least need = degree+1 contacts (each block must
// find its quorum inside the contact set) and can use at most n. Degenerate
// d = need means every contact ships everything -- the t+1-style full-share
// read restricted to a subset.
bool StaircaseFeasible(const Params& p, std::size_t contacts);
// Maps a requested contact budget (0 = "all n") onto the feasible range;
// returns 0 when even the clamped budget is infeasible (caller falls back).
std::size_t ResolveContacts(const Params& p, std::uint32_t requested);

// Reconstructs all blocks' secrets from striped responses, on element
// encodings (elem_bytes() little-endian bytes each, values below p):
// stripes[j] holds contact j's assigned evaluations ascending by block
// (exactly layout.CountFor(j, blocks) of them); contacted[j] is the party id
// behind contact index j. Returns the blocks*l secrets back to back in
// block-major order, in that encoding. Reuses the memoized reconstruction
// weights per residue class and fans blocks out over the task pool
// deterministically.
Bytes StripedReconstruct(const PackedShamir& shamir, const StripeLayout& layout,
                         std::span<const std::uint32_t> contacted,
                         std::span<const std::span<const std::uint8_t>> stripes,
                         std::size_t blocks,
                         std::uint64_t* extra_cpu_ns = nullptr);

// Reduced-repair point budget per block: degree+1 evaluations interpolate
// the masked polynomial, +2 slack lets the target DETECT a corrupted
// contribution (consistency check) without paying for full-vector decoding
// radius. Capped at the survivor count (small fleets degenerate to full).
std::size_t DefaultRecoveryBudget(const Params& p, std::size_t survivors);

}  // namespace pisces::pss
