// Protocol-layer tamper hook for active-adversary testing.
//
// A Byzantine dealer does not attack the wire (links are authenticated and
// encrypted); it lies at the protocol layer, before its dealing rows are
// sealed for each receiver. DealTamper is the seam: VssBatch::Deal/DealFrom
// and ReshareContribution accept an optional tamper and apply it to the
// finished rows -- the payload bytes each receiver is sent, edited in
// place -- on the caller's thread, after the parallel evaluation fan-out, so
// results stay deterministic for any pool size. The honest path is a
// null-pointer check -- when no tamper is armed the produced bytes are
// identical to a build without this hook.
//
// Implementations live in src/pisces/byzantine.* (the strategy engine); this
// header keeps pss free of any dependency on them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace pisces::pss {

class DealTamper {
 public:
  virtual ~DealTamper() = default;

  // deal[k] is the row destined for holders[k]: one element encoding
  // (elem_bytes() little-endian bytes, below p) per group or block, element
  // g at g * elem_bytes(). A tamper keeps every row's length and every value
  // below p. Mutating a single row equivocates (receivers see inconsistent
  // dealings); mutating every row consistently submits a corrupted /
  // degree-violating sharing. `recovery` distinguishes recovery-mask
  // dealings from refresh zero-sharings so strategies can target one phase.
  virtual void TamperDeal(std::span<const std::uint32_t> holders,
                          bool recovery, std::vector<Bytes>& deal) = 0;
};

}  // namespace pisces::pss
