// Protocol-layer tamper hook for active-adversary testing.
//
// A Byzantine dealer does not attack the wire (links are authenticated and
// encrypted); it lies at the protocol layer, before its dealing rows are
// sealed for each receiver. DealTamper is the seam: VssBatch::Deal/DealFrom
// accept an optional tamper and apply it to the finished dealing, its rows
// decoded into a matrix of elements and encoded back afterwards, on the
// caller's thread, after the parallel evaluation fan-out, so results stay
// deterministic for any pool size. The honest path is a null-pointer check --
// when no tamper is armed the produced bytes are identical to a build without
// this hook.
//
// Implementations live in src/pisces/byzantine.* (the strategy engine); this
// header keeps pss free of any dependency on them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "field/fp.h"

namespace pisces::pss {

class DealTamper {
 public:
  virtual ~DealTamper() = default;

  // deal[k][g] is the group-g evaluation destined for holders[k]. Mutating a
  // single row equivocates (receivers see inconsistent dealings); mutating
  // the whole matrix consistently submits a corrupted / degree-violating
  // sharing. `recovery` distinguishes recovery-mask dealings from refresh
  // zero-sharings so strategies can target one phase.
  virtual void TamperDeal(std::span<const std::uint32_t> holders,
                          bool recovery,
                          std::vector<std::vector<field::FpElem>>& deal) = 0;
};

}  // namespace pisces::pss
