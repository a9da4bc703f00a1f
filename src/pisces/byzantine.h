// Active Byzantine adversary engine (paper SectionIII-A, active variant).
//
// The honest-but-curious Adversary (pisces/adversary.h) only reads; this
// engine makes corrupted hosts LIE. A seeded ByzantinePlan -- mirroring
// net::FaultPlan's shape -- assigns each corrupted host a ByzantineStrategy;
// a per-host ByzantineActor implements the strategy at the protocol layer:
//
//   kEquivocate   as a VSS dealer, send inconsistent dealing rows to
//                 different receivers (no single polynomial explains them);
//   kCorruptDeal  deal a consistent degree-<=d sharing that does NOT vanish
//                 on the required point set (a corrupted zero-sharing);
//   kWrongShare   serve perturbed shares to client reconstruction and
//                 perturbed masked shares to recovering targets;
//   kWithhold     silently withhold VSS dealings (refresh and recovery
//                 masks) and recovery masked shares (verdicts and check
//                 shares still flow; withholding those is indistinguishable
//                 from message loss, which timeouts already handle).
//
// Injection is the pss::DealTamper seam plus three Host call sites, all
// behind a null-checked pointer: with no plan armed the protocol bytes are
// identical to a build without the engine (tested by the armed-vs-unarmed
// differential test). Corrupted hosts lie on the wire but their stored
// shares stay honest -- the mobile adversary of the paper corrupts and
// leaves; persistent store corruption beyond the Reed-Solomon radius is out
// of scope (docs/adversary_model.md).
//
// Every action bumps a `byz.*` counter in the obs registry and, when tracing
// is enabled, opens a byz.action span; the matching detection sites
// (attribution, robust decode, dispute strikes) record byz.* detection
// counters, giving the seed-sweep harness an exact ledger of
// attack-vs-detection events.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "field/fp.h"
#include "pss/params.h"
#include "pss/tamper.h"

namespace pisces {

enum class ByzantineStrategy : std::uint8_t {
  kHonest = 0,
  kEquivocate,
  kCorruptDeal,
  kWrongShare,
  kWithhold,
};

const char* StrategyName(ByzantineStrategy s);

// Seeded, declarative corruption schedule: which hosts are actively corrupt
// this window and how they cheat. Mirrors net::FaultPlan so campaigns draw
// both from the same seed stream.
struct ByzantinePlan {
  std::uint64_t seed = 1;
  std::map<std::uint32_t, ByzantineStrategy> hosts;

  ByzantineStrategy For(std::uint32_t host) const {
    auto it = hosts.find(host);
    return it == hosts.end() ? ByzantineStrategy::kHonest : it->second;
  }
  bool Armed() const {
    for (const auto& [h, s] : hosts) {
      if (s != ByzantineStrategy::kHonest) return true;
    }
    return false;
  }
};

// Draws a corruption schedule for one campaign window: at most t corrupt
// hosts with strategies drawn uniformly, except that wrong-share hosts are
// capped at the recovery masked-share decoding radius
// (survivors - degree - 1) / 2 with survivors = n - r, so every drawn
// schedule is within what the dispute machinery guarantees to absorb
// (docs/adversary_model.md discusses the cap).
ByzantinePlan DrawByzantinePlan(std::uint64_t seed, const pss::Params& p);

// One corrupted host's behaviour. Implements the pss::DealTamper seam for
// dealer-side attacks; Host consults the other hooks at its send sites. All
// calls happen on the simulator's control thread in protocol order, so the
// actor's private RNG stream is deterministic.
class ByzantineActor final : public pss::DealTamper {
 public:
  ByzantineActor(std::uint32_t host, ByzantineStrategy strategy,
                 std::uint64_t seed, const field::FpCtx& ctx);

  std::uint32_t host() const { return host_; }
  ByzantineStrategy strategy() const { return strategy_; }

  // Dealer-side seam (refresh zero-sharings). Recovery-mask dealings are
  // left honest: the recovery-phase attack surface is the masked share
  // (TamperShares) and withholding, matching the dispute machinery.
  void TamperDeal(std::span<const std::uint32_t> holders, bool recovery,
                  std::vector<Bytes>& deal) override;

  // Wrong-share hook: perturbs each element of an element encoding (served
  // shares, masked shares) in place by an independent nonzero offset.
  // Returns true if it was modified (kWrongShare only).
  bool TamperShares(std::span<std::uint8_t> elems);

  // Withholding hook: true when this host silently skips the send it is
  // about to perform (a VSS dealing or a recovery masked share). Each
  // true return is one withheld message, counted in byz.messages_withheld.
  bool WithholdSend();

 private:
  std::uint32_t host_;
  ByzantineStrategy strategy_;
  const field::FpCtx* ctx_;
  Rng rng_;
};

// Owns one actor per corrupted host in a plan. The cluster arms each Host
// with its actor (hosts with no entry stay un-armed: a null pointer).
class ByzantineEngine {
 public:
  ByzantineEngine(const ByzantinePlan& plan, const field::FpCtx& ctx);

  // nullptr for hosts the plan leaves honest.
  ByzantineActor* ActorFor(std::uint32_t host);
  const ByzantinePlan& plan() const { return plan_; }

 private:
  ByzantinePlan plan_;
  std::map<std::uint32_t, std::unique_ptr<ByzantineActor>> actors_;
};

}  // namespace pisces
