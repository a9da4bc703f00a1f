#include "pisces/byzantine.h"

#include "obs/registry.h"
#include "obs/trace.h"

namespace pisces {
namespace {

// Action-side counters: what the adversary actually did. The detection-side
// byz.* counters live at the sites that catch these actions (host,
// hypervisor, client, packed_shamir).
obs::Counter& DealsTampered() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.deals_tampered", "refresh dealings tampered by byzantine dealers");
  return c;
}
obs::Counter& Equivocations() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.equivocations",
      "dealings equivocated (inconsistent rows to different receivers)");
  return c;
}
obs::Counter& SharesTampered() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.shares_tampered",
      "share elements perturbed before serving (client + recovery paths)");
  return c;
}
obs::Counter& MessagesWithheld() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.messages_withheld",
      "protocol messages silently withheld by byzantine hosts");
  return c;
}

// Element i of an element encoding += off, in place.
void AddAt(const field::FpCtx& ctx, std::span<std::uint8_t> elems,
           std::size_t i, const field::FpElem& off) {
  ctx.ToBytes(ctx.Add(field::ElemAt(ctx, elems, i), off),
              elems.data() + i * ctx.elem_bytes());
}

}  // namespace

const char* StrategyName(ByzantineStrategy s) {
  switch (s) {
    case ByzantineStrategy::kHonest: return "honest";
    case ByzantineStrategy::kEquivocate: return "equivocate";
    case ByzantineStrategy::kCorruptDeal: return "corrupt_deal";
    case ByzantineStrategy::kWrongShare: return "wrong_share";
    case ByzantineStrategy::kWithhold: return "withhold";
  }
  return "unknown";
}

ByzantinePlan DrawByzantinePlan(std::uint64_t seed, const pss::Params& p) {
  ByzantinePlan plan;
  plan.seed = seed;
  Rng rng(seed);
  // 0..t active corruptions; every drawn schedule stays within what the
  // protocol guarantees to absorb.
  const std::size_t k = rng.Below(p.t + 1);
  // Wrong-share hosts are capped at the masked-share unique-decoding radius
  // for the smallest survivor set recovery uses (n - r survivors): radius =
  // (survivors - d - 1) / 2. Dealer-side strategies have no such cap -- a
  // tampered dealing is detected and the dealer excluded regardless of how
  // many points it corrupts.
  const std::size_t survivors = p.n > p.r ? p.n - p.r : 0;
  std::size_t wrong_share_budget =
      survivors > p.degree() + 1 ? (survivors - p.degree() - 1) / 2 : 0;
  while (plan.hosts.size() < k) {
    auto h = static_cast<std::uint32_t>(rng.Below(p.n));
    if (plan.hosts.count(h) != 0) continue;
    auto s = static_cast<ByzantineStrategy>(1 + rng.Below(4));
    if (s == ByzantineStrategy::kWrongShare) {
      if (wrong_share_budget == 0) {
        constexpr ByzantineStrategy alt[] = {ByzantineStrategy::kEquivocate,
                                             ByzantineStrategy::kCorruptDeal,
                                             ByzantineStrategy::kWithhold};
        s = alt[rng.Below(3)];
      } else {
        --wrong_share_budget;
      }
    }
    plan.hosts[h] = s;
  }
  return plan;
}

ByzantineActor::ByzantineActor(std::uint32_t host, ByzantineStrategy strategy,
                               std::uint64_t seed, const field::FpCtx& ctx)
    : host_(host),
      strategy_(strategy),
      ctx_(&ctx),
      // Mix the host id into the seed so co-corrupted hosts draw
      // independent offset streams.
      rng_(seed ^ (0x9e3779b97f4a7c15ull * (host + 1))) {}

void ByzantineActor::TamperDeal(std::span<const std::uint32_t> holders,
                                bool recovery, std::vector<Bytes>& deal) {
  // Recovery-mask dealings stay honest: the recovery-phase attacks are
  // wrong masked shares and withholding (see header).
  if (recovery || deal.empty()) return;
  switch (strategy_) {
    case ByzantineStrategy::kEquivocate: {
      // Perturb one receiver's row: the per-receiver evaluations are no
      // longer explained by any single degree-<=d polynomial, which is
      // exactly what cross-host attribution checks.
      obs::Span span(obs::SpanKind::kByzAction, host_,
                     static_cast<std::uint64_t>(strategy_));
      std::size_t idx = rng_.Below(deal.size());
      if (deal.size() > 1 && holders[idx] == host_) idx = (idx + 1) % deal.size();
      field::FpElem off = ctx_->RandomNonZero(rng_);
      const std::size_t count = deal[idx].size() / ctx_->elem_bytes();
      for (std::size_t i = 0; i < count; ++i) AddAt(*ctx_, deal[idx], i, off);
      DealsTampered().Add(1);
      Equivocations().Add(1);
      return;
    }
    case ByzantineStrategy::kCorruptDeal: {
      // Add one constant to every receiver's group-0 evaluation: still a
      // consistent degree-<=d polynomial, but it no longer vanishes on the
      // required point set -- a corrupted zero-sharing that would shift the
      // stored secrets if applied.
      obs::Span span(obs::SpanKind::kByzAction, host_,
                     static_cast<std::uint64_t>(strategy_));
      field::FpElem off = ctx_->RandomNonZero(rng_);
      for (Bytes& row : deal) AddAt(*ctx_, row, 0, off);
      DealsTampered().Add(1);
      return;
    }
    case ByzantineStrategy::kHonest:
    case ByzantineStrategy::kWrongShare:
    case ByzantineStrategy::kWithhold:
      return;
  }
}

bool ByzantineActor::TamperShares(std::span<std::uint8_t> elems) {
  if (strategy_ != ByzantineStrategy::kWrongShare || elems.empty()) {
    return false;
  }
  obs::Span span(obs::SpanKind::kByzAction, host_,
                 static_cast<std::uint64_t>(strategy_));
  const std::size_t count = elems.size() / ctx_->elem_bytes();
  for (std::size_t i = 0; i < count; ++i) {
    AddAt(*ctx_, elems, i, ctx_->RandomNonZero(rng_));
  }
  SharesTampered().Add(count);
  return true;
}

bool ByzantineActor::WithholdSend() {
  if (strategy_ != ByzantineStrategy::kWithhold) return false;
  MessagesWithheld().Add(1);
  return true;
}

ByzantineEngine::ByzantineEngine(const ByzantinePlan& plan,
                                 const field::FpCtx& ctx)
    : plan_(plan) {
  for (const auto& [host, strategy] : plan_.hosts) {
    if (strategy == ByzantineStrategy::kHonest) continue;
    actors_.emplace(host, std::make_unique<ByzantineActor>(host, strategy,
                                                           plan_.seed, ctx));
  }
}

ByzantineActor* ByzantineEngine::ActorFor(std::uint32_t host) {
  auto it = actors_.find(host);
  return it == actors_.end() ? nullptr : it->second.get();
}

}  // namespace pisces
