#include "pss/vss.h"

#include <algorithm>

#include "common/task_pool.h"
#include "math/weight_cache.h"
#include "obs/trace.h"

namespace pisces::pss {

std::size_t GroupsFor(std::size_t wanted, std::size_t usable_rows) {
  Require(usable_rows >= 1, "GroupsFor: no usable rows");
  return (wanted + usable_rows - 1) / usable_rows;
}

VssBatch::VssBatch(const FpCtx& ctx, const EvalPoints& points,
                   std::vector<std::uint32_t> holders,
                   std::vector<std::uint64_t> vanish, std::size_t degree,
                   std::size_t check_rows, std::size_t groups, bool recovery)
    : ctx_(&ctx),
      holders_(std::move(holders)),
      vanish_nodes_(std::move(vanish)),
      degree_(degree),
      check_rows_(check_rows),
      groups_(groups),
      recovery_(recovery) {
  Require(!holders_.empty(), "VssBatch: no holders");
  Require(check_rows_ < holders_.size(),
          "VssBatch: need at least one usable row");
  Require(vanish_nodes_.size() <= degree_,
          "VssBatch: too many vanishing points");
  Require(groups_ >= 1, "VssBatch: need at least one group");
  // M maps nodes 1..dealers to dealers+1..2*dealers; it is hyperinvertible
  // only while those 2*dealers nodes are distinct mod p. Transform inverts
  // nothing, so nothing else would notice a collision.
  std::uint64_t word_p = 0;  // the modulus, when it fits in one word
  const Bytes modulus = ctx_->ModulusBytes();
  for (std::uint8_t byte : modulus) word_p = (word_p << 8) | byte;
  Require(modulus.size() > 8 || 2 * holders_.size() < word_p,
          "VssBatch: need 2 * dealers < p");
  for (std::uint32_t h : holders_) {
    holder_nodes_.push_back(points.alpha_node(h));
  }
  Require(holders_.size() >= degree_ + 1,
          "VssBatch: verification needs degree+1 holders");
  // One row per extra holder point (degree check) and per vanish point
  // (zero check). Every refresh window rebuilds a batch with the same point
  // sets, so the rows are memoized.
  const std::vector<FpElem> alphas = points.AlphasOf(holders_);
  const std::span<const FpElem> base(alphas.data(), degree_ + 1);
  std::vector<FpElem> zeros;  // V as points
  for (std::uint64_t v : vanish_nodes_) zeros.push_back(ctx_->FromUint64(v));
  parity_rows_ = math::CachedLagrangeWeights(
      *ctx_, base, std::span<const FpElem>(alphas).subspan(degree_ + 1));
  vanish_rows_ = math::CachedLagrangeWeights(*ctx_, base, zeros);
}

std::size_t VssBatch::IndexOf(std::uint32_t party) const {
  auto it = std::find(holders_.begin(), holders_.end(), party);
  return it == holders_.end() ? npos
                              : static_cast<std::size_t>(it - holders_.begin());
}

std::vector<math::Poly> VssBatch::DrawDealRandomness(Rng& rng) const {
  std::vector<math::Poly> us;
  us.reserve(groups_);
  for (std::size_t g = 0; g < groups_; ++g) {
    us.push_back(
        math::Poly::Random(*ctx_, rng, degree_ - vanish_nodes_.size()));
  }
  return us;
}

std::vector<std::vector<FpElem>> VssBatch::DealFrom(
    std::span<const math::Poly> us, std::uint64_t* extra_cpu_ns,
    DealTamper* tamper) const {
  Require(us.size() == groups_, "DealFrom: wrong group count");
  const std::size_t nh = holders_.size();
  obs::Span span(obs::SpanKind::kVssDeal, groups_, nh);
  std::vector<std::vector<FpElem>> out(
      nh, std::vector<FpElem>(groups_, ctx_->Zero()));
  // Each group is independent pure compute; out[k][g] slots are owned by
  // (k, g), so the per-group fan-out is deterministic for any pool size.
  GlobalPool().ParallelFor(
      0, groups_,
      [&](std::size_t g) {
        // z_g = u_g * prod (x - v): multiplying by (x - v) maps coefficient
        // i to c[i-1] - v*c[i], updated top-down in place.
        std::vector<FpElem> c = us[g].coeffs();
        for (std::uint64_t v : vanish_nodes_) {
          c.push_back(ctx_->Zero());
          for (std::size_t i = c.size(); i-- > 0;) {
            c[i] = ctx_->MulU64Add(ctx_->Neg(c[i]), v,
                                   i > 0 ? c[i - 1] : ctx_->Zero());
          }
        }
        Invariant(c.size() <= degree_ + 1, "DealFrom: dealing degree too high");
        if (c.empty()) return;
        for (std::size_t k = 0; k < nh; ++k) {
          FpElem acc = c.back();
          for (std::size_t i = c.size() - 1; i-- > 0;) {
            acc = ctx_->MulU64Add(acc, holder_nodes_[k], c[i]);
          }
          out[k][g] = acc;
        }
      },
      extra_cpu_ns);
  // Active-adversary seam: applied on the caller's thread after the pool
  // fan-out so tampering is deterministic for any pool size. Honest callers
  // pass null and take the branch-not-taken path only.
  if (tamper != nullptr) {
    tamper->TamperDeal(holders_, recovery_shape(), out);
    Require(out.size() == nh, "DealFrom: tamper changed holder count");
    for (const auto& row : out) {
      Require(row.size() == groups_, "DealFrom: tamper changed group count");
    }
  }
  return out;
}

std::vector<std::vector<FpElem>> VssBatch::Deal(Rng& rng,
                                                std::uint64_t* extra_cpu_ns,
                                                DealTamper* tamper) const {
  return DealFrom(DrawDealRandomness(rng), extra_cpu_ns, tamper);
}

std::vector<std::vector<FpElem>> VssBatch::Transform(
    const std::vector<std::vector<FpElem>>& deals_by_dealer,
    std::size_t workers, std::uint64_t* extra_cpu_ns) const {
  const std::size_t nh = holders_.size();
  Require(deals_by_dealer.size() == nh, "Transform: wrong dealer count");
  for (const auto& row : deals_by_dealer) {
    Require(row.size() == groups_, "Transform: wrong group count");
  }
  obs::Span span(obs::SpanKind::kVssTransform, nh, groups_);
  std::vector<std::vector<FpElem>> out(
      nh, std::vector<FpElem>(groups_, ctx_->Zero()));

  // Per group, x holds f(1..nh) for the group's degree < nh polynomial f.
  // Differencing in place leaves x[nh-1-j] = (backward difference)^j f(nh);
  // the top one is constant, so each pass of prefix sums moves the whole
  // table one node right and leaves f(nh + 1 + a) in x[nh-1] on pass a.
  // Static partition over groups: each chunk owns out[.][g] for its groups,
  // so results are deterministic regardless of scheduling.
  GlobalPool().ParallelChunks(
      0, groups_,
      [&](std::size_t g_begin, std::size_t g_end) {
        std::vector<FpElem> x(nh);
        for (std::size_t g = g_begin; g < g_end; ++g) {
          for (std::size_t i = 0; i < nh; ++i) x[i] = deals_by_dealer[i][g];
          for (std::size_t j = 1; j < nh; ++j) {
            for (std::size_t i = 0; i + j < nh; ++i) {
              x[i] = ctx_->Sub(x[i + 1], x[i]);
            }
          }
          for (std::size_t a = 0; a < nh; ++a) {
            for (std::size_t m = 1; m < nh; ++m) {
              x[m] = ctx_->Add(x[m], x[m - 1]);
            }
            out[a][g] = x[nh - 1];
          }
        }
      },
      extra_cpu_ns, std::max<std::size_t>(1, workers));
  return out;
}

bool VssBatch::VerifyCheckVector(std::span<const FpElem> values) const {
  if (values.size() != holders_.size()) return false;
  // Degree check: each point beyond the first degree+1 must match the
  // interpolant of those first points.
  for (std::size_t e = 0; e < parity_rows_->rows(); ++e) {
    if (!parity_rows_->Predicts(*ctx_, e, values, values[degree_ + 1 + e])) {
      return false;
    }
  }
  // Vanishing check: the interpolant is zero on V.
  for (std::size_t v = 0; v < vanish_rows_->rows(); ++v) {
    if (!vanish_rows_->Vanishes(*ctx_, v, values)) return false;
  }
  return true;
}

}  // namespace pisces::pss
