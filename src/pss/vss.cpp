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
                   std::vector<FpElem> vanish, std::size_t degree,
                   std::size_t check_rows, std::size_t groups, bool recovery)
    : ctx_(&ctx),
      holders_(std::move(holders)),
      vanish_(std::move(vanish)),
      degree_(degree),
      check_rows_(check_rows),
      groups_(groups),
      recovery_(recovery) {
  Require(!holders_.empty(), "VssBatch: no holders");
  Require(check_rows_ < holders_.size(),
          "VssBatch: need at least one usable row");
  Require(vanish_.size() <= degree_, "VssBatch: too many vanishing points");
  Require(groups_ >= 1, "VssBatch: need at least one group");
  holder_alphas_.reserve(holders_.size());
  for (std::uint32_t h : holders_) holder_alphas_.push_back(points.alpha(h));
  m_ = math::CachedHyperInvertible(*ctx_, holders_.size(), holders_.size());
  vanishing_poly_ = math::Poly::Vanishing(*ctx_, vanish_);
  eval_rows_ = math::CachedVandermondeRows(*ctx_, holder_alphas_, degree_ + 1);
  Require(holders_.size() >= degree_ + 1,
          "VssBatch: verification needs degree+1 holders");
  // One weight vector per extra holder point (degree check) and per vanish
  // point (zero check), sharing one batch inversion. Every refresh window
  // rebuilds a batch with the same point sets, so the weights are memoized.
  std::vector<FpElem> eval_points(holder_alphas_.begin() + degree_ + 1,
                                  holder_alphas_.end());
  n_extra_ = eval_points.size();
  eval_points.insert(eval_points.end(), vanish_.begin(), vanish_.end());
  check_weights_ = math::CachedLagrangeWeights(
      *ctx_, std::span<const FpElem>(holder_alphas_.data(), degree_ + 1),
      eval_points);
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
    us.push_back(math::Poly::Random(*ctx_, rng, degree_ - vanish_.size()));
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
  // Each group is independent pure compute: z_g = W * u_g evaluated at every
  // holder point via the cached Vandermonde rows. out[k][g] slots are owned
  // by (k, g), so the per-group fan-out is deterministic for any pool size.
  GlobalPool().ParallelFor(
      0, groups_,
      [&](std::size_t g) {
        math::Poly z = math::Poly::Mul(*ctx_, vanishing_poly_, us[g]);
        const std::vector<FpElem>& c = z.coeffs();
        Invariant(c.size() <= degree_ + 1, "DealFrom: dealing degree too high");
        for (std::size_t k = 0; k < nh; ++k) {
          out[k][g] = ctx_->Dot(eval_rows_->Row(k).first(c.size()), c);
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

  // Static partition over output rows: each row a is owned by exactly one
  // chunk, so results are deterministic regardless of scheduling.
  GlobalPool().ParallelChunks(
      0, nh,
      [&](std::size_t a_begin, std::size_t a_end) {
        // Lazy accumulation: one DotAcc per (row, group), fed across dealers
        // in the same cache-friendly i-outer order, reduced once per output.
        std::vector<field::DotAcc> accs(groups_, field::DotAcc(*ctx_));
        for (std::size_t a = a_begin; a < a_end; ++a) {
          for (auto& acc : accs) acc.Reset();
          for (std::size_t i = 0; i < nh; ++i) {
            const FpElem& m_ai = m_->At(a, i);
            for (std::size_t g = 0; g < groups_; ++g) {
              accs[g].MulAdd(m_ai, deals_by_dealer[i][g]);
            }
          }
          for (std::size_t g = 0; g < groups_; ++g) {
            out[a][g] = accs[g].Reduce();
          }
        }
      },
      extra_cpu_ns, std::max<std::size_t>(1, workers));
  return out;
}

bool VssBatch::VerifyCheckVector(std::span<const FpElem> values) const {
  if (values.size() != holders_.size()) return false;
  const auto& weights = *check_weights_;
  // Degree check: each point beyond the first degree+1 must match the
  // interpolant of those first points.
  for (std::size_t e = 0; e < n_extra_; ++e) {
    FpElem predicted = math::PointChecker::Apply(*ctx_, weights[e], values);
    if (!ctx_->Eq(predicted, values[degree_ + 1 + e])) return false;
  }
  // Vanishing check: evaluate the interpolant on V (precomputed weights).
  for (std::size_t v = n_extra_; v < weights.size(); ++v) {
    if (!ctx_->IsZero(math::PointChecker::Apply(*ctx_, weights[v], values))) {
      return false;
    }
  }
  return true;
}

}  // namespace pisces::pss
