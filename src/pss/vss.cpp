#include "pss/vss.h"

#include <algorithm>
#include <bit>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/task_pool.h"
#include "field/limbs.h"
#include "math/weight_cache.h"
#include "obs/trace.h"

namespace pisces::pss {

std::size_t GroupsFor(std::size_t wanted, std::size_t usable_rows) {
  Require(usable_rows >= 1, "GroupsFor: no usable rows");
  return (wanted + usable_rows - 1) / usable_rows;
}

namespace {

// One limb of a carry (borrow) chain, a single adc (sbb) on x86-64.
inline unsigned char AddLimb(unsigned char carry, std::uint64_t a,
                             std::uint64_t b, std::uint64_t* r) {
#if defined(__x86_64__)
  unsigned long long s;
  carry = _addcarry_u64(carry, a, b, &s);
  *r = s;
  return carry;
#else
  const unsigned __int128 s = static_cast<unsigned __int128>(a) + b + carry;
  *r = static_cast<std::uint64_t>(s);
  return static_cast<unsigned char>(s >> 64);
#endif
}
inline unsigned char SubLimb(unsigned char borrow, std::uint64_t a,
                             std::uint64_t b, std::uint64_t* r) {
#if defined(__x86_64__)
  unsigned long long d;
  borrow = _subborrow_u64(borrow, a, b, &d);
  *r = d;
  return borrow;
#else
  const unsigned __int128 d = static_cast<unsigned __int128>(a) - b - borrow;
  *r = static_cast<std::uint64_t>(d);
  return static_cast<unsigned char>((d >> 64) & 1);
#endif
}

// The transform's finite differences and prefix sums on nh two's-complement
// integers of w limbs each, back to back in x; emit(a, x[nh-1]) sees output
// a. W > 0 fixes w at compile time, so the carry chains unroll.
template <std::size_t W, typename Emit>
void Extrapolate(std::uint64_t* x, std::size_t nh, std::size_t w,
                 Emit&& emit) {
  const std::size_t width = W > 0 ? W : w;
  for (std::size_t j = 1; j < nh; ++j) {
    for (std::size_t i = 0; i + j < nh; ++i) {
      std::uint64_t* xi = x + i * width;  // x[i] = x[i+1] - x[i]
      unsigned char borrow = 0;
#pragma GCC unroll 40
      for (std::size_t l = 0; l < width; ++l) {
        borrow = SubLimb(borrow, xi[width + l], xi[l], &xi[l]);
      }
    }
  }
  for (std::size_t a = 0; a < nh; ++a) {
    for (std::size_t m = 1; m < nh; ++m) {
      std::uint64_t* xm = x + m * width;  // x[m] += x[m-1]
      unsigned char carry = 0;
#pragma GCC unroll 40
      for (std::size_t l = 0; l < width; ++l) {
        carry = AddLimb(carry, xm[l], xm[l - width], &xm[l]);
      }
    }
    emit(a, x + (nh - 1) * width);
  }
}

}  // namespace

VssBatch::VssBatch(const FpCtx& ctx, const EvalPoints& points,
                   std::vector<std::uint32_t> holders,
                   std::vector<std::vector<std::uint64_t>> segments,
                   std::size_t degree, std::size_t check_rows,
                   std::size_t segment_groups, bool recovery)
    : ctx_(&ctx),
      holders_(std::move(holders)),
      segments_(std::move(segments)),
      degree_(degree),
      check_rows_(check_rows),
      segment_groups_(segment_groups),
      recovery_(recovery) {
  Require(!holders_.empty(), "VssBatch: no holders");
  Require(check_rows_ < holders_.size(),
          "VssBatch: need at least one usable row");
  Require(!segments_.empty(), "VssBatch: need at least one segment");
  Require(segment_groups_ >= 1, "VssBatch: need at least one group");
  // M maps nodes 1..dealers to dealers+1..2*dealers; it is hyperinvertible
  // only while those 2*dealers nodes are distinct mod p. Transform inverts
  // nothing, so nothing else would notice a collision.
  const std::span<const std::uint64_t> p = ctx_->modulus();
  Require(p.size() > 1 || 2 * holders_.size() < p[0],
          "VssBatch: need 2 * dealers < p");
  std::uint64_t x_max = 0;
  for (std::uint32_t h : holders_) {
    holder_nodes_.push_back(points.alpha_node(h));
    x_max = std::max(x_max, holder_nodes_.back());
  }
  // Extra limbs of the exact-integer kernels (docs/field_kernels.md, "Wide
  // integer accumulators"): a dealing value sum_{i<=d} c_i x^i is below
  // p * 2^(bit_width(x) * (d+1)); a transform intermediate, with its sign,
  // needs at most 4 nh - 2 - log2(pi nh) / 2 bits beyond p.
  const std::size_t deal_bits =
      static_cast<std::size_t>(std::bit_width(x_max)) * (degree_ + 1);
  deal_extra_ = (deal_bits + 63) / 64;
  transform_extra_ = std::max<std::size_t>(1, (holders_.size() + 14) / 16);
  Require(holders_.size() >= degree_ + 1,
          "VssBatch: verification needs degree+1 holders");
  // One row per extra holder point (degree check) and per vanish point of
  // each segment (zero check). Every refresh window rebuilds a batch with
  // the same point sets, so the rows are memoized.
  const std::vector<FpElem> alphas = points.AlphasOf(holders_);
  const std::span<const FpElem> base(alphas.data(), degree_ + 1);
  parity_rows_ = math::CachedLagrangeWeights(
      *ctx_, base, std::span<const FpElem>(alphas).subspan(degree_ + 1));
  for (const auto& vanish : segments_) {
    Require(vanish.size() <= degree_, "VssBatch: too many vanishing points");
    std::vector<FpElem> zeros;  // V as points
    for (std::uint64_t v : vanish) zeros.push_back(ctx_->FromUint64(v));
    vanish_rows_.push_back(math::CachedLagrangeWeights(*ctx_, base, zeros));
  }
}

std::size_t VssBatch::IndexOf(std::uint32_t party) const {
  auto it = std::find(holders_.begin(), holders_.end(), party);
  return it == holders_.end() ? npos
                              : static_cast<std::size_t>(it - holders_.begin());
}

std::vector<math::Poly> VssBatch::DrawDealRandomness(Rng& rng) const {
  std::vector<math::Poly> us;
  us.reserve(groups());
  for (std::size_t g = 0; g < groups(); ++g) {
    us.push_back(math::Poly::Random(
        *ctx_, rng, degree_ - segments_[g / segment_groups_].size()));
  }
  return us;
}

std::vector<std::vector<FpElem>> VssBatch::DealFrom(
    std::span<const math::Poly> us, std::uint64_t* extra_cpu_ns,
    DealTamper* tamper) const {
  Require(us.size() == groups(), "DealFrom: wrong group count");
  const std::size_t nh = holders_.size();
  obs::Span span(obs::SpanKind::kVssDeal, groups(), nh);
  std::vector<std::vector<FpElem>> out(
      nh, std::vector<FpElem>(groups(), ctx_->Zero()));
  const std::size_t k = ctx_->limbs();
  // Each group is independent pure compute; out[h][g] slots are owned by
  // (h, g), so the per-group fan-out is deterministic for any pool size.
  GlobalPool().ParallelFor(
      0, groups(),
      [&](std::size_t g) {
        // z_g = u_g * prod (x - v): multiplying by (x - v) maps coefficient
        // i to c[i-1] - v*c[i], updated top-down in place.
        std::vector<FpElem> c = us[g].coeffs();
        for (std::uint64_t v : segments_[g / segment_groups_]) {
          c.push_back(ctx_->Zero());
          for (std::size_t i = c.size(); i-- > 0;) {
            c[i] = ctx_->MulU64Add(ctx_->Neg(c[i]), v,
                                   i > 0 ? c[i - 1] : ctx_->Zero());
          }
        }
        Invariant(c.size() <= degree_ + 1, "DealFrom: dealing degree too high");
        if (c.empty()) return;
        // Horner over Z: z_g(x) = sum c_i x^i < p * x^(degree+1) fits the
        // k + deal_extra_ limbs (see the constructor), so the accumulator
        // only grows and is reduced once per holder.
        std::vector<std::uint64_t> acc(k + deal_extra_);
        for (std::size_t h = 0; h < nh; ++h) {
          const std::uint64_t x = holder_nodes_[h];
          std::fill(acc.begin(), acc.end(), 0);
          std::copy_n(c.back().v.data(), k, acc.data());
          std::size_t len = k;  // limbs that may be nonzero
          for (std::size_t i = c.size() - 1; i-- > 0;) {
            unsigned __int128 cur = 0;
            for (std::size_t j = 0; j < len; ++j) {
              cur += static_cast<unsigned __int128>(acc[j]) * x +
                     (j < k ? c[i].v[j] : 0);
              acc[j] = static_cast<std::uint64_t>(cur);
              cur >>= 64;
            }
            if (cur != 0) {
              Invariant(len < acc.size(), "DealFrom: accumulator overflow");
              acc[len++] = static_cast<std::uint64_t>(cur);
            }
          }
          out[h][g] = ctx_->ReduceWide(acc);
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
      Require(row.size() == groups(), "DealFrom: tamper changed group count");
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
    Require(row.size() == groups(), "Transform: wrong group count");
  }
  obs::Span span(obs::SpanKind::kVssTransform, nh, groups());
  std::vector<std::vector<FpElem>> out(
      nh, std::vector<FpElem>(groups(), ctx_->Zero()));

  // Per group, x holds f(1..nh) for the group's degree < nh polynomial f,
  // as exact integers: the inputs are the residues themselves and every
  // step is an integer add or subtract, so the outputs are the integer
  // extrapolations, and their residues are the field outputs. Each value is
  // a two's-complement integer of w = k + transform_extra_ limbs, wide
  // enough for every intermediate (see the constructor). Differencing in
  // place leaves x[nh-1-j] = (backward difference)^j f(nh); the top one is
  // constant, so each pass of prefix sums moves the whole table one node
  // right and leaves f(nh + 1 + a) in x[nh-1] on pass a, which is reduced.
  // Static partition over groups: each chunk owns out[.][g] for its groups
  // and its own scratch, so results are deterministic regardless of
  // scheduling.
  const std::size_t k = ctx_->limbs();
  const std::size_t w = k + transform_extra_;
  GlobalPool().ParallelChunks(
      0, groups(),
      [&](std::size_t g_begin, std::size_t g_end) {
        std::vector<std::uint64_t> x(nh * w);
        std::vector<std::uint64_t> top(w);
        for (std::size_t g = g_begin; g < g_end; ++g) {
          for (std::size_t i = 0; i < nh; ++i) {
            std::uint64_t* xi = x.data() + i * w;
            std::copy_n(deals_by_dealer[i][g].v.data(), k, xi);
            std::fill(xi + k, xi + w, 0);
          }
          auto emit = [&](std::size_t a, const std::uint64_t* last) {
            if (last[w - 1] >> 63) {
              // -last, then the residue of that, negated back.
              std::fill(top.begin(), top.end(), 0);
              field::SubN(top.data(), top.data(), last, w);
              out[a][g] = ctx_->Neg(ctx_->ReduceWide(top));
            } else {
              std::copy_n(last, w, top.data());
              out[a][g] = ctx_->ReduceWide(top);
            }
          };
          switch (w) {
            case 5: Extrapolate<5>(x.data(), nh, w, emit); break;
            case 6: Extrapolate<6>(x.data(), nh, w, emit); break;
            case 9: Extrapolate<9>(x.data(), nh, w, emit); break;
            case 10: Extrapolate<10>(x.data(), nh, w, emit); break;
            case 17: Extrapolate<17>(x.data(), nh, w, emit); break;
            case 18: Extrapolate<18>(x.data(), nh, w, emit); break;
            case 33: Extrapolate<33>(x.data(), nh, w, emit); break;
            case 34: Extrapolate<34>(x.data(), nh, w, emit); break;
            default: Extrapolate<0>(x.data(), nh, w, emit);
          }
        }
      },
      extra_cpu_ns, std::max<std::size_t>(1, workers));
  return out;
}

bool VssBatch::VerifyCheckVector(std::span<const FpElem> values,
                                 std::size_t group) const {
  if (values.size() != holders_.size()) return false;
  // Degree check: each point beyond the first degree+1 must match the
  // interpolant of those first points.
  for (std::size_t e = 0; e < parity_rows_->rows(); ++e) {
    if (!parity_rows_->Predicts(*ctx_, e, values, values[degree_ + 1 + e])) {
      return false;
    }
  }
  // Vanishing check: the interpolant is zero on the segment's V.
  const math::WeightRows& zero = *vanish_rows_.at(group / segment_groups_);
  for (std::size_t v = 0; v < zero.rows(); ++v) {
    if (!zero.Vanishes(*ctx_, v, values)) return false;
  }
  return true;
}

}  // namespace pisces::pss
