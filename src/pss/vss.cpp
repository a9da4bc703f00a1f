#include "pss/vss.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "common/task_pool.h"
#include "field/fp_kernels.h"
#include "field/limbs.h"
#include "math/weight_cache.h"
#include "obs/trace.h"

namespace pisces::pss {

std::size_t GroupsFor(std::size_t wanted, std::size_t usable_rows) {
  Require(usable_rows >= 1, "GroupsFor: no usable rows");
  return (wanted + usable_rows - 1) / usable_rows;
}

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// The exact-integer kernels below take the value width w as a template
// parameter W where it is one of the k + e widths of the standard fields
// with e <= 2, so their carry chains unroll; W = 0 is the runtime-width
// instance. WithWidth calls f with the instance for w.
template <typename F>
void WithWidth(std::size_t w, F&& f) {
  switch (w) {
    case 5: f(std::integral_constant<std::size_t, 5>{}); break;
    case 6: f(std::integral_constant<std::size_t, 6>{}); break;
    case 9: f(std::integral_constant<std::size_t, 9>{}); break;
    case 10: f(std::integral_constant<std::size_t, 10>{}); break;
    case 17: f(std::integral_constant<std::size_t, 17>{}); break;
    case 18: f(std::integral_constant<std::size_t, 18>{}); break;
    case 33: f(std::integral_constant<std::size_t, 33>{}); break;
    case 34: f(std::integral_constant<std::size_t, 34>{}); break;
    default: f(std::integral_constant<std::size_t, 0>{});
  }
}

// x[0..w) = x[w..2w) - x[0..w): one borrow chain over two's-complement
// values. On x86-64 a width-templated instance is a single sbb chain; GCC
// wraps every _subborrow_u64 limb in setc/addb, which doubles its length.
template <std::size_t W>
inline void SubFromNext(u64* x, [[maybe_unused]] std::size_t w) {
#if PISCES_FIELD_ASM
  if constexpr (W > 0) {
    u64 t;
    asm volatile(
        "mov %c[w8](%[x]), %[t]\n\t"
        "sub (%[x]), %[t]\n\t"
        "mov %[t], (%[x])\n\t"
        ".set .Lpl, 1\n\t"
        ".rept %c[w] - 1\n\t"
        "mov %c[w8]+8*.Lpl(%[x]), %[t]\n\t"
        "sbb 8*.Lpl(%[x]), %[t]\n\t"
        "mov %[t], 8*.Lpl(%[x])\n\t"
        ".set .Lpl, .Lpl + 1\n\t"
        ".endr"
        : [t] "=&r"(t)
        : [x] "r"(x), [w] "i"(W), [w8] "i"(8 * W)
        : "cc", "memory");
    return;
  }
#endif
  const std::size_t width = W > 0 ? W : w;
  u64 borrow = 0;
#pragma GCC unroll 40
  for (std::size_t l = 0; l < width; ++l) {
    const u128 d = static_cast<u128>(x[width + l]) - x[l] - borrow;
    x[l] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
}

// x[0..w) += x[-w..0): one carry chain (adc on x86-64, as above).
template <std::size_t W>
inline void AddPrev(u64* x, [[maybe_unused]] std::size_t w) {
#if PISCES_FIELD_ASM
  if constexpr (W > 0) {
    u64 t;
    asm volatile(
        "mov (%[x]), %[t]\n\t"
        "add -%c[w8](%[x]), %[t]\n\t"
        "mov %[t], (%[x])\n\t"
        ".set .Lpl, 1\n\t"
        ".rept %c[w] - 1\n\t"
        "mov 8*.Lpl(%[x]), %[t]\n\t"
        "adc 8*.Lpl-%c[w8](%[x]), %[t]\n\t"
        "mov %[t], 8*.Lpl(%[x])\n\t"
        ".set .Lpl, .Lpl + 1\n\t"
        ".endr"
        : [t] "=&r"(t)
        : [x] "r"(x), [w] "i"(W), [w8] "i"(8 * W)
        : "cc", "memory");
    return;
  }
#endif
  const std::size_t width = W > 0 ? W : w;
  const u64* prev = x - width;
  u64 carry = 0;
#pragma GCC unroll 40
  for (std::size_t l = 0; l < width; ++l) {
    const u128 s = static_cast<u128>(x[l]) + prev[l] + carry;
    x[l] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
}

// acc[0..w) = acc * x + add[0..w) for a word x; returns the carry out of the
// top limb, which the callers' bounds keep at zero. `adx` selects the
// flag-chained row (mulx forms each product, adcx adds the low halves
// through CF and adox the high halves one limb up through OF); it needs a
// width-templated instance and field::kernels::AdxAvailable().
template <std::size_t W>
inline u64 MulAddRow(u64* acc, const u64* add, u64 x,
                     [[maybe_unused]] std::size_t w,
                     [[maybe_unused]] bool adx) {
#if PISCES_FIELD_ASM
  if constexpr (W > 0) {
    if (adx) {
      u64 lo, hi, cur;
      asm volatile(
          "xor %k[hi], %k[hi]\n\t"
          ".set .Lpl, 0\n\t"
          ".rept %c[w]\n\t"
          "mov 8*.Lpl(%[add]), %[cur]\n\t"
          "adox %[hi], %[cur]\n\t"
          "mulx 8*.Lpl(%[acc]), %[lo], %[hi]\n\t"
          "adcx %[lo], %[cur]\n\t"
          "mov %[cur], 8*.Lpl(%[acc])\n\t"
          ".set .Lpl, .Lpl + 1\n\t"
          ".endr\n\t"
          "mov $0, %k[lo]\n\t"
          "adox %[lo], %[hi]\n\t"
          "adcx %[lo], %[hi]"
          : [lo] "=&r"(lo), [hi] "=&r"(hi), [cur] "=&r"(cur)
          : [acc] "r"(acc), [add] "r"(add), "d"(x), [w] "i"(W)
          : "cc", "memory");
      return hi;
    }
  }
#endif
  const std::size_t width = W > 0 ? W : w;
  u128 cur = 0;
#pragma GCC unroll 40
  for (std::size_t j = 0; j < width; ++j) {
    cur += static_cast<u128>(acc[j]) * x + add[j];
    acc[j] = static_cast<u64>(cur);
    cur >>= 64;
  }
  return static_cast<u64>(cur);
}

// The transform's finite differences and prefix sums on nh two's-complement
// integers of w limbs each, back to back in x; emit(a, x[nh-1]) sees output
// a. W as in WithWidth.
template <std::size_t W, typename Emit>
void Extrapolate(u64* x, std::size_t nh, std::size_t w, Emit&& emit) {
  const std::size_t width = W > 0 ? W : w;
  for (std::size_t j = 1; j < nh; ++j) {
    for (std::size_t i = 0; i + j < nh; ++i) {
      SubFromNext<W>(x + i * width, w);  // x[i] = x[i+1] - x[i]
    }
  }
  for (std::size_t a = 0; a < nh; ++a) {
    for (std::size_t m = 1; m < nh; ++m) {
      AddPrev<W>(x + m * width, w);  // x[m] += x[m-1]
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
  for (const auto& vanish : segments_) {
    for (std::uint64_t v : vanish) x_max = std::max(x_max, v);
  }
  // Extra limbs of the exact-integer kernels (docs/field_kernels.md, "Wide
  // integer accumulators"): a dealing value |V(x)| * u(x), with deg u =
  // d - |V| and every node in [1, x_max], is below p * x_max^(d+1) <=
  // p * 2^(bit_width(x_max) * (d+1)); a transform intermediate, with its
  // sign, needs at most 4 nh - 2 - log2(pi nh) / 2 bits beyond p.
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

std::vector<Bytes> VssBatch::DealFrom(std::span<const math::Poly> us,
                                      std::uint64_t* extra_cpu_ns,
                                      DealTamper* tamper) const {
  Require(us.size() == groups(), "DealFrom: wrong group count");
  const std::size_t nh = holders_.size();
  obs::Span span(obs::SpanKind::kVssDeal, groups(), nh);
  const std::size_t eb = ctx_->elem_bytes();
  std::vector<Bytes> out(nh, Bytes(groups() * eb, 0));
  const std::size_t k = ctx_->limbs();
  const std::size_t w = k + deal_extra_;
  // A kGeneric context (kernel_width() 0) runs the runtime-width portable
  // rows: the differential oracle of the templated and flag-chained ones.
  const bool specialized = ctx_->kernel_width() != 0;
  const bool adx = specialized && field::kernels::AdxAvailable();
  // Each group is independent pure compute; element g of every row is owned
  // by group g, so the per-group fan-out is deterministic for any pool size.
  GlobalPool().ParallelFor(
      0, groups(),
      [&](std::size_t g) {
        const std::vector<FpElem>& u = us[g].coeffs();
        const std::vector<std::uint64_t>& vanish =
            segments_[g / segment_groups_];
        Invariant(u.size() + vanish.size() <= degree_ + 1,
                  "DealFrom: dealing degree too high");
        if (u.empty()) return;  // z_g = 0, already written
        // u's coefficients as w-limb integers, and a zero addend for the
        // factor rows.
        std::vector<u64> coef(u.size() * w, 0), acc(w), zero(w, 0);
        for (std::size_t i = 0; i < u.size(); ++i) {
          std::copy_n(u[i].v.data(), k, coef.data() + i * w);
        }
        WithWidth(specialized ? w : 0, [&](auto width) {
          auto row = [&](const u64* add, u64 x) {
            const u64 carry =
                MulAddRow<decltype(width)::value>(acc.data(), add, x, w, adx);
            Invariant(carry == 0, "DealFrom: accumulator overflow");
          };
          for (std::size_t h = 0; h < nh; ++h) {
            const u64 x = holder_nodes_[h];
            // u_g(x) over Z by Horner, one row per coefficient.
            std::copy_n(coef.data() + (u.size() - 1) * w, w, acc.data());
            for (std::size_t i = u.size() - 1; i-- > 0;) {
              row(coef.data() + i * w, x);
            }
            // Times V(x) = prod (x - v): |x - v| packed into word-sized
            // factors, one row each (one row unless |V(x)| outgrows a
            // word), and the sign kept aside.
            bool negative = false;
            u64 factor = 1;
            for (u64 v : vanish) {
              const u64 d = x > v ? x - v : v - x;
              negative ^= v > x;
              u64 next;
              if (__builtin_mul_overflow(factor, d, &next)) {
                row(zero.data(), factor);
                next = d;
              }
              factor = next;
            }
            if (factor != 1) row(zero.data(), factor);
            const FpElem r = ctx_->ReduceWide(acc);
            ctx_->ToBytes(negative ? ctx_->Neg(r) : r, out[h].data() + g * eb);
          }
        });
      },
      extra_cpu_ns);
  // Active-adversary seam: applied on the caller's thread after the pool
  // fan-out so tampering is deterministic for any pool size. Honest callers
  // pass null and take the branch-not-taken path only.
  if (tamper != nullptr) {
    tamper->TamperDeal(holders_, recovery_shape(), out);
    Require(out.size() == nh, "DealFrom: tamper changed holder count");
    for (const Bytes& row : out) {
      Require(row.size() == groups() * eb,
              "DealFrom: tamper changed group count");
    }
  }
  return out;
}

std::vector<Bytes> VssBatch::Deal(Rng& rng, std::uint64_t* extra_cpu_ns,
                                  DealTamper* tamper) const {
  return DealFrom(DrawDealRandomness(rng), extra_cpu_ns, tamper);
}

std::vector<Bytes> VssBatch::Transform(
    const std::vector<Bytes>& deals_by_dealer, std::size_t workers,
    std::uint64_t* extra_cpu_ns) const {
  const std::size_t nh = holders_.size();
  const std::size_t eb = ctx_->elem_bytes();
  Require(deals_by_dealer.size() == nh, "Transform: wrong dealer count");
  for (const Bytes& row : deals_by_dealer) {
    Require(row.size() == groups() * eb, "Transform: wrong group count");
  }
  obs::Span span(obs::SpanKind::kVssTransform, nh, groups());
  std::vector<Bytes> out(nh, Bytes(groups() * eb));

  // Per group, x holds f(1..nh) for the group's degree < nh polynomial f,
  // as exact integers: the inputs are the residues themselves and every
  // step is an integer add or subtract, so the outputs are the integer
  // extrapolations, and their residues are the field outputs. Each value is
  // a two's-complement integer of w = k + transform_extra_ limbs, wide
  // enough for every intermediate (see the constructor). Differencing in
  // place leaves x[nh-1-j] = (backward difference)^j f(nh); the top one is
  // constant, so each pass of prefix sums moves the whole table one node
  // right and leaves f(nh + 1 + a) in x[nh-1] on pass a, which is reduced.
  // Each difference and prefix sum is one borrow or carry chain over a value
  // (width-templated; runtime-width on a kGeneric context, the oracle).
  // Static partition over groups: each chunk owns element g of every output
  // row for its groups and its own scratch, so results are deterministic
  // regardless of scheduling.
  const std::size_t k = ctx_->limbs();
  const std::size_t w = k + transform_extra_;
  const bool specialized = ctx_->kernel_width() != 0;
  GlobalPool().ParallelChunks(
      0, groups(),
      [&](std::size_t g_begin, std::size_t g_end) {
        std::vector<std::uint64_t> x(nh * w);
        std::vector<std::uint64_t> top(w);
        for (std::size_t g = g_begin; g < g_end; ++g) {
          for (std::size_t i = 0; i < nh; ++i) {
            std::uint64_t* xi = x.data() + i * w;
            const std::uint8_t* in = deals_by_dealer[i].data() + g * eb;
            for (std::size_t l = 0; l < k; ++l) xi[l] = LoadLe64(in + 8 * l);
            std::fill(xi + k, xi + w, 0);
          }
          auto emit = [&](std::size_t a, const std::uint64_t* last) {
            std::uint8_t* dst = out[a].data() + g * eb;
            if (last[w - 1] >> 63) {
              // -last, then the residue of that, negated back.
              std::fill(top.begin(), top.end(), 0);
              field::SubN(top.data(), top.data(), last, w);
              ctx_->ToBytes(ctx_->Neg(ctx_->ReduceWide(top)), dst);
            } else {
              std::copy_n(last, w, top.data());
              ctx_->ToBytes(ctx_->ReduceWide(top), dst);
            }
          };
          WithWidth(specialized ? w : 0, [&](auto width) {
            Extrapolate<decltype(width)::value>(x.data(), nh, w, emit);
          });
        }
      },
      extra_cpu_ns, std::max<std::size_t>(1, workers));
  return out;
}

bool VssBatch::VerifyCheckVector(std::span<const std::uint8_t* const> values,
                                 std::size_t group) const {
  if (values.size() != holders_.size()) return false;
  // Degree check: each point beyond the first degree+1 must match the
  // interpolant of those first points; vanishing check: the interpolant is
  // zero on the segment's V.
  return parity_rows_->Predicts(*ctx_, values, values.subspan(degree_ + 1)) &&
         vanish_rows_.at(group / segment_groups_)->Vanishes(*ctx_, values);
}

bool VssBatch::VerifyCheckRows(
    std::span<const std::uint8_t* const> rows) const {
  const std::size_t eb = ctx_->elem_bytes();
  std::vector<const std::uint8_t*> column(rows.size());
  for (std::size_t g = 0; g < groups(); ++g) {
    for (std::size_t k = 0; k < rows.size(); ++k) column[k] = rows[k] + g * eb;
    if (!VerifyCheckVector(column, g)) return false;
  }
  return true;
}

}  // namespace pisces::pss
