// Width-specialized Montgomery kernels.
//
// The generic multiply in fp.cpp (schoolbook product, then REDC) carries a
// runtime loop bound k, which blocks unrolling and keeps every product paying
// loop/branch overhead per limb. The paper's standard field sizes g in {256,
// 512, 1024, 2048} map to exactly k in {4, 8, 16, 32} limbs, so this header
// provides the same algorithms as function templates on a compile-time limb
// count K: the compiler sees constant trip counts, fully unrolls the small
// widths, and keeps carries in registers. FpCtx selects a KernelVTable once at
// construction (function pointers, no per-call branching on width); the
// runtime-k path in fp.cpp remains both the fallback for odd widths and the
// differential-test oracle (tests/field_kernel_test.cpp). The word-scalar
// kernels at the end (ReduceDigitK, DotI64K) carry their runtime-width
// instance themselves: K = 0 reads the width from an argument.
//
// On x86-64 CPUs with ADX and BMI2, the Montgomery kernels at K in {8, 16,
// 32} are replaced by flag-chained assembly (fp_kernels_x86.cpp) in the
// table FpCtx binds; these templates remain the portable path (other CPUs
// and targets, sanitizer builds, K = 4) and, with the runtime-k path, the
// differential oracle.
//
// Contract: every kernel produces the canonical (< p) representative, so
// outputs are bit-identical to the generic path. See docs/field_kernels.md
// for the dispatch scheme and the lazy-reduction accumulator bound proof.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "field/limbs.h"

// PISCES_FIELD_ASM is 1 where the x86-64 carry-chain kernels are compiled:
// their inline assembly is invisible to AddressSanitizer and
// ThreadSanitizer, so those builds (and every other target) compile only
// the portable templates below.
#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#define PISCES_FIELD_ASM 1
#else
#define PISCES_FIELD_ASM 0
#endif
#if defined(__has_feature)  // clang's spelling of the sanitizer checks
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#undef PISCES_FIELD_ASM
#define PISCES_FIELD_ASM 0
#endif
#endif

namespace pisces::field::kernels {

// Active limbs of the lazy dot-product accumulator for width k: 2k limbs hold
// one full product a_i*b_i < p^2, and one extra limb absorbs the carries of up
// to 2^64 summed products (n*p^2 < 2^{64(2k+1)} for n <= 2^64).
inline constexpr std::size_t WideLimbs(std::size_t k) { return 2 * k + 1; }

// CIOS Montgomery multiplication, compile-time width: r = a*b*R^{-1} mod p,
// canonical. Writes exactly K limbs of r. Aliasing r with a or b is allowed
// (the product is built in a local buffer).
template <std::size_t K>
inline void MontMulK(const std::uint64_t* p, std::uint64_t n0inv,
                     const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* r) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  u64 t[K + 2] = {0};
  for (std::size_t i = 0; i < K; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[K]) + carry;
    t[K] = static_cast<u64>(s);
    t[K + 1] = static_cast<u64>(s >> 64);

    u64 m = t[0] * n0inv;
    u128 cur = static_cast<u128>(m) * p[0] + t[0];
    carry = static_cast<u64>(cur >> 64);
    for (std::size_t j = 1; j < K; ++j) {
      cur = static_cast<u128>(m) * p[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    s = static_cast<u128>(t[K]) + carry;
    t[K - 1] = static_cast<u64>(s);
    t[K] = t[K + 1] + static_cast<u64>(s >> 64);
  }
  // t < 2p: one conditional subtraction yields the canonical representative.
  bool ge = t[K] != 0;
  if (!ge) {
    ge = true;  // t == p also subtracts (yields zero)
    for (std::size_t i = K; i-- > 0;) {
      if (t[i] != p[i]) {
        ge = t[i] > p[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < K; ++i) {
      u128 d = static_cast<u128>(t[i]) - p[i] - borrow;
      r[i] = static_cast<u64>(d);
      borrow = static_cast<u64>((d >> 64) & 1);
    }
  } else {
    for (std::size_t i = 0; i < K; ++i) r[i] = t[i];
  }
}

// Wide square t[0..2K) = a^2, exploiting symmetry: cross products computed
// once and doubled, diagonal terms added after. ~K^2/2 limb multiplies
// versus K^2 for the generic schoolbook product.
template <std::size_t K>
inline void WideSqrK(const std::uint64_t* a, std::uint64_t* t) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  for (std::size_t i = 0; i < 2 * K; ++i) t[i] = 0;
  for (std::size_t i = 0; i < K; ++i) {
    u64 carry = 0;
    for (std::size_t j = i + 1; j < K; ++j) {
      u128 cur = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + K] = carry;
  }
  // Double the cross sum (2*sum < a^2 < 2^{128K}: the shifted-out bit is 0).
  u64 bit = 0;
  for (std::size_t i = 0; i < 2 * K; ++i) {
    u64 v = t[i];
    t[i] = (v << 1) | bit;
    bit = v >> 63;
  }
  // Add the diagonal a[i]^2 at limb 2i.
  u64 carry = 0;
  for (std::size_t i = 0; i < K; ++i) {
    u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 lo = static_cast<u128>(t[2 * i]) + static_cast<u64>(sq) + carry;
    t[2 * i] = static_cast<u64>(lo);
    u128 hi = static_cast<u128>(t[2 * i + 1]) + static_cast<u64>(sq >> 64) +
              static_cast<u64>(lo >> 64);
    t[2 * i + 1] = static_cast<u64>(hi);
    carry = static_cast<u64>(hi >> 64);
  }
}

// Montgomery reduction of a 2K-limb value T < R*p (K REDC steps): r =
// T*R^{-1} mod p, canonical. Clobbers t.
template <std::size_t K>
inline void MontRedcK(const std::uint64_t* p, std::uint64_t n0inv,
                      std::uint64_t* t, std::uint64_t* r) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  // Deferred-carry REDC (the mpn_redc_1 shape): step s's carry-out lands at
  // limb s+K >= K, and no later step reads a limb >= K when forming its m, so
  // all K carry limbs can be saved and added in one fixed-length pass at the
  // end. Every loop has a constant trip count -> full unrolling.
  u64 cys[K];
  for (std::size_t s = 0; s < K; ++s) {
    u64 m = t[s] * n0inv;
    u64 carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      u128 cur = static_cast<u128>(m) * p[j] + t[s + j] + carry;
      t[s + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cys[s] = carry;
  }
  u64 carry = 0;
  for (std::size_t s = 0; s < K; ++s) {
    u128 sum = static_cast<u128>(t[K + s]) + cys[s] + carry;
    t[K + s] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  const u64 extra = carry;  // virtual limb t[2K]; total < 2Rp < 2^{128K+1}
  // Result limbs are t[K..2K) plus `extra` on top; value < 2p.
  const u64* th = t + K;
  bool ge = extra != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = K; i-- > 0;) {
      if (th[i] != p[i]) {
        ge = th[i] > p[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < K; ++i) {
      u128 d = static_cast<u128>(th[i]) - p[i] - borrow;
      r[i] = static_cast<u64>(d);
      borrow = static_cast<u64>((d >> 64) & 1);
    }
  } else {
    for (std::size_t i = 0; i < K; ++i) r[i] = th[i];
  }
}

// Dedicated squaring kernel: wide square + one Montgomery reduction.
// r = a^2 * R^{-1} mod p, canonical (bit-identical to MontMulK(a, a)).
template <std::size_t K>
inline void MontSqrK(const std::uint64_t* p, std::uint64_t n0inv,
                     const std::uint64_t* a, std::uint64_t* r) {
  std::uint64_t t[2 * K];
  WideSqrK<K>(a, t);
  MontRedcK<K>(p, n0inv, t, r);
}

// Lazy-reduction accumulate: t[0..2K] += a*b with no reduction. The caller
// guarantees fewer than 2^64 accumulated products, so the carry never
// escapes limb 2K (see WideLimbs above).
template <std::size_t K>
inline void MulAccK(std::uint64_t* t, const std::uint64_t* a,
                    const std::uint64_t* b) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  for (std::size_t i = 0; i < K; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      u128 cur = static_cast<u128>(a[i]) * b[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    for (std::size_t idx = i + K; carry != 0 && idx <= 2 * K; ++idx) {
      u128 sum = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
  }
}

// Reduce a (2K+1)-limb lazy accumulator T < 2^64 * p^2 with K+1 REDC steps:
// r = T * 2^{-64(K+1)} mod p, canonical. The extra 2^{-64} factor (relative
// to a plain T*R^{-1}) is corrected by the caller with one Montgomery
// multiplication by 2^64*R^2 mod p (FpCtx::two64r2_), which also restores
// the R^{-1} of the reduction itself: plain inputs give a plain sum. t must
// have 2K+2 limbs with t[2K+1] == 0 on entry; clobbered.
//
// Bound: each step maps t -> (t + m*p)/2^64 <= t/2^64 + p, so after K+1
// steps the result is < T/2^{64(K+1)} + p <= (n/2^64)*(p^2/R) + p < 2p for
// n <= 2^64 accumulated products (p < R). One conditional subtraction.
template <std::size_t K>
inline void MontRedcWideK(const std::uint64_t* p, std::uint64_t n0inv,
                          std::uint64_t* t, std::uint64_t* r) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  // Two phases, all loops constant-trip. Phase 1 is the K-step deferred-carry
  // REDC of MontRedcK over t[0..2K), with the carry pass extended through the
  // two top limbs; it leaves V1 = (T + sum m_s p 2^{64s})/R < (2^64+1)p in
  // limbs t[K..2K+1]. (Step K below reads t[K] for its m, so t[K] must
  // already include the deferred carry cys[0] -- which is exactly what the
  // carry pass guarantees before phase 2 starts.)
  u64 cys[K];
  for (std::size_t s = 0; s < K; ++s) {
    u64 m = t[s] * n0inv;
    u64 carry = 0;
    for (std::size_t j = 0; j < K; ++j) {
      u128 cur = static_cast<u128>(m) * p[j] + t[s + j] + carry;
      t[s + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cys[s] = carry;
  }
  u64 carry = 0;
  for (std::size_t s = 0; s < K; ++s) {
    u128 sum = static_cast<u128>(t[K + s]) + cys[s] + carry;
    t[K + s] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  {
    u128 sum = static_cast<u128>(t[2 * K]) + carry;
    t[2 * K] = static_cast<u64>(sum);
    t[2 * K + 1] += static_cast<u64>(sum >> 64);
  }
  // Phase 2: one more REDC step on the (K+2)-limb window w = t+K, dividing by
  // the final 2^64: V2 <= V1/2^64 + p(1 - 2^-64) < 2p.
  u64* w = t + K;
  u64 m = w[0] * n0inv;
  carry = 0;
  for (std::size_t j = 0; j < K; ++j) {
    u128 cur = static_cast<u128>(m) * p[j] + w[j] + carry;
    w[j] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  {
    u128 sum = static_cast<u128>(w[K]) + carry;
    w[K] = static_cast<u64>(sum);
    w[K + 1] += static_cast<u64>(sum >> 64);
  }
  // Result limbs are t[K+1 .. 2K+1] (K+1 limbs); value < 2p so the top limb
  // t[2K+1] is at most 1.
  const u64* th = t + K + 1;
  bool ge = th[K] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = K; i-- > 0;) {
      if (th[i] != p[i]) {
        ge = th[i] > p[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < K; ++i) {
      u128 d = static_cast<u128>(th[i]) - p[i] - borrow;
      r[i] = static_cast<u64>(d);
      borrow = static_cast<u64>((d >> 64) & 1);
    }
  } else {
    for (std::size_t i = 0; i < K; ++i) r[i] = th[i];
  }
}

// What a quotient-digit reduction needs beyond the modulus limbs: the
// modulus shifted left by lz bits has top word top_norm (high bit set), and
// top_recip = floor((2^128 - 1) / top_norm) - 2^64 is its 2/1 division
// reciprocal (Moller-Granlund), so the kernel never divides.
struct DigitReciprocal {
  unsigned lz;
  std::uint64_t top_norm;
  std::uint64_t top_recip;
};

// The quotient-digit reduction: t[0..k] < p * 2^64 (so the quotient is one
// word) becomes t mod p in t[0..k), t[k] = 0. K > 0 fixes the width k = K
// at compile time; K = 0 is the runtime-width instance (k = k_rt), the
// generic path and test oracle. Every kernel below that reduces a wide
// integer (FpCtx::MulU64Add, DotI64, ReduceWide) ends in it.
template <std::size_t K>
inline void ReduceDigitK(const std::uint64_t* p, std::size_t k_rt,
                         const DigitReciprocal& d, std::uint64_t* t) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  const std::size_t k = K != 0 ? K : k_rt;
  // q = floor(t/p) is one word. (u1, u0) are the top two words of t << lz,
  // and top_norm is the top word of p << lz. Knuth's estimate
  // qh = min(floor((u1*2^64 + u0) / top_norm), 2^64 - 1) satisfies
  // q <= qh <= q + 2. Below u1 == top_norm the 2/1 division is exact via
  // the reciprocal: two word multiplies and at most two adjustments.
  u64 u1 = t[k], u0 = t[k - 1];
  if (d.lz != 0) {
    u1 = (u1 << d.lz) | (u0 >> (64 - d.lz));
    u0 = (u0 << d.lz) | (k > 1 ? t[k - 2] >> (64 - d.lz) : 0);
  }
  u64 qh = ~u64{0};
  if (u1 < d.top_norm) {
    const u128 est = static_cast<u128>(d.top_recip) * u1 +
                     ((static_cast<u128>(u1) << 64) | u0);
    qh = static_cast<u64>(est >> 64) + 1;
    u64 rem = u0 - qh * d.top_norm;
    if (rem > static_cast<u64>(est)) {
      --qh;
      rem += d.top_norm;
    }
    if (rem >= d.top_norm) ++qh;
  }
  // t - qh*p lies in [-2p, p): its top limb is zero exactly when it is
  // nonnegative. Otherwise add p back, at most twice.
  u64 mul_carry = 0, borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const u128 prod = static_cast<u128>(qh) * p[j] + mul_carry;
    mul_carry = static_cast<u64>(prod >> 64);
    const u128 diff = static_cast<u128>(t[j]) - static_cast<u64>(prod) - borrow;
    t[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
  }
  t[k] -= mul_carry + borrow;  // mul_carry <= 2^64 - 2: no wrap
  while (t[k] != 0) {
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 sum = static_cast<u128>(t[j]) + p[j] + carry;
      t[j] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
    t[k] += carry;
  }
}

// Signed-word dot product: r = sum_i c[i] * a_i mod p, where a_i is the
// element whose k little-endian limbs start at the byte pointer a[i] (its
// wire and storage encoding; a value below p) and c[i] is a signed word.
// Each term is one k x 1 multiply-add carry chain into the (k+2)-limb sum of
// its sign: P over c_i > 0, N over c_i < 0 (as a_i * |c_i|). A term is below
// p * 2^63, so fewer than 2^64 of them keep P, N and |S| = |P - N| below
// p * 2^127 < 2^(64(k+2)). One subtraction of the smaller sum from the
// larger gives |S| and its sign; at most two quotient digits reduce |S| (its
// high k+1 limbs are below p * 2^63), and the sign is applied to the residue
// (docs/field_kernels.md section 6). Zero coefficients are skipped. Writes k
// limbs of r. K as in ReduceDigitK.
template <std::size_t K>
inline void DotI64K(const std::uint64_t* p, std::size_t k_rt,
                    const DigitReciprocal& d, const std::uint8_t* const* a,
                    const std::int64_t* c, std::size_t terms,
                    std::uint64_t* r) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  const std::size_t k = K != 0 ? K : k_rt;
  // t += e * s over k+2 limbs, for the element encoding e.
  auto mul_add = [k](u64* t, const std::uint8_t* e, u64 s) {
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur =
          static_cast<u128>(LoadLe64(e + 8 * j)) * s + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    const u128 top = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<u64>(top);
    t[k + 1] += static_cast<u64>(top >> 64);
  };
  // Two named sums and a branch per sign, not one array indexed by the
  // sign: at the small widths both then stay in registers.
  constexpr std::size_t kAcc = (K != 0 ? K : kMaxLimbs) + 2;
  u64 plus[kAcc], minus[kAcc];
  for (std::size_t j = 0; j < k + 2; ++j) plus[j] = minus[j] = 0;
  for (std::size_t i = 0; i < terms; ++i) {
    if (c[i] > 0) {
      mul_add(plus, a[i], static_cast<u64>(c[i]));
    } else if (c[i] < 0) {
      // |c_i| as a word; INT64_MIN's magnitude 2^63 is exact.
      mul_add(minus, a[i], u64{0} - static_cast<u64>(c[i]));
    }
  }
  // |S| = the larger sum minus the smaller, into the larger.
  bool negative = false;
  for (std::size_t j = k + 2; j-- > 0;) {
    if (plus[j] != minus[j]) {
      negative = minus[j] > plus[j];
      break;
    }
  }
  u64* m = negative ? minus : plus;
  const u64* sub = negative ? plus : minus;
  u64 borrow = 0;
  for (std::size_t j = 0; j < k + 2; ++j) {
    const u128 diff = static_cast<u128>(m[j]) - sub[j] - borrow;
    m[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
  }
  // The high k+1 limbs mod p, unless |S| is already below p[k-1] * 2^(64k)
  // <= p * 2^64 (small coefficients); then the whole value, < p * 2^64.
  if (m[k + 1] != 0 || m[k] >= p[k - 1]) ReduceDigitK<K>(p, k, d, m + 1);
  ReduceDigitK<K>(p, k, d, m);
  bool zero = true;
  for (std::size_t j = 0; j < k; ++j) zero = zero && m[j] == 0;
  if (negative && !zero) {  // -|S| mod p = p - (|S| mod p)
    borrow = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 diff = static_cast<u128>(p[j]) - m[j] - borrow;
      r[j] = static_cast<u64>(diff);
      borrow = static_cast<u64>((diff >> 64) & 1);
    }
  } else {
    for (std::size_t j = 0; j < k; ++j) r[j] = m[j];
  }
}

// Function-pointer bundle bound to one compile-time width. FpCtx resolves the
// table once at construction; a null table means the generic runtime-k path.
struct KernelVTable {
  std::size_t width;
  void (*mul)(const std::uint64_t* p, std::uint64_t n0inv,
              const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* r);
  void (*sqr)(const std::uint64_t* p, std::uint64_t n0inv,
              const std::uint64_t* a, std::uint64_t* r);
  void (*redc)(const std::uint64_t* p, std::uint64_t n0inv, std::uint64_t* t,
               std::uint64_t* r);
  void (*mul_acc)(std::uint64_t* t, const std::uint64_t* a,
                  const std::uint64_t* b);
  void (*redc_wide)(const std::uint64_t* p, std::uint64_t n0inv,
                    std::uint64_t* t, std::uint64_t* r);
  void (*dot_i64)(const std::uint64_t* p, std::size_t k_rt,
                  const DigitReciprocal& d, const std::uint8_t* const* a,
                  const std::int64_t* c, std::size_t terms, std::uint64_t* r);
};

// The table FpCtx binds for width k, or nullptr when k is not in {4, 8, 16,
// 32}: the flag-chained x86-64 kernels at k in {8, 16, 32} when the CPU has
// ADX and BMI2 (AdxAvailable), the portable templates otherwise.
const KernelVTable* KernelsForWidth(std::size_t k);

// Each family alone, so the tests run both on any machine that has them:
// the portable width-templated table (nullptr for other widths), and the
// flag-chained one (nullptr when this CPU or build lacks it, and for k = 4,
// which keeps the templates).
const KernelVTable* PortableKernelsForWidth(std::size_t k);
const KernelVTable* AdxKernelsForWidth(std::size_t k);

// True when the flag-chained x86-64 kernels were built and this CPU reports
// ADX and BMI2 (mulx/adcx/adox); decided once per process, on first use.
bool AdxAvailable();

}  // namespace pisces::field::kernels
