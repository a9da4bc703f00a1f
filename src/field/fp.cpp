#include "field/fp.h"

#include <algorithm>

#include "field/fp_kernels.h"
#include "obs/registry.h"

namespace pisces::field {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {

// Process-wide kernel instrumentation, held in the obs telemetry registry
// under "field.*" (relaxed counters only, never control flow, so they cannot
// perturb results or determinism). GetKernelStats below is a thin view over
// these registry entries.
struct KernelCounters {
  obs::Counter& mont_muls = obs::RegisterCounter(
      "field.mont_muls", "Montgomery multiplications (debug builds only)");
  obs::Counter& mont_sqrs = obs::RegisterCounter(
      "field.mont_sqrs", "Montgomery squarings (debug builds only)");
  obs::Counter& plain_muls = obs::RegisterCounter(
      "field.plain_muls", "Mul/Sqr of two plain elements (two kernels each)");
  obs::Counter& dot_calls =
      obs::RegisterCounter("field.dot_calls", "lazy dot outputs produced");
  obs::Counter& dot_products = obs::RegisterCounter(
      "field.dot_products", "products accumulated unreduced");
  obs::Counter& dot_reductions = obs::RegisterCounter(
      "field.dot_reductions", "wide reductions (== nonzero dot outputs)");
  obs::Counter& int_dot_calls = obs::RegisterCounter(
      "field.int_dot_calls", "DotI64Into outputs (word-coefficient rows)");
  obs::Counter& int_dot_products = obs::RegisterCounter(
      "field.int_dot_products", "k x 1 products DotI64Into accumulated");
};
KernelCounters g_kernel_stats;

#ifndef NDEBUG
inline void CountMul() { g_kernel_stats.mont_muls.Add(); }
inline void CountSqr() { g_kernel_stats.mont_sqrs.Add(); }
#else
inline void CountMul() {}
inline void CountSqr() {}
#endif

// Generic Montgomery reduction of a 2k-limb value T < R*p (k REDC steps):
// r = T*R^{-1} mod p, canonical. Clobbers t. Runtime-k mirror of
// kernels::MontRedcK, kept separate as the differential-test oracle.
void MontRedcN(const u64* p, u64 n0inv, std::size_t k, u64* t, u64* r) {
  u64 extra = 0;  // virtual limb t[2k]
  for (std::size_t s = 0; s < k; ++s) {
    u64 m = t[s] * n0inv;
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      u128 cur = static_cast<u128>(m) * p[j] + t[s + j] + carry;
      t[s + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    for (std::size_t idx = s + k; carry != 0 && idx < 2 * k; ++idx) {
      u128 sum = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
    extra += carry;
  }
  u64* th = t + k;
  if (extra != 0 || CmpN(th, p, k) >= 0) {
    SubN(r, th, p, k);
  } else {
    std::copy(th, th + k, r);
  }
}

// Generic reduction of a (2k+1)-limb lazy accumulator with k+1 REDC steps:
// r = T * 2^{-64(k+1)} mod p, canonical (< 2p before the conditional
// subtraction for any T < 2^64 * p^2; see docs/field_kernels.md for the
// bound). t must have 2k+2 limbs with t[2k+1] == 0 on entry; clobbered.
void MontRedcWideN(const u64* p, u64 n0inv, std::size_t k, u64* t, u64* r) {
  const std::size_t len = 2 * k + 2;
  for (std::size_t s = 0; s <= k; ++s) {
    u64 m = t[s] * n0inv;
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      u128 cur = static_cast<u128>(m) * p[j] + t[s + j] + carry;
      t[s + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    for (std::size_t idx = s + k; carry != 0 && idx < len; ++idx) {
      u128 sum = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(sum);
      carry = static_cast<u64>(sum >> 64);
    }
  }
  u64* th = t + k + 1;
  if (th[k] != 0 || CmpN(th, p, k) >= 0) {
    SubN(r, th, p, k);
  } else {
    std::copy(th, th + k, r);
  }
}

Limbs LimbsFromBe(std::span<const std::uint8_t> be) {
  pisces::Require(be.size() <= kMaxLimbs * 8, "value too wide");
  Limbs out{};
  std::size_t limb = 0, shift = 0;
  for (std::size_t i = be.size(); i-- > 0;) {
    out[limb] |= static_cast<u64>(be[i]) << shift;
    shift += 8;
    if (shift == 64) {
      shift = 0;
      ++limb;
    }
  }
  return out;
}

}  // namespace

KernelStatsSnapshot GetKernelStats() {
  KernelStatsSnapshot s;
  s.mont_muls = g_kernel_stats.mont_muls.Load();
  s.mont_sqrs = g_kernel_stats.mont_sqrs.Load();
  s.plain_muls = g_kernel_stats.plain_muls.Load();
  s.dot_calls = g_kernel_stats.dot_calls.Load();
  s.dot_products = g_kernel_stats.dot_products.Load();
  s.dot_reductions = g_kernel_stats.dot_reductions.Load();
  s.int_dot_calls = g_kernel_stats.int_dot_calls.Load();
  s.int_dot_products = g_kernel_stats.int_dot_products.Load();
  return s;
}

FpCtx::FpCtx(std::span<const std::uint8_t> modulus_be,
             KernelDispatch dispatch) {
  while (!modulus_be.empty() && modulus_be.front() == 0)
    modulus_be = modulus_be.subspan(1);
  Require(!modulus_be.empty(), "FpCtx: empty modulus");
  p_ = LimbsFromBe(modulus_be);
  bits_ = BitLengthN(p_.data(), kMaxLimbs);
  Require(bits_ > 1, "FpCtx: modulus too small");
  k_ = (bits_ + 63) / 64;
  Require((p_[0] & 1) != 0, "FpCtx: modulus must be odd");
  // Montgomery reduction with a single trailing conditional subtraction needs
  // the intermediate value < 2p, which holds when the modulus occupies the
  // top bit of its limb span.
  Require(bits_ > 64 * (k_ - 1), "FpCtx: modulus top limb must be nonzero");
  n0inv_ = MontgomeryN0Inv(p_[0]);

  // R mod p by repeated modular doubling of 1, then continue to R^2 mod p.
  Limbs x{};
  x[0] = 1;
  // 1 < p always; double 64k times to get R mod p.
  auto double_mod = [&](Limbs& a) {
    u64 carry = AddN(a.data(), a.data(), a.data(), k_);
    if (carry) {
      SubN(a.data(), a.data(), p_.data(), k_);
    } else {
      CondSubN(a.data(), p_.data(), k_);
    }
  };
  for (std::size_t i = 0; i < 64 * k_; ++i) double_mod(x);
  mont_one_.v = x;  // R mod p == Montgomery form of 1
  for (std::size_t i = 0; i < 64 * k_; ++i) double_mod(x);
  r2_ = x;  // R^2 mod p
  // 64 more doublings give 2^64 * R^2 mod p, the fixup constant for the lazy
  // dot-product reduction (which divides by R * 2^64).
  for (std::size_t i = 0; i < 64; ++i) double_mod(x);
  two64r2_ = x;

  lz_ = static_cast<unsigned>(64 * k_ - bits_);
  top_norm_ = p_[k_ - 1] << lz_;
  if (lz_ != 0 && k_ > 1) top_norm_ |= p_[k_ - 2] >> (64 - lz_);
  // floor((2^128 - 1) / top_norm_) lies in [2^64, 2^65): the cast drops 2^64.
  top_recip_ = static_cast<u64>(~u128{0} / top_norm_);

  if (dispatch == KernelDispatch::kAuto) {
    kernels_ = kernels::KernelsForWidth(k_);
    if (kernels_ != nullptr) kernel_width_ = k_;
  }
}

void FpCtx::MulInto(const u64* a, const u64* b, u64* r) const {
  CountMul();
  if (kernels_ != nullptr) {
    kernels_->mul(p_.data(), n0inv_, a, b, r);
  } else {
    u64 t[2 * kMaxLimbs];
    MulN(t, a, b, k_);
    MontRedcN(p_.data(), n0inv_, k_, t, r);
  }
}

void FpCtx::SqrInto(const u64* a, u64* r) const {
  CountSqr();
  if (kernels_ != nullptr) {
    kernels_->sqr(p_.data(), n0inv_, a, r);
  } else {
    u64 t[2 * kMaxLimbs];
    SqrN(t, a, k_);
    MontRedcN(p_.data(), n0inv_, k_, t, r);
  }
}

void FpCtx::RedcInto(const u64* a, u64* r) const {
  u64 t[2 * kMaxLimbs];  // a, zero-extended to 2k limbs
  std::copy(a, a + k_, t);
  std::fill(t + k_, t + 2 * k_, 0);
  if (kernels_ != nullptr) {
    kernels_->redc(p_.data(), n0inv_, t, r);
  } else {
    MontRedcN(p_.data(), n0inv_, k_, t, r);
  }
}

FpElem FpCtx::FromUint64(u64 x) const {
  FpElem out;
  out.v[0] = x;
  Require(k_ > 1 || CmpN(out.v.data(), p_.data(), k_) < 0,
          "FromUint64: value >= modulus");
  return out;
}

FpElem FpCtx::FromBytes(std::span<const std::uint8_t> le) const {
  Require(le.size() <= elem_bytes(), "FromBytes: too many bytes");
  FpElem out;
  const std::size_t full = le.size() / 8;
  for (std::size_t i = 0; i < full; ++i) out.v[i] = LoadLe64(le.data() + 8 * i);
  for (std::size_t i = 8 * full; i < le.size(); ++i) {
    out.v[full] |= static_cast<u64>(le[i]) << (8 * (i % 8));
  }
  Require(CmpN(out.v.data(), p_.data(), k_) < 0, "FromBytes: value >= modulus");
  return out;
}

Bytes FpCtx::ToBytes(const FpElem& a) const {
  Bytes out(elem_bytes());
  ToBytes(a, out.data());
  return out;
}

void FpCtx::ToBytes(const FpElem& a, std::uint8_t* out) const {
  for (std::size_t i = 0; i < k_; ++i) StoreLe64(a.v[i], out + 8 * i);
}

u64 FpCtx::ToUint64(const FpElem& a) const {
  for (std::size_t i = 1; i < k_; ++i)
    Require(a.v[i] == 0, "ToUint64: value does not fit");
  return a.v[0];
}

FpElem FpCtx::Add(const FpElem& a, const FpElem& b) const {
  FpElem r;
  u64 carry = AddN(r.v.data(), a.v.data(), b.v.data(), k_);
  if (carry) {
    SubN(r.v.data(), r.v.data(), p_.data(), k_);
  } else {
    CondSubN(r.v.data(), p_.data(), k_);
  }
  return r;
}

FpElem FpCtx::Sub(const FpElem& a, const FpElem& b) const {
  FpElem r;
  u64 borrow = SubN(r.v.data(), a.v.data(), b.v.data(), k_);
  if (borrow) AddN(r.v.data(), r.v.data(), p_.data(), k_);
  return r;
}

FpElem FpCtx::Neg(const FpElem& a) const { return Sub(Zero(), a); }

FpElem FpCtx::Mul(const FpElem& a, const FpElem& b) const {
  g_kernel_stats.plain_muls.Add();
  FpElem ab_over_r, r;
  MulInto(a.v.data(), b.v.data(), ab_over_r.v.data());
  MulInto(ab_over_r.v.data(), r2_.data(), r.v.data());
  return r;
}

FpElem FpCtx::Sqr(const FpElem& a) const {
  g_kernel_stats.plain_muls.Add();
  FpElem aa_over_r, r;
  SqrInto(a.v.data(), aa_over_r.v.data());
  MulInto(aa_over_r.v.data(), r2_.data(), r.v.data());
  return r;
}

FpMont FpCtx::ToMont(const FpElem& a) const {
  FpMont r;
  MulInto(a.v.data(), r2_.data(), r.v.data());
  return r;
}

FpElem FpCtx::FromMont(const FpMont& a) const {
  FpElem r;
  RedcInto(a.v.data(), r.v.data());
  return r;
}

FpMont FpCtx::Mul(const FpMont& a, const FpMont& b) const {
  FpMont r;
  MulInto(a.v.data(), b.v.data(), r.v.data());
  return r;
}

FpMont FpCtx::Sqr(const FpMont& a) const {
  FpMont r;
  SqrInto(a.v.data(), r.v.data());
  return r;
}

FpElem FpCtx::Mul(const FpMont& a, const FpElem& b) const {
  FpElem r;
  MulInto(a.v.data(), b.v.data(), r.v.data());
  return r;
}

void FpCtx::AccMulAdd(u64* t, const FpElem& a, const FpElem& b) const {
  g_kernel_stats.dot_products.Add();
  if (kernels_ != nullptr) {
    kernels_->mul_acc(t, a.v.data(), b.v.data());
  } else {
    MulAccN(t, a.v.data(), b.v.data(), k_);
  }
}

FpElem FpCtx::AccReduce(const u64* t, std::uint64_t n_products) const {
  g_kernel_stats.dot_calls.Add();
  if (n_products == 0) return Zero();
  g_kernel_stats.dot_reductions.Add();
  // Copy: the reduction is destructive, but a DotAcc may keep accumulating.
  u64 w[2 * kMaxLimbs + 2];
  std::copy(t, t + 2 * k_ + 1, w);
  w[2 * k_ + 1] = 0;
  FpElem u;
  if (kernels_ != nullptr) {
    kernels_->redc_wide(p_.data(), n0inv_, w, u.v.data());
  } else {
    MontRedcWideN(p_.data(), n0inv_, k_, w, u.v.data());
  }
  // The wide reduction divided by R*2^64; one Montgomery multiply by
  // 2^64*R^2 mod p undoes that: result = sum a_i*b_i mod p.
  FpElem r;
  MulInto(u.v.data(), two64r2_.data(), r.v.data());
  return r;
}

FpElem FpCtx::Dot(std::span<const FpElem> a, std::span<const FpElem> b) const {
  Require(a.size() == b.size(), "Dot: size mismatch");
  if (a.empty()) {
    g_kernel_stats.dot_calls.Add();
    return Zero();
  }
  u64 t[2 * kMaxLimbs + 2] = {0};
  if (kernels_ != nullptr) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      kernels_->mul_acc(t, a[i].v.data(), b[i].v.data());
    }
  } else {
    for (std::size_t i = 0; i < a.size(); ++i) {
      MulAccN(t, a[i].v.data(), b[i].v.data(), k_);
    }
  }
  g_kernel_stats.dot_products.Add(a.size());
  g_kernel_stats.dot_calls.Add();
  g_kernel_stats.dot_reductions.Add();
  FpElem u;
  if (kernels_ != nullptr) {
    kernels_->redc_wide(p_.data(), n0inv_, t, u.v.data());
  } else {
    MontRedcWideN(p_.data(), n0inv_, k_, t, u.v.data());
  }
  FpElem r;
  MulInto(u.v.data(), two64r2_.data(), r.v.data());
  return r;
}

FpElem FpCtx::MulU64Add(const FpElem& a, u64 s, const FpElem& b) const {
  // t = a*s + b <= (p-1)*2^64 < p*2^64 in k+1 limbs: one quotient digit.
  const std::size_t k = k_;
  u64 t[kMaxLimbs + 1];
  u64 carry = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const u128 cur = static_cast<u128>(a.v[j]) * s + b.v[j] + carry;
    t[j] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  t[k] = carry;
  ReduceDigit(t);
  FpElem r;
  std::copy(t, t + k, r.v.data());
  return r;
}

FpElem FpCtx::ReduceWide(std::span<u64> t) const {
  Require(t.size() >= k_, "ReduceWide: fewer limbs than the modulus");
  // Each step reduces the k+1 limbs at offset s, which lie below p * 2^64
  // because everything above them was reduced below p by the step before
  // (the first step by the precondition), and zeroes the top one.
  for (std::size_t s = t.size() - k_; s-- > 0;) ReduceDigit(t.data() + s);
  FpElem r;
  std::copy_n(t.data(), k_, r.v.data());
  return r;
}

void FpCtx::ReduceDigit(u64* t) const {
  kernels::ReduceDigitK<0>(p_.data(), k_, {lz_, top_norm_, top_recip_}, t);
}

void FpCtx::DotI64Limbs(const std::uint8_t* const* a, const std::int64_t* c,
                        std::size_t terms, u64* r) const {
  const kernels::DigitReciprocal d{lz_, top_norm_, top_recip_};
  if (kernels_ != nullptr) {
    kernels_->dot_i64(p_.data(), k_, d, a, c, terms, r);
  } else {
    kernels::DotI64K<0>(p_.data(), k_, d, a, c, terms, r);
  }
}

void FpCtx::DotI64Into(std::span<const std::uint8_t* const> a,
                       std::span<const std::int64_t> c,
                       std::span<const FpMont> scales,
                       std::span<std::uint8_t* const> out) const {
  Require(c.size() == out.size() * a.size(), "DotI64: size mismatch");
  Require(scales.empty() || scales.size() == out.size(),
          "DotI64: one scale per row");
  // One bump per call: two always-live atomics per output cost about as
  // much as a short row's kernel.
  g_kernel_stats.int_dot_calls.Add(out.size());
  g_kernel_stats.int_dot_products.Add(out.size() * a.size());
  for (std::size_t r = 0; r < out.size(); ++r) {
    u64 sum[kMaxLimbs], scaled[kMaxLimbs];
    DotI64Limbs(a.data(), c.data() + r * a.size(), a.size(), sum);
    const u64* v = sum;
    if (!scales.empty() && !std::equal(scales[r].v.begin(),
                                       scales[r].v.begin() + k_,
                                       mont_one_.v.begin())) {
      MulInto(scales[r].v.data(), sum, scaled);
      v = scaled;
    }
    for (std::size_t j = 0; j < k_; ++j) StoreLe64(v[j], out[r] + 8 * j);
  }
}

FpElem FpCtx::InvU64(u64 a) const {
  Require(a != 0, "InvU64: zero has no inverse");
  if (a == 1) return One();
  // r = p mod a, then j = -(r^{-1}) mod a by word extended Euclid, so that
  // a divides 1 + j*p; x = (1 + j*p) / a < p is the inverse.
  u64 r = 0;
  for (std::size_t i = k_; i-- > 0;) {
    r = static_cast<u64>(((static_cast<u128>(r) << 64) | p_[i]) % a);
  }
  __int128 old_s = 1, s = 0;
  u64 old_g = r, g = a;
  while (g != 0) {
    const u64 q = old_g / g;
    const u64 next_g = old_g - q * g;
    old_g = g;
    g = next_g;
    const __int128 next_s = old_s - static_cast<__int128>(q) * s;
    old_s = s;
    s = next_s;
  }
  Require(old_g == 1, "InvU64: word shares a factor with the modulus");
  // old_s * r == 1 (mod a); j = a - (old_s mod a), taken mod a.
  __int128 inv = old_s % static_cast<__int128>(a);
  if (inv < 0) inv += a;
  const u64 j = inv == 0 ? 0 : a - static_cast<u64>(inv);
  u64 t[kMaxLimbs + 1];
  u64 carry = 1;
  for (std::size_t i = 0; i < k_; ++i) {
    const u128 cur = static_cast<u128>(p_[i]) * j + carry;
    t[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  t[k_] = carry;
  FpElem x;
  u64 rem = 0;
  for (std::size_t i = k_ + 1; i-- > 0;) {
    const u128 cur = (static_cast<u128>(rem) << 64) | t[i];
    const u64 q = static_cast<u64>(cur / a);
    rem = static_cast<u64>(cur % a);
    if (i < k_) x.v[i] = q;
  }
  Invariant(rem == 0, "InvU64: inexact division");
  return x;
}

FpElem FpCtx::PowBytes(const FpElem& a, std::span<const std::uint8_t> e_be) const {
  const FpMont base = ToMont(a);
  FpMont acc = MontOne();
  bool started = false;  // leading zero bits cost nothing
  for (std::uint8_t byte : e_be) {
    for (int bit = 7; bit >= 0; --bit) {
      if (started) acc = Sqr(acc);
      if ((byte >> bit) & 1) {
        acc = Mul(acc, base);
        started = true;
      }
    }
  }
  return FromMont(acc);
}

FpElem FpCtx::PowUint64(const FpElem& a, u64 e) const {
  std::uint8_t be[8];
  for (int i = 0; i < 8; ++i) be[i] = static_cast<std::uint8_t>(e >> (8 * (7 - i)));
  return PowBytes(a, be);
}

FpElem FpCtx::Inv(const FpElem& a) const {
  Require(!IsZero(a), "Inv: zero has no inverse");
  // Binary extended Euclid on the plain residue, keeping x1*a == u and
  // x2*a == v (mod p). Needs only an odd modulus: u reaches zero exactly
  // when gcd(a, p) > 1, and otherwise u or v reaches one.
  const std::size_t k = k_;
  Limbs u = a.v, v = p_, x1{}, x2{};
  x1[0] = 1;
  // Strips the trailing zero bits of y (y even, nonzero) and divides x by
  // the same power of two mod p: adding m*p with m = x*(-1/p) mod 2^s
  // clears the low s bits of x, and (x + m*p) / 2^s < p.
  auto strip = [&](Limbs& y, Limbs& x) {
    while ((y[0] & 1) == 0) {
      const unsigned s = y[0] != 0 ? std::countr_zero(y[0]) : 63;
      const u64 m = (x[0] * n0inv_) & ((u64{1} << s) - 1);
      u64 carry = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const u128 cur = static_cast<u128>(m) * p_[i] + x[i] + carry;
        x[i] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      for (std::size_t i = 0; i + 1 < k; ++i) {
        x[i] = (x[i] >> s) | (x[i + 1] << (64 - s));
        y[i] = (y[i] >> s) | (y[i + 1] << (64 - s));
      }
      x[k - 1] = (x[k - 1] >> s) | (carry << (64 - s));
      y[k - 1] >>= s;
    }
  };
  auto is_one = [k](const Limbs& y) {
    return y[0] == 1 && IsZeroN(y.data() + 1, k - 1);
  };
  auto sub_mod = [&](Limbs& x, const Limbs& y) {
    if (SubN(x.data(), x.data(), y.data(), k)) {
      AddN(x.data(), x.data(), p_.data(), k);
    }
  };
  while (!is_one(u) && !is_one(v)) {
    strip(u, x1);
    strip(v, x2);
    if (CmpN(u.data(), v.data(), k) >= 0) {
      SubN(u.data(), u.data(), v.data(), k);
      sub_mod(x1, x2);
      Require(!IsZeroN(u.data(), k), "Inv: element is not invertible");
    } else {
      SubN(v.data(), v.data(), u.data(), k);
      sub_mod(x2, x1);
    }
  }
  return FpElem{is_one(u) ? x1 : x2};
}

void FpCtx::BatchInv(std::span<FpElem> elems) const {
  if (elems.empty()) return;
  // A zero element would poison every prefix product from its position on
  // (the zero total has no inverse, so no entry could be inverted, not just
  // the zero one). Scan first --
  // one cheap limb compare per element -- and take the compacting path only
  // when a zero is actually present, so the common all-nonzero case runs the
  // straight-line trick unchanged.
  bool has_zero = false;
  for (const FpElem& e : elems) {
    if (IsZero(e)) {
      has_zero = true;
      break;
    }
  }
  if (has_zero) {
    // Invert the nonzero entries through a compacted view; zeros stay zero
    // (0 has no inverse; callers that require invertibility must check, as
    // the interpolation paths do via their duplicate-point guards).
    std::vector<FpElem> nz;
    nz.reserve(elems.size());
    for (const FpElem& e : elems) {
      if (!IsZero(e)) nz.push_back(e);
    }
    if (nz.empty()) return;
    BatchInv(nz);
    std::size_t j = 0;
    for (FpElem& e : elems) {
      if (!IsZero(e)) e = nz[j++];
    }
    return;
  }
  // One Montgomery multiply per product, with the R powers tracked instead
  // of converted away: prefix[i] = e_0 * ... * e_i * R^{-i}, so inv_all
  // below starts as (e_0 ... e_{m-1})^{-1} R^{m-1} and stays
  // (e_0 ... e_i)^{-1} R^i, and each product of the two has R^0: plain.
  std::vector<Limbs> prefix(elems.size());
  prefix[0] = elems[0].v;
  for (std::size_t i = 1; i < elems.size(); ++i) {
    MulInto(prefix[i - 1].data(), elems[i].v.data(), prefix[i].data());
  }
  FpElem inv_all = Inv(FpElem{prefix.back()});
  for (std::size_t i = elems.size(); i-- > 1;) {
    FpElem inv_i, next;
    MulInto(inv_all.v.data(), prefix[i - 1].data(), inv_i.v.data());
    MulInto(inv_all.v.data(), elems[i].v.data(), next.v.data());
    inv_all = next;
    elems[i] = inv_i;
  }
  elems[0] = inv_all;
}

bool FpCtx::IsZero(const FpElem& a) const {
  return IsZeroN(a.v.data(), k_);
}

void FpCtx::RandomLimbs(Rng& rng, u64* r) const {
  u64 raw[kMaxLimbs];
  const u64 top_mask =
      (bits_ % 64 == 0) ? ~u64{0} : ((u64{1} << (bits_ % 64)) - 1);
  for (;;) {
    for (std::size_t i = 0; i < k_; ++i) raw[i] = rng.Next();
    raw[k_ - 1] &= top_mask;
    if (CmpN(raw, p_.data(), k_) < 0) break;
  }
  // The residue this draw has always denoted (raw read as a Montgomery form),
  // so seeded runs keep their values; uniform either way.
  RedcInto(raw, r);
}

FpElem FpCtx::Random(Rng& rng) const {
  FpElem out;
  RandomLimbs(rng, out.v.data());
  return out;
}

void FpCtx::RandomInto(Rng& rng, std::uint8_t* out) const {
  u64 r[kMaxLimbs];
  RandomLimbs(rng, r);
  for (std::size_t j = 0; j < k_; ++j) StoreLe64(r[j], out + 8 * j);
}

FpElem FpCtx::RandomNonZero(Rng& rng) const {
  for (;;) {
    FpElem e = Random(rng);
    if (!IsZero(e)) return e;
  }
}

Bytes FpCtx::ModulusBytes() const {
  Bytes out;
  bool started = false;
  for (std::size_t i = k_; i-- > 0;) {
    for (int b = 7; b >= 0; --b) {
      auto byte = static_cast<std::uint8_t>(p_[i] >> (8 * b));
      if (byte != 0) started = true;
      if (started) out.push_back(byte);
    }
  }
  return out;
}

Bytes SerializeElems(const FpCtx& ctx, std::span<const FpElem> elems) {
  const std::size_t k = ctx.limbs();
  Bytes out(elems.size() * ctx.elem_bytes());
  std::uint8_t* dst = out.data();
  for (const FpElem& e : elems) {
    for (std::size_t i = 0; i < k; ++i, dst += 8) StoreLe64(e.v[i], dst);
  }
  return out;
}

std::vector<FpElem> DeserializeElems(const FpCtx& ctx,
                                     std::span<const std::uint8_t> data) {
  const std::size_t sz = ctx.elem_bytes();
  if (data.size() % sz != 0) throw ParseError("DeserializeElems: ragged data");
  std::vector<FpElem> out;
  out.reserve(data.size() / sz);
  for (std::size_t off = 0; off < data.size(); off += sz) {
    out.push_back(ctx.FromBytes(data.subspan(off, sz)));
  }
  return out;
}

std::size_t ValidateElems(const FpCtx& ctx, std::span<const std::uint8_t> data) {
  const std::size_t sz = ctx.elem_bytes();
  if (data.size() % sz != 0) throw ParseError("ValidateElems: ragged data");
  const std::span<const u64> p = ctx.modulus();
  for (std::size_t off = 0; off < data.size(); off += sz) {
    // value < p, decided by the highest limb that differs from p's.
    const std::uint8_t* e = data.data() + off;
    std::size_t j = p.size() - 1;
    u64 limb = LoadLe64(e + 8 * j);
    while (limb == p[j] && j > 0) limb = LoadLe64(e + 8 * --j);
    Require(limb < p[j], "ValidateElems: value >= modulus");
  }
  return data.size() / sz;
}

FpElem ElemAt(const FpCtx& ctx, std::span<const std::uint8_t> data,
              std::size_t i) {
  const std::size_t sz = ctx.elem_bytes();
  return ctx.FromBytes(data.subspan(i * sz, sz));
}

}  // namespace pisces::field
