// Prime-field arithmetic F_p over Montgomery kernels.
//
// An FpCtx is constructed from an odd modulus (the standard g-bit primes live
// in field/primes.h) and owns all arithmetic. This mirrors the paper's
// parameter g (the size of the underlying prime field), which is swept from
// 256 to 2048 bits in the evaluation.
//
// An FpElem holds the plain residue a (0 <= a < p), so its limbs are the wire
// and storage encoding and (de)serialization is a copy. Montgomery form (aR
// mod p) stays inside the kernels, except in FpMont, a distinct type for a
// value multiplied many times (see docs/field_kernels.md, "Representation").
//
// The context also works for any odd modulus (Montgomery requires only
// oddness); modular exponentiation with non-prime-field use is what the
// Schnorr signature substrate builds on. Inv() is exact for any odd modulus
// and throws when the element has no inverse.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "field/limbs.h"

namespace pisces::field {

namespace kernels {
struct KernelVTable;  // width-specialized fast path (field/fp_kernels.h)
}  // namespace kernels

// A field element: the plain residue, canonical (< p). Unused high limbs are
// always zero, so default equality over the whole array is exact.
struct FpElem {
  Limbs v{};

  bool operator==(const FpElem&) const = default;
};

// The Montgomery form aR mod p of an element, for repeated multiplication.
// A distinct type, so mixing forms without a conversion does not compile.
struct FpMont {
  Limbs v{};

  bool operator==(const FpMont&) const = default;
};

// Process-wide instrumentation for the kernel layer (docs/field_kernels.md).
// The dot counters (Dot and DotI64Into) are always live (one relaxed atomic bump
// per call, amortized over n products), as is plain_muls; the per-kernel
// counters are debug-only so the release hot path stays untouched.
struct KernelStatsSnapshot {
  std::uint64_t mont_muls = 0;       // debug builds only (0 under NDEBUG)
  std::uint64_t mont_sqrs = 0;       // debug builds only (0 under NDEBUG)
  std::uint64_t plain_muls = 0;      // Mul/Sqr of FpElems (two kernels each)
  std::uint64_t dot_calls = 0;       // Dot() calls + DotAcc::Reduce() calls
  std::uint64_t dot_products = 0;    // products accumulated without reduction
  std::uint64_t dot_reductions = 0;  // wide reductions: exactly 1 per output
  std::uint64_t int_dot_calls = 0;     // DotI64Into outputs
  std::uint64_t int_dot_products = 0;  // k x 1 products they accumulated
};
KernelStatsSnapshot GetKernelStats();

// Kernel selection policy for FpCtx: kAuto binds the width-specialized
// kernels when the modulus width is one of the standard sizes (k in
// {4, 8, 16, 32} limbs; flag-chained x86-64 assembly at k >= 8 when the CPU
// has ADX and BMI2); kGeneric forces the runtime-width path, which the
// differential tests use as the oracle.
enum class KernelDispatch { kAuto, kGeneric };

class FpCtx {
 public:
  // big-endian modulus bytes; modulus must be odd and > 2.
  explicit FpCtx(std::span<const std::uint8_t> modulus_be,
                 KernelDispatch dispatch = KernelDispatch::kAuto);

  std::size_t limbs() const { return k_; }
  std::size_t bits() const { return bits_; }
  // Compile-time limb width of the bound fast-path kernels, or 0 when the
  // generic runtime-width path is active (odd widths / kGeneric).
  std::size_t kernel_width() const { return kernel_width_; }
  // Serialized size of one element (little-endian limb dump of k_ limbs).
  std::size_t elem_bytes() const { return k_ * 8; }
  // Bytes of application payload that always fit in one element (see codec).
  std::size_t payload_bytes() const { return (bits_ - 1) / 8; }

  FpElem Zero() const { return FpElem{}; }
  FpElem One() const { return FpElem{Limbs{1}}; }

  // Limb copies: the element's limbs are its value.
  FpElem FromUint64(std::uint64_t x) const;
  // Little-endian bytes, at most elem_bytes(), value must be < p.
  FpElem FromBytes(std::span<const std::uint8_t> le) const;
  Bytes ToBytes(const FpElem& a) const;
  // The same, written to `out` (elem_bytes() bytes).
  void ToBytes(const FpElem& a, std::uint8_t* out) const;
  // value as u64 (throws if it does not fit); mostly for tests.
  std::uint64_t ToUint64(const FpElem& a) const;

  FpElem Add(const FpElem& a, const FpElem& b) const;
  FpElem Sub(const FpElem& a, const FpElem& b) const;
  FpElem Neg(const FpElem& a) const;
  // Two kernel calls each (the product, then x R^2), counted in
  // field.plain_muls: out of loops, hoist a factor to FpMont or use Dot.
  FpElem Mul(const FpElem& a, const FpElem& b) const;
  // Dedicated squaring kernel (cross products computed once and doubled);
  // bit-identical to Mul(a, a).
  FpElem Sqr(const FpElem& a) const;

  // Montgomery form. ToMont is one kernel call, FromMont a bare reduction
  // (about half of one); every product below is one kernel call.
  FpMont ToMont(const FpElem& a) const;
  FpElem FromMont(const FpMont& a) const;
  FpMont MontOne() const { return mont_one_; }
  FpMont Mul(const FpMont& a, const FpMont& b) const;
  FpMont Sqr(const FpMont& a) const;
  // aR * b / R = ab: a hoisted factor times plain data, plain out.
  FpElem Mul(const FpMont& a, const FpElem& b) const;

  // Lazy-reduction dot product: sum_i a[i]*b[i] with ONE Montgomery reduction
  // for the whole sum instead of one per product. Bit-identical to the naive
  // Add(Mul(...)) loop; a.size() must equal b.size(). The inner loops of
  // MulVec, Lagrange weight application and share generation live on this.
  FpElem Dot(std::span<const FpElem> a, std::span<const FpElem> b) const;
  // a*s + b for a plain integer s (not a field element): a k x 1 product
  // and one quotient-digit reduction, no Montgomery multiply. Form-agnostic
  // (a*s + b is linear), so it equals Add(Mul(a, FromUint64(s)), b) for
  // s < p. VSS dealing evaluates at the integer holder nodes with it.
  FpElem MulU64Add(const FpElem& a, std::uint64_t s, const FpElem& b) const;
  // For every row of one coefficient table: sum_i a[i]*c[i] for signed word
  // coefficients c[i] (plain integers, not field elements): k x 1 products
  // into a (k+2)-limb sum per sign, one subtraction, at most two quotient
  // digits; equal to Dot(a, w) with w[i] = c[i] mod p, for fewer than 2^64
  // terms. Rows over the integer nodes live on this (math/weight_cache.h).
  // a[i] points at the elem_bytes() little-endian bytes of an element (the
  // wire and storage encoding; the value must be below p, which is not
  // checked here), c holds out.size() rows of a.size() coefficients
  // (row-major), and row r's sum, times scales[r] when `scales` is
  // non-empty (a Montgomery form: one multiply, plain out; skipped for
  // MontOne()), is written to out[r] in that encoding. The
  // width-specialized kernel of kernel_width(), or its runtime-width
  // instance. The call is counted once, as out.size() outputs.
  void DotI64Into(std::span<const std::uint8_t* const> a,
                  std::span<const std::int64_t> c,
                  std::span<const FpMont> scales,
                  std::span<std::uint8_t* const> out) const;
  // t mod p for a nonnegative integer t of k+e limbs (k = limbs(), e =
  // t.size() - k) below p * 2^(64e): e quotient-digit steps from the top,
  // no Montgomery form. Clobbers t. Kernels that run an integer-linear map
  // exactly over Z (VSS dealing and transform) reduce each output once with
  // it; a negative value is negated by the caller and the residue negated
  // back (docs/field_kernels.md, "Wide integer accumulators").
  FpElem ReduceWide(std::span<std::uint64_t> t) const;
  // a^{-1} for a word a, in O(k) word operations: x = (1 + j*p) / a with j
  // the word that makes the division exact. Throws InvalidArgument when a
  // shares a factor with the modulus. Equals Inv(a mod p).
  FpElem InvU64(std::uint64_t a) const;
  // a^e where e is given as big-endian bytes, square-and-multiply on FpMont.
  // Not constant-time (see rng.h note: the simulator models crypto, the PSS
  // privacy is information theoretic).
  FpElem PowBytes(const FpElem& a, std::span<const std::uint8_t> e_be) const;
  // a^e for small exponents.
  FpElem PowUint64(const FpElem& a, std::uint64_t e) const;
  // a^{-1} by binary extended Euclid (docs/field_kernels.md). Throws
  // InvalidArgument when a is zero or shares a factor with the modulus.
  FpElem Inv(const FpElem& a) const;
  // Inverts every element in place with Montgomery's batch-inversion trick:
  // one Inv plus 3(m-1) kernel calls. Zero elements are left at zero (0
  // has no inverse): the all-nonzero fast path is guarded by a cheap scan,
  // and a batch containing zeros is inverted through a compacted view rather
  // than letting a zero prefix product poison every later entry.
  // Interpolation over many points lives on this (one Inv costs over a
  // hundred multiplications at g = 1024/2048).
  void BatchInv(std::span<FpElem> elems) const;

  bool IsZero(const FpElem& a) const;
  bool Eq(const FpElem& a, const FpElem& b) const { return a == b; }

  // Uniform random element: a rejection-sampled raw draw r < p, returned as
  // r R^{-1} mod p, the residue it has always denoted (seeded values hold).
  FpElem Random(Rng& rng) const;
  // The same draw, written to `out` in the elem_bytes() wire encoding.
  void RandomInto(Rng& rng, std::uint8_t* out) const;
  // Uniform random nonzero element.
  FpElem RandomNonZero(Rng& rng) const;

  // Modulus as big-endian bytes (as passed in, minus leading zeros).
  Bytes ModulusBytes() const;
  // The modulus limbs, little-endian, limbs() of them: no allocation.
  std::span<const std::uint64_t> modulus() const { return {p_.data(), k_}; }

 private:
  friend class DotAcc;

  // Dispatched Montgomery multiply r = a*b*R^{-1}: specialized kernel when
  // bound, generic (the fallback for odd widths and the differential-test
  // oracle) otherwise. Writes k_ limbs; the caller's destination high limbs
  // must already be 0.
  void MulInto(const std::uint64_t* a, const std::uint64_t* b,
               std::uint64_t* r) const;
  // Dispatched squaring r = a^2 R^{-1}, same contract.
  void SqrInto(const std::uint64_t* a, std::uint64_t* r) const;
  // Dispatched bare reduction r = a R^{-1} of a k-limb a.
  void RedcInto(const std::uint64_t* a, std::uint64_t* r) const;
  // Lazy-accumulator primitives behind Dot/DotAcc (see docs/field_kernels.md).
  // AccReduce copies the accumulator before the (destructive) reduction, so a
  // DotAcc can keep accumulating after a Reduce.
  void AccMulAdd(std::uint64_t* t, const FpElem& a, const FpElem& b) const;
  FpElem AccReduce(const std::uint64_t* t, std::uint64_t n_products) const;
  // The quotient-digit reduction behind MulU64Add and ReduceWide (the
  // runtime-width kernels::ReduceDigitK): t[0..k] < p * 2^64 (so the
  // quotient is one word) becomes t mod p in t[0..k), t[k] = 0.
  void ReduceDigit(std::uint64_t* t) const;
  // Random's draw: k limbs of the residue into r.
  void RandomLimbs(Rng& rng, std::uint64_t* r) const;
  // DotI64Into's kernel, dispatched: k limbs of the plain sum into r.
  void DotI64Limbs(const std::uint8_t* const* a, const std::int64_t* c,
                   std::size_t terms, std::uint64_t* r) const;

  std::size_t k_ = 0;
  std::size_t bits_ = 0;
  Limbs p_{};
  std::uint64_t n0inv_ = 0;
  Limbs r2_{};        // R^2 mod p: a Montgomery multiply by it is ToMont
  FpMont mont_one_;   // R mod p
  Limbs two64r2_{};   // 2^64 R^2 mod p: fixes up the wide reduction
  // ReduceDigit's quotient digit: the modulus shifted left by lz_ bits has top
  // word top_norm_ (high bit set), and top_recip_ = floor((2^128 - 1) /
  // top_norm_) - 2^64 is its 2/1 division reciprocal (Moller-Granlund), so
  // the kernel never divides.
  unsigned lz_ = 0;
  std::uint64_t top_norm_ = 0;
  std::uint64_t top_recip_ = 0;
  const kernels::KernelVTable* kernels_ = nullptr;  // null => generic path
  std::size_t kernel_width_ = 0;
};

// Streaming lazy-reduction accumulator for dot products whose terms are not
// contiguous in memory (e.g. schoolbook polynomial products, or recovery
// accumulating masked shares over survivors).
// MulAdd accumulates double-width products with no reduction; Reduce performs
// the single Montgomery reduction and returns the canonical sum, bit-identical
// to folding Add(Mul(...)) term by term. At most 2^64 - 1 products may be
// accumulated between resets (the overflow bound; see docs/field_kernels.md).
class DotAcc {
 public:
  explicit DotAcc(const FpCtx& ctx) : ctx_(&ctx) {}

  void MulAdd(const FpElem& a, const FpElem& b) {
    ctx_->AccMulAdd(t_.data(), a, b);
    ++n_;
  }
  FpElem Reduce() const { return ctx_->AccReduce(t_.data(), n_); }
  void Reset() {
    t_.fill(0);
    n_ = 0;
  }
  std::uint64_t products() const { return n_; }

 private:
  const FpCtx* ctx_;
  // 2k+1 active limbs plus one headroom limb for the reduction steps.
  std::array<std::uint64_t, 2 * kMaxLimbs + 2> t_{};
  std::uint64_t n_ = 0;
};

// The little-endian limb dumps of the elements, back to back (wire messages
// and the share store). Deserialization checks every value is < p.
Bytes SerializeElems(const FpCtx& ctx, std::span<const FpElem> elems);
std::vector<FpElem> DeserializeElems(const FpCtx& ctx,
                                     std::span<const std::uint8_t> data);
// The checks of DeserializeElems without building the elements (each
// encoding is compared with p in place): throws ParseError on ragged data,
// InvalidArgument on a value >= p; returns the element count.
std::size_t ValidateElems(const FpCtx& ctx, std::span<const std::uint8_t> data);
// Element i of such an encoding: FromBytes of its elem_bytes() slice, so a
// value >= p throws.
FpElem ElemAt(const FpCtx& ctx, std::span<const std::uint8_t> data,
              std::size_t i);

}  // namespace pisces::field
