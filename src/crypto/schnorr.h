// Schnorr signatures over a prime-order subgroup of Z_p^*.
//
// Role in PiSCES (paper SectionIV-A "Public Key Installation" / "Secure
// Reboot"): the hypervisor holds a CA keypair; after every reboot it
// generates and signs a fresh host keypair, and publishes the reboot batch's
// signed keys in one signed snapshot (crypto/ca.h). Peers verify the
// signature before accepting traffic, which is what prevents an adversary
// from racing a fresh host for network acceptance.
//
// Group parameters are DSA-style: q a 256-bit prime, p = q*m + 1 a 512-bit
// prime, g of order q. The default group's parameters are public constants,
// the output of Generate from a fixed seed, so every process agrees on the
// group without searching for it.
//
// Both verification exponentiations have a fixed base -- the generator g and
// the CA key -- so they run over precomputed FixedBaseTables (Lim-Lee comb).
// The group owns g's table; a CA key's table is shared process-wide and lives
// exactly as long as something pins it (see PinKeyTable).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "field/fp.h"

namespace pisces::crypto {

// Lim-Lee fixed-base comb with kTeeth teeth: entry i (0 <= i < 2^kTeeth) is
// prod_{bit j of i} base^(2^(j*cols)), stored in Montgomery form at the
// modulus width. For an exponent of at most kTeeth*cols bits, base^e costs
// cols-1 squarings plus at most cols multiplies. Read-only after construction, so one table may be
// shared across threads.
class FixedBaseTable {
 public:
  static constexpr std::size_t kTeeth = 8;

  // Covers exponents of up to `exp_bits` bits, rounded up to a multiple of
  // kTeeth.
  FixedBaseTable(std::shared_ptr<const field::FpCtx> ctx,
                 const field::FpElem& base, std::size_t exp_bits);

  // base^e for big-endian e: identical to ctx.PowBytes(base, e_be). An
  // exponent wider than the table falls back to PowBytes.
  field::FpElem Pow(std::span<const std::uint8_t> e_be) const {
    return ctx_->FromMont(PowMont(e_be));
  }
  // The same power left in Montgomery form, for a product that follows.
  field::FpMont PowMont(std::span<const std::uint8_t> e_be) const;
  // a^ea * b^eb in Montgomery form, equal to Mul(a.PowMont(ea),
  // b.PowMont(eb)). When both tables have the same columns and both
  // exponents fit, one comb pass over the two tables shares its cols-1
  // squarings; otherwise it is that product. Both tables must be over the
  // same context.
  static field::FpMont JointPowMont(const FixedBaseTable& a,
                                    std::span<const std::uint8_t> ea,
                                    const FixedBaseTable& b,
                                    std::span<const std::uint8_t> eb);

 private:
  field::FpMont Entry(std::size_t i) const;
  // True when big-endian e (leading zeros stripped) fits the comb.
  bool Fits(std::span<const std::uint8_t> e_be) const;
  // prod_i tables[i]^exps[i] in one comb pass; all tables share cols_ and
  // context, and every exponent fits.
  static field::FpMont Comb(std::span<const FixedBaseTable* const> tables,
                            std::span<const std::span<const std::uint8_t>> exps);

  std::shared_ptr<const field::FpCtx> ctx_;
  std::size_t k_;     // limbs per entry
  std::size_t cols_;  // comb columns: exponent bits per tooth
  std::vector<std::uint64_t> entries_;  // 2^kTeeth entries of k_ limbs
};

class SchnorrGroup {
 public:
  // Deterministically generates a group: q_bits-bit prime order, p_bits-bit
  // modulus. Each of its searches gives up after a bounded number of draws
  // with an InternalError naming it (a broken field kernel, not bad luck).
  static SchnorrGroup Generate(Rng& rng, std::size_t p_bits,
                               std::size_t q_bits);

  // Process-wide default group (512/256 bits): Generate's output for
  // Rng(0x5EEDF00D), built from checked-in constants.
  static const SchnorrGroup& Default();

  const field::FpCtx& p_ctx() const { return *p_ctx_; }
  const field::FpCtx& q_ctx() const { return *q_ctx_; }
  const field::FpElem& g() const { return g_; }
  // The comb table for g, built with the group.
  const FixedBaseTable& g_table() const { return *g_table_; }

  // The process-wide comb table for public key `pk` (keyed on modulus plus
  // key bytes), built on first pin. Holders keep it alive; once the last one
  // lets go it is freed. nullptr when `pk` is not a group element encoding.
  std::shared_ptr<const FixedBaseTable> PinKeyTable(
      std::span<const std::uint8_t> pk) const;
  // The table some holder currently pins for `pk`, or nullptr. Never builds.
  std::shared_ptr<const FixedBaseTable> FindKeyTable(
      std::span<const std::uint8_t> pk) const;

  // Scalar (mod q) <-> big-endian bytes of fixed q-width.
  Bytes ScalarToBe(const field::FpElem& s) const;
  field::FpElem ScalarFromBe(std::span<const std::uint8_t> be) const;

  // Digest bytes -> scalar mod q.
  field::FpElem HashToScalar(std::span<const std::uint8_t> digest) const;

 private:
  SchnorrGroup(std::shared_ptr<field::FpCtx> p_ctx,
               std::shared_ptr<field::FpCtx> q_ctx, field::FpElem g);

  std::string TableKey(std::span<const std::uint8_t> pk) const;

  std::shared_ptr<field::FpCtx> p_ctx_;
  std::shared_ptr<field::FpCtx> q_ctx_;
  field::FpElem g_;
  std::shared_ptr<const FixedBaseTable> g_table_;
};

struct SchnorrKeyPair {
  Bytes sk;  // scalar, big-endian, q-width
  Bytes pk;  // group element, serialized via p_ctx
};

struct SchnorrSignature {
  Bytes e;  // challenge scalar, big-endian q-width
  Bytes s;  // response scalar, big-endian q-width

  Bytes Serialize() const;
  // Throws ParseError on a truncated image or a trailing tail.
  static SchnorrSignature Deserialize(std::span<const std::uint8_t> data);
};

SchnorrKeyPair SchnorrKeygen(const SchnorrGroup& group, Rng& rng);

SchnorrSignature SchnorrSign(const SchnorrGroup& group,
                             std::span<const std::uint8_t> sk,
                             std::span<const std::uint8_t> msg, Rng& rng);

// Uses pk's comb table when some holder pins one (group.FindKeyTable), in a
// joint comb pass with g's table, and square-and-multiply otherwise; the
// verdict is the same either way.
bool SchnorrVerify(const SchnorrGroup& group, std::span<const std::uint8_t> pk,
                   std::span<const std::uint8_t> msg,
                   const SchnorrSignature& sig);

// Static Diffie-Hellman over the group: peer_pk^sk mod p, serialized.
// Feed through HKDF to derive channel keys (see channel.h).
Bytes DhSharedSecret(const SchnorrGroup& group, std::span<const std::uint8_t> sk,
                     std::span<const std::uint8_t> peer_pk);

}  // namespace pisces::crypto
