#include "crypto/schnorr.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "crypto/sha256.h"
#include "field/limbs.h"
#include "field/primes.h"

namespace pisces::crypto {

using field::FpCtx;
using field::FpElem;
using field::FpMont;

namespace {

// Draws per search in Generate before it gives up. The p search is the
// longest: for the default seed about one draw in 2,500 gives a 512-bit
// prime (most fail the size check; one odd 512-bit number in 177 is prime),
// so 2^20 draws leave an honest search a failure chance below e^-300. A
// search that runs out has a broken field kernel under it.
constexpr std::size_t kMaxDraws = std::size_t{1} << 20;

// The default group: Generate(Rng(0x5EEDF00D), 512, 256), big-endian hex.
// The search costs every process milliseconds of Miller-Rabin; a crypto
// test reruns it and compares.
constexpr const char* kDefaultP =
    "819d45a30523ed4dad126315ee65e35365146f426976be2cc34b1014e9cbb070"
    "213b456528b58606e3f65e6a407a3cd21bad095b9b2142e60a564f26f7d496dd";
constexpr const char* kDefaultQ =
    "8266a10a89317b143a96edb0d64c365eb1e0305459fdd5a7ce18b1fa05716d65";
constexpr const char* kDefaultG =
    "2011be6cf0c362fd565f8d88e0b772240804a2201985aa44f1f3fa2de3f24dc3"
    "0679fd50f39dceef0634326def2564b685d72af2f31807a6f8a803bbb52b7547";

// Random prime with exactly `bits` bits (top bit forced).
Bytes RandomPrimeBe(Rng& rng, std::size_t bits) {
  Require(bits % 8 == 0, "RandomPrimeBe: bits must be byte aligned");
  for (std::size_t draw = 0; draw < kMaxDraws; ++draw) {
    Bytes cand = rng.RandomBytes(bits / 8);
    cand.front() |= 0x80;
    cand.back() |= 1;
    if (field::MillerRabinIsPrime(cand, 2, rng) &&
        field::MillerRabinIsPrime(cand, 40, rng)) {
      return cand;
    }
  }
  throw InternalError("SchnorrGroup::Generate: no prime q within the draws");
}

Bytes BeFromLimbs(const field::Limbs& v, std::size_t nbytes) {
  Bytes out(nbytes);
  for (std::size_t i = 0; i < nbytes; ++i) {
    std::size_t lo = nbytes - 1 - i;  // byte index from LSB
    out[i] = static_cast<std::uint8_t>(v[lo / 8] >> (8 * (lo % 8)));
  }
  return out;
}

field::Limbs LimbsFromBeBytes(std::span<const std::uint8_t> be) {
  field::Limbs out{};
  std::size_t limb = 0, shift = 0;
  for (std::size_t i = be.size(); i-- > 0;) {
    out[limb] |= static_cast<std::uint64_t>(be[i]) << shift;
    shift += 8;
    if (shift == 64) { shift = 0; ++limb; }
  }
  return out;
}

// The process-wide key tables. Weak references only: a table lives exactly
// as long as a holder (a CertAuthority, a PeerKeyring) trusts its key.
struct KeyTables {
  std::mutex mu;
  std::unordered_map<std::string, std::weak_ptr<const FixedBaseTable>> by_key;
};

KeyTables& Tables() {
  static KeyTables tables;
  return tables;
}

}  // namespace

FixedBaseTable::FixedBaseTable(std::shared_ptr<const FpCtx> ctx,
                               const FpElem& base, std::size_t exp_bits)
    : ctx_(std::move(ctx)),
      k_(ctx_->limbs()),
      cols_((exp_bits + kTeeth - 1) / kTeeth),
      entries_((std::size_t{1} << kTeeth) * k_) {
  Require(cols_ > 0 && kTeeth * cols_ <= 64 * field::kMaxLimbs,
          "FixedBaseTable: exponent width out of range");
  const FpCtx& p = *ctx_;
  auto put = [&](std::size_t i, const FpMont& v) {
    std::copy_n(v.v.data(), k_, entries_.data() + i * k_);
  };
  put(0, p.MontOne());
  FpMont tooth = p.ToMont(base);
  for (std::size_t j = 0; j < kTeeth; ++j) {
    if (j > 0) {
      for (std::size_t c = 0; c < cols_; ++c) tooth = p.Sqr(tooth);
    }
    put(std::size_t{1} << j, tooth);
  }
  for (std::size_t i = 3; i < (std::size_t{1} << kTeeth); ++i) {
    const std::size_t low = i & (~i + 1);
    if (low != i) put(i, p.Mul(Entry(i - low), Entry(low)));
  }
}

FpMont FixedBaseTable::Entry(std::size_t i) const {
  FpMont e;
  std::copy_n(entries_.data() + i * k_, k_, e.v.data());
  return e;
}

bool FixedBaseTable::Fits(std::span<const std::uint8_t> e_be) const {
  while (!e_be.empty() && e_be.front() == 0) e_be = e_be.subspan(1);
  return e_be.size() <= kTeeth * cols_ / 8;
}

FpMont FixedBaseTable::PowMont(std::span<const std::uint8_t> e_be) const {
  if (!Fits(e_be)) {
    return ctx_->ToMont(ctx_->PowBytes(ctx_->FromMont(Entry(1)), e_be));
  }
  const FixedBaseTable* const tables[] = {this};
  const std::span<const std::uint8_t> exps[] = {e_be};
  return Comb(tables, exps);
}

FpMont FixedBaseTable::JointPowMont(const FixedBaseTable& a,
                                    std::span<const std::uint8_t> ea,
                                    const FixedBaseTable& b,
                                    std::span<const std::uint8_t> eb) {
  Require(a.ctx_ == b.ctx_, "JointPowMont: tables over different contexts");
  if (a.cols_ != b.cols_ || !a.Fits(ea) || !b.Fits(eb)) {
    return a.ctx_->Mul(a.PowMont(ea), b.PowMont(eb));
  }
  const FixedBaseTable* const tables[] = {&a, &b};
  const std::span<const std::uint8_t> exps[] = {ea, eb};
  return Comb(tables, exps);
}

FpMont FixedBaseTable::Comb(
    std::span<const FixedBaseTable* const> tables,
    std::span<const std::span<const std::uint8_t>> exps) {
  const FpCtx& ctx = *tables[0]->ctx_;
  const std::size_t k = tables[0]->k_, cols = tables[0]->cols_;
  std::vector<field::Limbs> e;
  for (std::span<const std::uint8_t> be : exps) {
    while (!be.empty() && be.front() == 0) be = be.subspan(1);
    e.push_back(LimbsFromBeBytes(be));
  }
  FpMont acc = ctx.MontOne();
  FpMont entry;  // limbs past k stay zero
  bool started = false;
  for (std::size_t col = cols; col-- > 0;) {
    if (started) acc = ctx.Sqr(acc);
    for (std::size_t t = 0; t < tables.size(); ++t) {
      std::size_t idx = 0;
      for (std::size_t j = 0; j < kTeeth; ++j) {
        idx |= std::size_t{field::GetBit(e[t].data(), j * cols + col)} << j;
      }
      if (idx == 0) continue;
      const std::uint64_t* src = tables[t]->entries_.data() + idx * k;
      if (started) {
        std::copy_n(src, k, entry.v.data());
        acc = ctx.Mul(acc, entry);
      } else {
        std::copy_n(src, k, acc.v.data());
        started = true;
      }
    }
  }
  return acc;
}

SchnorrGroup::SchnorrGroup(std::shared_ptr<FpCtx> p_ctx,
                           std::shared_ptr<FpCtx> q_ctx, FpElem g)
    : p_ctx_(std::move(p_ctx)),
      q_ctx_(std::move(q_ctx)),
      g_(g),
      g_table_(std::make_shared<const FixedBaseTable>(p_ctx_, g_,
                                                      q_ctx_->bits())) {}

std::string SchnorrGroup::TableKey(std::span<const std::uint8_t> pk) const {
  // The modulus big-endian without leading zeros (ModulusBytes), then pk.
  const std::span<const std::uint64_t> p = p_ctx_->modulus();
  std::string key;
  key.reserve((p_ctx_->bits() + 7) / 8 + pk.size());
  for (std::size_t i = (p_ctx_->bits() + 7) / 8; i-- > 0;) {
    key.push_back(static_cast<char>(p[i / 8] >> (8 * (i % 8))));
  }
  key.append(pk.begin(), pk.end());
  return key;
}

std::shared_ptr<const FixedBaseTable> SchnorrGroup::FindKeyTable(
    std::span<const std::uint8_t> pk) const {
  const std::string key = TableKey(pk);
  KeyTables& t = Tables();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.by_key.find(key);
  return it == t.by_key.end() ? nullptr : it->second.lock();
}

std::shared_ptr<const FixedBaseTable> SchnorrGroup::PinKeyTable(
    std::span<const std::uint8_t> pk) const {
  if (auto held = FindKeyTable(pk)) return held;
  FpElem y;
  try {
    y = p_ctx_->FromBytes(pk);
  } catch (const Error&) {
    return nullptr;
  }
  // Built outside the lock; a racing pin of the same key may win, and then
  // this copy is dropped.
  auto built = std::make_shared<const FixedBaseTable>(p_ctx_, y, q_ctx_->bits());
  const std::string key = TableKey(pk);
  KeyTables& t = Tables();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.by_key.find(key);
  if (it != t.by_key.end()) {
    if (auto held = it->second.lock()) return held;
  }
  std::erase_if(t.by_key, [](const auto& kv) { return kv.second.expired(); });
  t.by_key.emplace(key, built);
  return built;
}

SchnorrGroup SchnorrGroup::Generate(Rng& rng, std::size_t p_bits,
                                    std::size_t q_bits) {
  Require(p_bits >= 2 * q_bits, "SchnorrGroup: p must be wider than q^2 scale");
  Require(p_bits % 64 == 0 && q_bits % 64 == 0,
          "SchnorrGroup: sizes must be limb aligned");
  Bytes q_be = RandomPrimeBe(rng, q_bits);
  field::Limbs q = LimbsFromBeBytes(q_be);
  const std::size_t qk = q_bits / 64;
  const std::size_t mk = (p_bits - q_bits) / 64;

  // Search p = q*m + 1 prime, with m even and sized so p has exactly p_bits.
  field::Limbs m{};
  Bytes m_be;
  for (std::size_t draw = 0; draw < kMaxDraws; ++draw) {
    m_be = rng.RandomBytes((p_bits - q_bits) / 8);
    m_be.front() |= 0xC0;  // force top bits so q*m occupies p_bits
    m_be.back() &= ~std::uint8_t{1};  // even
    m = LimbsFromBeBytes(m_be);
    std::uint64_t wide[2 * field::kMaxLimbs];
    field::MulN(wide, q.data(), m.data(), std::max(qk, mk));
    // p = q*m + 1 occupies at most qk+mk limbs.
    field::Limbs p{};
    for (std::size_t i = 0; i < qk + mk; ++i) p[i] = wide[i];
    p[0] += 1;  // q*m is even, no carry
    if (field::BitLengthN(p.data(), field::kMaxLimbs) != p_bits) continue;
    Bytes p_be = BeFromLimbs(p, p_bits / 8);
    if (!field::MillerRabinIsPrime(p_be, 2, rng)) continue;
    if (!field::MillerRabinIsPrime(p_be, 40, rng)) continue;

    auto p_ctx = std::make_shared<FpCtx>(p_be);
    auto q_ctx = std::make_shared<FpCtx>(q_be);
    // Generator: g = h^m mod p for random h; order divides q (prime), so any
    // g != 1 has order exactly q.
    for (std::size_t draw = 0; draw < kMaxDraws; ++draw) {
      FpElem h = p_ctx->Random(rng);
      if (p_ctx->IsZero(h)) continue;
      FpElem g = p_ctx->PowBytes(h, m_be);
      if (!p_ctx->Eq(g, p_ctx->One()) && !p_ctx->IsZero(g)) {
        return SchnorrGroup(std::move(p_ctx), std::move(q_ctx), g);
      }
    }
    throw InternalError(
        "SchnorrGroup::Generate: no generator within the draws");
  }
  throw InternalError("SchnorrGroup::Generate: no prime p within the draws");
}

const SchnorrGroup& SchnorrGroup::Default() {
  static const SchnorrGroup group(
      std::make_shared<FpCtx>(FromHex(kDefaultP)),
      std::make_shared<FpCtx>(FromHex(kDefaultQ)),
      FpElem{LimbsFromBeBytes(FromHex(kDefaultG))});
  return group;
}

Bytes SchnorrGroup::ScalarToBe(const FpElem& s) const {
  Bytes le = q_ctx_->ToBytes(s);
  return Bytes(le.rbegin(), le.rend());
}

FpElem SchnorrGroup::ScalarFromBe(std::span<const std::uint8_t> be) const {
  Bytes le(be.rbegin(), be.rend());
  return q_ctx_->FromBytes(le);
}

FpElem SchnorrGroup::HashToScalar(std::span<const std::uint8_t> digest) const {
  // Interpret the digest as a big-endian integer and reduce mod q. q has its
  // top bit set, so a 256-bit digest needs at most one subtraction.
  // The residue is the element (plain limbs), so no byte round trip.
  Require(digest.size() <= q_ctx_->elem_bytes(), "HashToScalar: digest too wide");
  FpElem v{LimbsFromBeBytes(digest)};
  field::CondSubN(v.v.data(), q_ctx_->modulus().data(), q_ctx_->limbs());
  return v;
}

Bytes SchnorrSignature::Serialize() const {
  ByteWriter w;
  w.Blob(e);
  w.Blob(s);
  return w.Take();
}

SchnorrSignature SchnorrSignature::Deserialize(
    std::span<const std::uint8_t> data) {
  ByteReader r(data);
  SchnorrSignature sig;
  auto e = r.Blob();
  auto s = r.Blob();
  sig.e.assign(e.begin(), e.end());
  sig.s.assign(s.begin(), s.end());
  if (!r.AtEnd()) throw ParseError("SchnorrSignature: trailing bytes");
  return sig;
}

SchnorrKeyPair SchnorrKeygen(const SchnorrGroup& group, Rng& rng) {
  const FpCtx& q = group.q_ctx();
  const FpCtx& p = group.p_ctx();
  FpElem x = q.RandomNonZero(rng);
  Bytes x_be = group.ScalarToBe(x);
  FpElem y = group.g_table().Pow(x_be);
  return SchnorrKeyPair{x_be, p.ToBytes(y)};
}

namespace {
FpElem Challenge(const SchnorrGroup& group, const Bytes& r_bytes,
                 std::span<const std::uint8_t> pk,
                 std::span<const std::uint8_t> msg) {
  Sha256 h;
  h.Update(r_bytes);
  h.Update(pk);
  h.Update(msg);
  Digest d = h.Finish();
  return group.HashToScalar(d);
}
}  // namespace

SchnorrSignature SchnorrSign(const SchnorrGroup& group,
                             std::span<const std::uint8_t> sk,
                             std::span<const std::uint8_t> msg, Rng& rng) {
  const FpCtx& p = group.p_ctx();
  const FpCtx& q = group.q_ctx();
  FpElem x = group.ScalarFromBe(sk);
  FpElem y = group.g_table().Pow(sk);
  Bytes pk = p.ToBytes(y);

  FpElem k = q.RandomNonZero(rng);
  Bytes k_be = group.ScalarToBe(k);
  FpElem r = group.g_table().Pow(k_be);
  Bytes r_bytes = p.ToBytes(r);

  FpElem e = Challenge(group, r_bytes, pk, msg);
  // s = k + x*e mod q
  FpElem s = q.Add(k, q.Mul(x, e));
  return SchnorrSignature{group.ScalarToBe(e), group.ScalarToBe(s)};
}

bool SchnorrVerify(const SchnorrGroup& group, std::span<const std::uint8_t> pk,
                   std::span<const std::uint8_t> msg,
                   const SchnorrSignature& sig) {
  const FpCtx& p = group.p_ctx();
  const FpCtx& q = group.q_ctx();
  if (sig.e.size() != q.elem_bytes() || sig.s.size() != q.elem_bytes()) {
    return false;
  }
  FpElem y;
  try {
    Bytes pk_le(pk.begin(), pk.end());
    y = p.FromBytes(pk_le);
  } catch (const Error&) {
    return false;
  }
  FpElem e = group.ScalarFromBe(sig.e);
  // r' = g^s * y^{-e} = g^s * y^{q-e} mod p
  const Bytes neg_e = group.ScalarToBe(q.Neg(e));
  const auto y_table = group.FindKeyTable(pk);
  const FpElem r =
      y_table ? p.FromMont(FixedBaseTable::JointPowMont(
                    group.g_table(), sig.s, *y_table, neg_e))
              : p.Mul(group.g_table().PowMont(sig.s), p.PowBytes(y, neg_e));
  FpElem e2 = Challenge(group, p.ToBytes(r), Bytes(pk.begin(), pk.end()), msg);
  return q.Eq(e, e2);
}

Bytes DhSharedSecret(const SchnorrGroup& group, std::span<const std::uint8_t> sk,
                     std::span<const std::uint8_t> peer_pk) {
  const FpCtx& p = group.p_ctx();
  Bytes pk_le(peer_pk.begin(), peer_pk.end());
  FpElem y = p.FromBytes(pk_le);
  FpElem shared = p.PowBytes(y, sk);
  return p.ToBytes(shared);
}

}  // namespace pisces::crypto
