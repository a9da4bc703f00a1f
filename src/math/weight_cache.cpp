#include "math/weight_cache.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/error.h"
#include "field/limbs.h"
#include "math/poly.h"

namespace pisces::math {

namespace {

using u64 = std::uint64_t;
using i64 = std::int64_t;

obs::Counter& g_wc_hits = obs::RegisterCounter(
    "math.wc_hits", "weight/generator cache hits");
obs::Counter& g_wc_misses = obs::RegisterCounter(
    "math.wc_misses", "weight/generator cache misses");

DomainCache<WeightRows> g_weights(g_wc_hits, g_wc_misses);
DomainCache<WeightRows> g_generators(g_wc_hits, g_wc_misses);

// Nodes up to this bound take the integer form (the protocol's are at most
// n + l); it bounds the prime table the exponents are kept over.
constexpr u64 kMaxNode = u64{1} << 12;
constexpr u64 kMaxCoeff = std::numeric_limits<i64>::max();

// The integers behind the points, when the modulus is wider than 63 bits
// and every point is a word below kMaxNode; nullopt otherwise.
std::optional<std::vector<i64>> IntegerNodes(const FpCtx& ctx,
                                             std::span<const FpElem> pts) {
  if (ctx.bits() <= 63) return std::nullopt;
  std::vector<i64> out;
  out.reserve(pts.size());
  for (const FpElem& x : pts) {
    if (!field::IsZeroN(x.v.data() + 1, ctx.limbs() - 1) ||
        x.v[0] >= kMaxNode) {
      return std::nullopt;
    }
    out.push_back(static_cast<i64>(x.v[0]));
  }
  return out;
}

// a *= b, unless the product exceeds 63 bits.
bool MulFits(u64& a, u64 b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  if (p > kMaxCoeff) return false;
  a = static_cast<u64>(p);
  return true;
}

// Exponent vectors over the primes up to the largest node difference.
class PrimeExponents {
 public:
  explicit PrimeExponents(u64 max_diff) : index_(max_diff + 1, -1) {
    for (u64 q = 2; q <= max_diff; ++q) {
      bool prime = true;
      for (u64 f : primes_) {
        if (f * f > q) break;
        if (q % f == 0) {
          prime = false;
          break;
        }
      }
      if (prime) {
        index_[q] = static_cast<int>(primes_.size());
        primes_.push_back(q);
      }
    }
  }
  std::size_t size() const { return primes_.size(); }

  // e += by * (exponents of d), 0 < d <= max_diff.
  void Add(u64 d, int by, int* e) const {
    for (u64 f : primes_) {
      if (f * f > d) break;
      while (d % f == 0) {
        e[index_[f]] += by;
        d /= f;
      }
    }
    if (d > 1) e[index_[d]] += by;
  }

  // prod primes^e into *out, unless it exceeds 63 bits.
  bool Value(const int* e, u64* out) const {
    u64 v = 1;
    for (std::size_t p = 0; p < primes_.size(); ++p) {
      for (int i = 0; i < e[p]; ++i) {
        if (!MulFits(v, primes_[p])) return false;
      }
    }
    *out = v;
    return true;
  }

 private:
  std::vector<int> index_;
  std::vector<u64> primes_;
};

// Integer Lagrange rows over distinct nodes xs: for each x in `at`, the
// weights w_k(x) = prod_{j != k} (x - x_j) / (x_k - x_j) in lowest terms
// (prime exponents of the node differences), L = the lcm of their
// denominators and N_k = L * w_k, appended to num (row-major) and lcm.
// False when xs repeats a node or a value exceeds 63 bits.
bool IntegerLagrange(std::span<const i64> xs, std::span<const i64> at,
                     std::vector<i64>& num, std::vector<u64>& lcm) {
  const std::size_t m = xs.size();
  i64 lo = xs[0], hi = xs[0];
  for (i64 v : xs) lo = std::min(lo, v), hi = std::max(hi, v);
  for (i64 v : at) lo = std::min(lo, v), hi = std::max(hi, v);
  const PrimeExponents primes(static_cast<u64>(hi - lo));
  const std::size_t np = primes.size();
  auto add = [&](i64 d, int by, int* e) {
    primes.Add(static_cast<u64>(d < 0 ? -d : d), by, e);
  };
  // den[k]: exponents of |prod_{j != k} (x_k - x_j)|; den_neg[k]: its sign.
  std::vector<int> den(m * np, 0);
  std::vector<bool> den_neg(m, false);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      if (j == k) continue;
      const i64 d = xs[k] - xs[j];
      if (d == 0) return false;
      den_neg[k] = den_neg[k] != (d < 0);
      add(d, 1, den.data() + k * np);
    }
  }
  std::vector<int> total(np), e(m * np), lexp(np);
  for (i64 x : at) {
    const auto hit = std::find(xs.begin(), xs.end(), x);
    if (hit != xs.end()) {  // x is a node: the unit row
      for (std::size_t k = 0; k < m; ++k) num.push_back(xs[k] == x ? 1 : 0);
      lcm.push_back(1);
      continue;
    }
    // total: exponents of |prod_j (x - x_j)|; e_k = total - v(x - x_k) -
    // den_k; L takes each prime's largest denominator exponent.
    std::fill(total.begin(), total.end(), 0);
    bool total_neg = false;
    for (i64 xj : xs) {
      total_neg = total_neg != (x < xj);
      add(x - xj, 1, total.data());
    }
    std::fill(lexp.begin(), lexp.end(), 0);
    for (std::size_t k = 0; k < m; ++k) {
      int* ek = e.data() + k * np;
      for (std::size_t p = 0; p < np; ++p) ek[p] = total[p] - den[k * np + p];
      add(x - xs[k], -1, ek);
      for (std::size_t p = 0; p < np; ++p) lexp[p] = std::max(lexp[p], -ek[p]);
    }
    u64 l = 0;
    if (!primes.Value(lexp.data(), &l)) return false;
    lcm.push_back(l);
    for (std::size_t k = 0; k < m; ++k) {
      int* ek = e.data() + k * np;
      for (std::size_t p = 0; p < np; ++p) ek[p] += lexp[p];
      u64 mag = 0;
      if (!primes.Value(ek, &mag)) return false;
      const bool neg = (total_neg != (x < xs[k])) != den_neg[k];
      num.push_back(neg ? -static_cast<i64>(mag) : static_cast<i64>(mag));
    }
  }
  return true;
}

// The integer generator: row i is the integer Lagrange row over the betas at
// alpha_i, then L_i * w(alpha_i) * alpha_i^k for k = 0..deg-l.
bool IntegerGenerator(std::span<const i64> alphas, std::span<const i64> betas,
                      std::size_t deg, std::vector<i64>& num,
                      std::vector<u64>& lcm) {
  const std::size_t l = betas.size();
  std::vector<i64> lagrange;
  if (!IntegerLagrange(betas, alphas, lagrange, lcm)) return false;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    num.insert(num.end(), lagrange.begin() + i * l,
               lagrange.begin() + (i + 1) * l);
    const i64 a = alphas[i];
    u64 mask = lcm[i];  // |L_i * w(a_i) * a_i^k|, k = 0, 1, ...
    bool neg = false;
    for (i64 b : betas) {
      if (!MulFits(mask, static_cast<u64>(a < b ? b - a : a - b))) {
        return false;
      }
      neg = neg != (a < b);
    }
    for (std::size_t k = l; k <= deg; ++k) {
      num.push_back(neg ? -static_cast<i64>(mask) : static_cast<i64>(mask));
      if (k < deg && !MulFits(mask, static_cast<u64>(a))) return false;
    }
  }
  return true;
}

}  // namespace

WeightRows WeightRows::Integer(const FpCtx& ctx, std::size_t width,
                               std::vector<i64> num, std::vector<u64> lcm) {
  WeightRows w;
  w.rows_ = lcm.size();
  w.width_ = width;
  w.integer_ = true;
  w.num_ = std::move(num);
  w.lcm_ = std::move(lcm);
  w.lcm_inv_.reserve(w.rows_);
  for (u64 l : w.lcm_) {
    w.lcm_inv_.push_back(l == 1 ? ctx.MontOne() : ctx.ToMont(ctx.InvU64(l)));
  }
  return w;
}

WeightRows WeightRows::Lagrange(const FpCtx& ctx, std::span<const FpElem> xs,
                                std::span<const FpElem> eval_points) {
  Require(!xs.empty(), "WeightRows::Lagrange: empty points");
  const auto xn = IntegerNodes(ctx, xs);
  const auto an = IntegerNodes(ctx, eval_points);
  if (xn && an) {
    std::vector<i64> num;
    std::vector<u64> lcm;
    if (IntegerLagrange(*xn, *an, num, lcm)) {
      return Integer(ctx, xs.size(), std::move(num), std::move(lcm));
    }
  }
  WeightRows w;
  w.rows_ = eval_points.size();
  w.width_ = xs.size();
  w.weights_.reserve(w.rows_ * w.width_);
  for (const auto& row : LagrangeCoeffsMulti(ctx, xs, eval_points)) {
    w.weights_.insert(w.weights_.end(), row.begin(), row.end());
  }
  return w;
}

WeightRows WeightRows::Generator(const FpCtx& ctx,
                                 std::span<const FpElem> alphas,
                                 std::span<const FpElem> betas,
                                 std::size_t deg) {
  Require(!betas.empty() && betas.size() <= deg,
          "WeightRows::Generator: need 1 <= l <= deg");
  const auto an = IntegerNodes(ctx, alphas);
  const auto bn = IntegerNodes(ctx, betas);
  if (an && bn) {
    std::vector<i64> num;
    std::vector<u64> lcm;
    if (IntegerGenerator(*an, *bn, deg, num, lcm)) {
      return Integer(ctx, deg + 1, std::move(num), std::move(lcm));
    }
  }
  const std::size_t l = betas.size();
  const auto lagrange = LagrangeCoeffsMulti(ctx, betas, alphas);
  const Poly w = Poly::Vanishing(ctx, betas);
  WeightRows g;
  g.rows_ = alphas.size();
  g.width_ = deg + 1;
  g.weights_.reserve(g.rows_ * g.width_);
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    g.weights_.insert(g.weights_.end(), lagrange[i].begin(),
                      lagrange[i].end());
    FpElem mask = w.Eval(ctx, alphas[i]);  // w(a_i) * a_i^k, k = 0..deg-l
    const field::FpMont alpha = ctx.ToMont(alphas[i]);
    for (std::size_t k = l; k <= deg; ++k) {
      g.weights_.push_back(mask);
      mask = ctx.Mul(alpha, mask);
    }
  }
  return g;
}

void WeightRows::Apply(const FpCtx& ctx,
                       std::span<const std::uint8_t* const> ys, bool scaled,
                       std::span<std::uint8_t* const> out) const {
  Require(ys.size() >= width_, "WeightRows: ys too short");
  ys = ys.first(width_);
  if (integer_) {
    ctx.DotI64Into(ys, num_, scaled ? std::span(lcm_inv_)
                                    : std::span<const field::FpMont>(),
                   out);
    return;
  }
  const std::size_t eb = ctx.elem_bytes();
  std::vector<FpElem> vals;
  vals.reserve(width_);
  for (const std::uint8_t* y : ys) vals.push_back(ctx.FromBytes({y, eb}));
  for (std::size_t r = 0; r < rows_; ++r) {
    ctx.ToBytes(ctx.Dot(Weights(r), vals), out[r]);
  }
}

void WeightRows::EvalInto(const FpCtx& ctx,
                          std::span<const std::uint8_t* const> ys,
                          std::span<std::uint8_t* const> out) const {
  Require(out.size() == rows_, "WeightRows: one output per row");
  Apply(ctx, ys, /*scaled=*/true, out);
}

bool WeightRows::Predicts(const FpCtx& ctx,
                          std::span<const std::uint8_t* const> ys,
                          std::span<const std::uint8_t* const> expected) const {
  Require(expected.size() == rows_, "WeightRows: one expected value per row");
  return Matches(ctx, ys, expected);
}

bool WeightRows::Vanishes(const FpCtx& ctx,
                          std::span<const std::uint8_t* const> ys) const {
  return Matches(ctx, ys, {});
}

bool WeightRows::Matches(const FpCtx& ctx,
                         std::span<const std::uint8_t* const> ys,
                         std::span<const std::uint8_t* const> expected) const {
  static constexpr std::uint8_t kZero[8 * field::kMaxLimbs] = {};
  const std::size_t eb = ctx.elem_bytes();
  Bytes sums(rows_ * eb);
  std::vector<std::uint8_t*> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = sums.data() + r * eb;
  Apply(ctx, ys, /*scaled=*/false, out);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::uint8_t* y = expected.empty() ? kZero : expected[r];
    // L_r * y, unless that is y itself (L_r = 1, the field form or y = 0).
    if (integer_ && lcm_[r] != 1 && y != kZero
            ? ctx.MulU64Add(ctx.FromBytes({y, eb}), lcm_[r], ctx.Zero()) !=
                  ctx.FromBytes({out[r], eb})
            : !std::equal(y, y + eb, out[r])) {
      return false;
    }
  }
  return true;
}

std::vector<FpElem> WeightRows::FieldRow(const FpCtx& ctx,
                                         std::size_t r) const {
  if (!integer_) {
    const auto w = Weights(r);
    return {w.begin(), w.end()};
  }
  std::vector<FpElem> out;
  out.reserve(width_);
  for (i64 c : Num(r)) {
    const FpElem mag = ctx.FromUint64(c < 0 ? 0 - static_cast<u64>(c)
                                            : static_cast<u64>(c));
    out.push_back(ctx.Mul(lcm_inv_[r], c < 0 ? ctx.Neg(mag) : mag));
  }
  return out;
}

std::shared_ptr<const WeightRows> CachedLagrangeWeights(
    const FpCtx& ctx, std::span<const FpElem> xs,
    std::span<const FpElem> eval_points) {
  return g_weights.Get(DomainKey(ctx).Points(xs).Points(eval_points), [&] {
    return WeightRows::Lagrange(ctx, xs, eval_points);
  });
}

std::shared_ptr<const WeightRows> CachedSharingGenerator(
    const FpCtx& ctx, std::span<const FpElem> alphas,
    std::span<const FpElem> betas, std::size_t deg) {
  auto key = DomainKey(ctx).Points(alphas).Points(betas).Tag(deg);
  return g_generators.Get(std::move(key), [&] {
    return WeightRows::Generator(ctx, alphas, betas, deg);
  });
}

PointChecker::PointChecker(const FpCtx& ctx, std::vector<FpElem> xs,
                           std::size_t deg)
    : ctx_(&ctx), xs_(std::move(xs)), deg_(deg) {
  Require(xs_.size() >= deg_ + 1, "PointChecker: not enough points");
  extra_ = WeightRows::Lagrange(
      *ctx_, std::span<const FpElem>(xs_.data(), deg_ + 1),
      std::span<const FpElem>(xs_.data() + deg_ + 1, xs_.size() - deg_ - 1));
}

bool PointChecker::Consistent(std::span<const std::uint8_t* const> ys) const {
  Require(ys.size() == xs_.size(), "PointChecker: ys size mismatch");
  return extra_.Predicts(*ctx_, ys, ys.subspan(deg_ + 1));
}

WeightRows PointChecker::WeightsAt(std::span<const FpElem> at) const {
  return WeightRows::Lagrange(
      *ctx_, std::span<const FpElem>(xs_.data(), deg_ + 1), at);
}

}  // namespace pisces::math
