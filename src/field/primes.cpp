#include "field/primes.h"

#include "field/fp.h"

namespace pisces::field {

Bytes StandardPrimeBe(std::size_t bits) {
  // Largest prime below 2^g: 2^g - c. (Classic table of minimal c; each value
  // is re-verified by unit tests with Miller-Rabin.)
  std::uint32_t c;
  switch (bits) {
    case 256: c = 189; break;
    case 512: c = 569; break;
    case 1024: c = 105; break;
    case 2048: c = 1557; break;
    default:
      throw InvalidArgument("StandardPrimeBe: unsupported field size");
  }
  // p = (2^g - 1) - (c - 1): all-ones minus a small value.
  Bytes p(bits / 8, 0xFF);
  std::uint32_t borrow = c - 1;
  for (std::size_t i = p.size(); i-- > 0 && borrow > 0;) {
    std::uint32_t cur = p[i];
    if (cur >= (borrow & 0xFF)) {
      p[i] = static_cast<std::uint8_t>(cur - (borrow & 0xFF));
      borrow >>= 8;
    } else {
      p[i] = static_cast<std::uint8_t>(cur + 256 - (borrow & 0xFF));
      borrow = (borrow >> 8) + 1;
    }
  }
  return p;
}

namespace {

// n mod m for big-endian n and small m.
std::uint64_t ModSmall(std::span<const std::uint8_t> n_be, std::uint64_t m) {
  std::uint64_t r = 0;
  for (std::uint8_t b : n_be) r = ((r << 8) | b) % m;
  return r;
}

constexpr std::uint64_t kSmallPrimes[] = {
    3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37,  41,  43,  47,  53,  59,
    61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137};

}  // namespace

bool MillerRabinIsPrime(std::span<const std::uint8_t> n_be, int rounds,
                        Rng& rng) {
  while (!n_be.empty() && n_be.front() == 0) n_be = n_be.subspan(1);
  if (n_be.empty()) return false;
  if (n_be.size() == 1 && n_be[0] < 4) return n_be[0] >= 2;  // 2, 3 prime
  if ((n_be.back() & 1) == 0) return false;
  for (std::uint64_t sp : kSmallPrimes) {
    if (ModSmall(n_be, sp) == 0) {
      // n divisible by sp: prime only if n == sp.
      return n_be.size() == 1 && n_be[0] == sp;
    }
  }

  FpCtx ctx(n_be);

  // n - 1 = 2^s * d.
  Limbs d{};
  {
    Bytes n_le(n_be.size());
    for (std::size_t i = 0; i < n_be.size(); ++i)
      n_le[i] = n_be[n_be.size() - 1 - i];
    for (std::size_t i = 0; i < n_le.size(); ++i)
      d[i / 8] |= static_cast<std::uint64_t>(n_le[i]) << (8 * (i % 8));
    d[0] -= 1;  // n odd, so no borrow
  }
  std::size_t s = 0;
  while (!GetBit(d.data(), 0)) {
    ShiftRight1(d.data(), kMaxLimbs);
    ++s;
  }
  // d as big-endian bytes.
  Bytes d_be;
  {
    std::size_t dbits = BitLengthN(d.data(), kMaxLimbs);
    std::size_t nbytes = (dbits + 7) / 8;
    d_be.resize(nbytes);
    for (std::size_t i = 0; i < nbytes; ++i) {
      std::size_t lo_byte = nbytes - 1 - i;
      d_be[i] = static_cast<std::uint8_t>(d[lo_byte / 8] >> (8 * (lo_byte % 8)));
    }
  }

  field::FpElem minus_one = ctx.Neg(ctx.One());
  const FpMont minus_one_m = ctx.ToMont(minus_one);
  for (int round = 0; round < rounds; ++round) {
    // Random base in [2, n-2]; Random() then reject trivial values.
    FpElem a;
    do {
      a = ctx.Random(rng);
    } while (ctx.IsZero(a) || ctx.Eq(a, ctx.One()) || ctx.Eq(a, minus_one));

    const FpElem x = ctx.PowBytes(a, d_be);
    if (ctx.Eq(x, ctx.One()) || ctx.Eq(x, minus_one)) continue;
    bool witness = true;
    FpMont xm = ctx.ToMont(x);
    for (std::size_t i = 1; i < s; ++i) {
      xm = ctx.Sqr(xm);
      if (xm == minus_one_m) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

}  // namespace pisces::field
