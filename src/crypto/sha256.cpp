#include "crypto/sha256.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pisces::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t Rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void CompressPortable(std::uint32_t* state, const std::uint8_t* data,
                      std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(data[4 * i]) << 24) |
             (std::uint32_t(data[4 * i + 1]) << 16) |
             (std::uint32_t(data[4 * i + 2]) << 8) |
             std::uint32_t(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)
// The SHA extensions keep the eight state words as two lane vectors, ABEF and
// CDGH; sha256rnds2 runs two rounds, msg1/msg2 extend the message schedule
// four words at a time.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[i & 3] holds schedule words 4i .. 4i+3
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            kByteSwap);
      } else {
        // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
        const __m128i w7 =
            _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4);
        w[i & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]), w7),
            w[(i + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          w[i & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}
#endif

// The kernel every default-constructed Sha256 uses, chosen on first use.
sha256_internal::Kernel Dispatched() {
  static const sha256_internal::Kernel kernel = [] {
    sha256_internal::Kernel ni = sha256_internal::ShaNi();
    return ni != nullptr ? ni : sha256_internal::Portable();
  }();
  return kernel;
}

}  // namespace

namespace sha256_internal {

Kernel Portable() { return &CompressPortable; }

Kernel ShaNi() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return &CompressShaNi;
  }
#endif
  return nullptr;
}

}  // namespace sha256_internal

Sha256::Sha256() : Sha256(Dispatched()) {}

Sha256::Sha256(sha256_internal::Kernel kernel) : kernel_(kernel) { Reset(); }

void Sha256::Reset() {
  for (int i = 0; i < 8; ++i) h_[i] = kInit[i];
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::Update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t take = std::min(data.size(), std::size_t{64} - buf_len_);
    std::copy(data.begin(), data.begin() + take, buf_.begin() + buf_len_);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      kernel_(h_.data(), buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - off) / 64;
  if (blocks > 0) {
    kernel_(h_.data(), data.data() + off, blocks);
    off += 64 * blocks;
  }
  if (off < data.size()) {
    std::copy(data.begin() + off, data.end(), buf_.begin());
    buf_len_ = data.size() - off;
  }
}

Digest Sha256::Finish() {
  std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72] = {0x80};
  // Pad to 56 mod 64, then 8 bytes big-endian length.
  std::size_t pad_len = (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i)
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  Update({pad, pad_len});
  Update({len_be, 8});
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  Reset();
  return out;
}

Digest Sha256Hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace pisces::crypto
