// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for: file integrity checksums in the codec, HMAC/HKDF for channel
// keys, and the Fiat-Shamir style challenge in Schnorr signatures.
//
// The block compression has two kernels with identical output. On x86 CPUs
// that report the SHA extensions and SSE4.1 (__builtin_cpu_supports), every
// Sha256 uses the SHA-NI kernel (_mm_sha256rnds2_epu32 / msg1 / msg2); the
// choice is made once per process, on first use. Elsewhere -- and in builds
// for other architectures, which compile only this path -- the portable
// kernel runs. The portable kernel is also the reference the SHA-NI one is
// tested against.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"

namespace pisces::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

// Internal: the compression kernels, reachable so tests can run each one.
namespace sha256_internal {
// Compresses `blocks` consecutive 64-byte blocks into `state` (8 words).
using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                        std::size_t blocks);
Kernel Portable();
// The SHA-NI kernel, or nullptr when this CPU or build target lacks it.
Kernel ShaNi();
}  // namespace sha256_internal

class Sha256 {
 public:
  Sha256();
  // Test hook: hash with a specific kernel instead of the dispatched one.
  explicit Sha256(sha256_internal::Kernel kernel);

  void Update(std::span<const std::uint8_t> data);
  Digest Finish();

  void Reset();

 private:
  sha256_internal::Kernel kernel_;
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

Digest Sha256Hash(std::span<const std::uint8_t> data);

}  // namespace pisces::crypto
