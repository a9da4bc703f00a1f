// Small byte-buffer helpers shared across modules: hex codecs, little-endian
// integer packing, and a growable byte writer/reader pair used by the wire
// format and the file codec.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace pisces {

using Bytes = std::vector<std::uint8_t>;

std::string ToHex(std::span<const std::uint8_t> data);
Bytes FromHex(std::string_view hex);

// Little-endian fixed-width stores/loads. Inline: element serialization and
// the signed-word dot kernel run one per limb. The 64-bit pair is a single
// unaligned move (plus a byte swap on a big-endian host): inside fully
// unrolled kernels the compiler does not always fold a byte loop into one.
inline void StoreLe32(std::uint32_t v, std::uint8_t* out) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void StoreLe64(std::uint64_t v, std::uint8_t* out) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(out, &v, 8);
}
inline std::uint32_t LoadLe32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}
inline std::uint64_t LoadLe64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  std::memcpy(&v, in, 8);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// Append-only byte writer used to build wire messages.
class ByteWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v);
  void U64(std::uint64_t v);
  // Raw bytes, no length prefix.
  void Raw(std::span<const std::uint8_t> data);
  // Length-prefixed (u32) byte string.
  void Blob(std::span<const std::uint8_t> data);

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Cursor-based reader matching ByteWriter. Throws ParseError on underflow.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8();
  std::uint32_t U32();
  std::uint64_t U64();
  // Reads exactly n raw bytes.
  std::span<const std::uint8_t> Raw(std::size_t n);
  // Reads a u32 length-prefixed byte string.
  std::span<const std::uint8_t> Blob();
  // Reads a u32 element count, rejecting it with ParseError when that many
  // elements of at least `min_elem_bytes` each cannot fit in the remaining
  // input -- so a lying count never drives an allocation.
  std::uint32_t Count(std::size_t min_elem_bytes);

  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t Remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace pisces
