#include "common/bytes.h"

namespace pisces {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string ToHex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

Bytes FromHex(std::string_view hex) {
  Require(hex.size() % 2 == 0, "FromHex: odd-length input");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    Require(hi >= 0 && lo >= 0, "FromHex: non-hex character");
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

void ByteWriter::U32(std::uint32_t v) {
  std::uint8_t tmp[4];
  StoreLe32(v, tmp);
  buf_.insert(buf_.end(), tmp, tmp + 4);
}

void ByteWriter::U64(std::uint64_t v) {
  std::uint8_t tmp[8];
  StoreLe64(v, tmp);
  buf_.insert(buf_.end(), tmp, tmp + 8);
}

void ByteWriter::Raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::Blob(std::span<const std::uint8_t> data) {
  U32(static_cast<std::uint32_t>(data.size()));
  Raw(data);
}

std::uint8_t ByteReader::U8() {
  if (Remaining() < 1) throw ParseError("ByteReader: underflow (u8)");
  return data_[pos_++];
}

std::uint32_t ByteReader::U32() {
  if (Remaining() < 4) throw ParseError("ByteReader: underflow (u32)");
  std::uint32_t v = LoadLe32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::U64() {
  if (Remaining() < 8) throw ParseError("ByteReader: underflow (u64)");
  std::uint64_t v = LoadLe64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::span<const std::uint8_t> ByteReader::Raw(std::size_t n) {
  if (Remaining() < n) throw ParseError("ByteReader: underflow (raw)");
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::span<const std::uint8_t> ByteReader::Blob() {
  std::uint32_t n = U32();
  return Raw(n);
}

std::uint32_t ByteReader::Count(std::size_t min_elem_bytes) {
  const std::uint32_t n = U32();
  if (std::uint64_t{n} * min_elem_bytes > Remaining()) {
    throw ParseError("ByteReader: element count exceeds the input");
  }
  return n;
}

}  // namespace pisces
