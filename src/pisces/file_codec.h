// File <-> field-element codec (paper SectionVI-E "Lifecycle of Stored Data
// and Files", step 1: "a user divides the file into blocks to be converted to
// packed shares").
//
// Layout: an 8-byte little-endian length header, the file bytes, then zero
// padding up to a whole number of field elements; each element carries
// payload_bytes() = floor((g-1)/8) bytes so the chunk value is always below
// the modulus. Elements are grouped into blocks of l (the packing parameter);
// the last block is padded with zero elements. The codec also carries a
// SHA-256 checksum so the client can verify end-to-end integrity after
// reconstruction.
//
// The padding accounting here is what drives the paper's observation that
// per-byte cost *decreases* slightly with file size (SectionVII-B).
#pragma once

#include <cstdint>

#include "crypto/sha256.h"
#include "field/fp.h"

namespace pisces {

struct FileMeta {
  std::uint64_t file_id = 0;
  std::uint64_t raw_size = 0;    // original byte length
  std::uint64_t num_elems = 0;   // field elements after chunking
  std::uint64_t num_blocks = 0;  // ceil(num_elems / l)
  crypto::Digest checksum{};     // SHA-256 of the original bytes

  Bytes Serialize() const;
  static FileMeta Deserialize(std::span<const std::uint8_t> data);
};

class FileCodec {
 public:
  FileCodec(const field::FpCtx& ctx, std::size_t packing)
      : ctx_(&ctx), l_(packing) {
    Require(ctx.payload_bytes() > 0, "FileCodec: field too small");
  }

  // Number of elements/blocks a file of `size` bytes occupies.
  std::uint64_t ElemsFor(std::uint64_t size) const;
  std::uint64_t BlocksFor(std::uint64_t size) const;
  // Padding overhead: total element payload bytes minus raw size.
  std::uint64_t PaddingFor(std::uint64_t size) const;

  // Encodes a file into blocks of exactly l elements each (zero padded),
  // straight into element encodings (elem_bytes() little-endian bytes each,
  // the wire encoding): element i is its payload bytes followed by zeros.
  // Returns the meta and num_blocks * l * elem_bytes() bytes.
  std::pair<FileMeta, Bytes> EncodeWire(
      std::uint64_t file_id, std::span<const std::uint8_t> data) const;
  // The same as elements: an adapter over EncodeWire.
  std::pair<FileMeta, std::vector<field::FpElem>> Encode(
      std::uint64_t file_id, std::span<const std::uint8_t> data) const;

  // Inverse of EncodeWire over at least meta.num_elems element encodings;
  // validates every element's zero high bytes, the length header and the
  // checksum. Throws ParseError on corrupted input.
  Bytes DecodeWire(const FileMeta& meta,
                   std::span<const std::uint8_t> elems) const;
  // The same over elements: an adapter over DecodeWire.
  Bytes Decode(const FileMeta& meta,
               std::span<const field::FpElem> elems) const;

 private:
  const field::FpCtx* ctx_;
  std::size_t l_;
};

}  // namespace pisces
