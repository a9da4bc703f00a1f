#include "pisces/file_codec.h"

#include <algorithm>

#include "obs/trace.h"

namespace pisces {

Bytes FileMeta::Serialize() const {
  ByteWriter w;
  w.U64(file_id);
  w.U64(raw_size);
  w.U64(num_elems);
  w.U64(num_blocks);
  w.Raw(checksum);
  return w.Take();
}

FileMeta FileMeta::Deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  FileMeta m;
  m.file_id = r.U64();
  m.raw_size = r.U64();
  m.num_elems = r.U64();
  m.num_blocks = r.U64();
  auto cs = r.Raw(m.checksum.size());
  std::copy(cs.begin(), cs.end(), m.checksum.begin());
  return m;
}

std::uint64_t FileCodec::ElemsFor(std::uint64_t size) const {
  const std::uint64_t payload = ctx_->payload_bytes();
  return (8 + size + payload - 1) / payload;
}

std::uint64_t FileCodec::BlocksFor(std::uint64_t size) const {
  return (ElemsFor(size) + l_ - 1) / l_;
}

std::uint64_t FileCodec::PaddingFor(std::uint64_t size) const {
  return BlocksFor(size) * l_ * ctx_->payload_bytes() - size;
}

std::pair<FileMeta, Bytes> FileCodec::EncodeWire(
    std::uint64_t file_id, std::span<const std::uint8_t> data) const {
  const std::size_t payload = ctx_->payload_bytes();
  const std::size_t eb = ctx_->elem_bytes();
  FileMeta meta;
  meta.file_id = file_id;
  meta.raw_size = data.size();
  meta.num_elems = ElemsFor(data.size());
  meta.num_blocks = BlocksFor(data.size());
  meta.checksum = crypto::Sha256Hash(data);

  obs::Span span(obs::SpanKind::kCodecEncode, meta.num_blocks);
  const std::size_t count = meta.num_blocks * l_;
  Bytes framed(count * payload, 0);
  StoreLe64(data.size(), framed.data());
  std::copy(data.begin(), data.end(), framed.begin() + 8);
  // Each element is its payload bytes, zero-extended to the element width.
  Bytes out(count * eb, 0);
  for (std::size_t i = 0; i < count; ++i) {
    std::copy_n(framed.data() + i * payload, payload, out.data() + i * eb);
  }
  return {meta, std::move(out)};
}

std::pair<FileMeta, std::vector<field::FpElem>> FileCodec::Encode(
    std::uint64_t file_id, std::span<const std::uint8_t> data) const {
  auto [meta, wire] = EncodeWire(file_id, data);
  return {meta, field::DeserializeElems(*ctx_, wire)};
}

Bytes FileCodec::DecodeWire(const FileMeta& meta,
                            std::span<const std::uint8_t> elems) const {
  const std::size_t payload = ctx_->payload_bytes();
  const std::size_t eb = ctx_->elem_bytes();
  if (elems.size() % eb != 0) throw ParseError("FileCodec::Decode: ragged");
  const std::size_t count = elems.size() / eb;
  if (count < meta.num_elems) {
    throw ParseError("FileCodec::Decode: missing elements");
  }
  obs::Span span(obs::SpanKind::kCodecDecode, meta.num_blocks);
  Bytes framed(count * payload);
  for (std::size_t i = 0; i < count; ++i) {
    // The payload is the low bytes of the element; every byte above it must
    // be zero for a well-formed element.
    const std::uint8_t* src = elems.data() + i * eb;
    std::copy_n(src, payload, framed.data() + i * payload);
    if (std::any_of(src + payload, src + eb,
                    [](std::uint8_t b) { return b != 0; })) {
      throw ParseError("FileCodec::Decode: element overflow");
    }
  }
  if (framed.size() < 8) throw ParseError("FileCodec::Decode: truncated");
  std::uint64_t len = LoadLe64(framed.data());
  if (len != meta.raw_size || framed.size() < 8 + len) {
    throw ParseError("FileCodec::Decode: length mismatch");
  }
  Bytes out(framed.begin() + 8, framed.begin() + 8 + len);
  if (crypto::Sha256Hash(out) != meta.checksum) {
    throw ParseError("FileCodec::Decode: checksum mismatch");
  }
  return out;
}

Bytes FileCodec::Decode(const FileMeta& meta,
                        std::span<const field::FpElem> elems) const {
  return DecodeWire(meta, field::SerializeElems(*ctx_, elems));
}

}  // namespace pisces
