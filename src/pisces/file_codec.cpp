#include "pisces/file_codec.h"

#include "common/task_pool.h"
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

std::pair<FileMeta, std::vector<field::FpElem>> FileCodec::Encode(
    std::uint64_t file_id, std::span<const std::uint8_t> data,
    std::uint64_t* extra_cpu_ns) const {
  const std::size_t payload = ctx_->payload_bytes();
  FileMeta meta;
  meta.file_id = file_id;
  meta.raw_size = data.size();
  meta.num_elems = ElemsFor(data.size());
  meta.num_blocks = BlocksFor(data.size());
  meta.checksum = crypto::Sha256Hash(data);

  obs::Span span(obs::SpanKind::kCodecEncode, meta.num_blocks);
  Bytes framed(meta.num_blocks * l_ * payload, 0);
  StoreLe64(data.size(), framed.data());
  std::copy(data.begin(), data.end(), framed.begin() + 8);

  // Each element is its payload bytes read straight into the limbs.
  std::vector<field::FpElem> elems(meta.num_blocks * l_, ctx_->Zero());
  GlobalPool().ParallelFor(
      0, elems.size(),
      [&](std::size_t i) {
        elems[i] = ctx_->FromBytes(
            std::span<const std::uint8_t>(framed).subspan(i * payload, payload));
      },
      extra_cpu_ns);
  return {meta, std::move(elems)};
}

Bytes FileCodec::Decode(const FileMeta& meta,
                        std::span<const field::FpElem> elems,
                        std::uint64_t* extra_cpu_ns) const {
  const std::size_t payload = ctx_->payload_bytes();
  if (elems.size() < meta.num_elems) {
    throw ParseError("FileCodec::Decode: missing elements");
  }
  obs::Span span(obs::SpanKind::kCodecDecode, meta.num_blocks);
  Bytes framed(elems.size() * payload, 0);
  // The payload is the low bytes of the limbs; every byte above it must be
  // zero for a well-formed element.
  const std::size_t whole = payload / 8;
  GlobalPool().ParallelFor(
      0, elems.size(),
      [&](std::size_t i) {
        const field::Limbs& v = elems[i].v;
        std::uint8_t* dst = framed.data() + i * payload;
        for (std::size_t j = 0; j < whole; ++j) StoreLe64(v[j], dst + 8 * j);
        std::uint64_t rest = v[whole];
        for (std::size_t j = 8 * whole; j < payload; ++j, rest >>= 8) {
          dst[j] = static_cast<std::uint8_t>(rest);
        }
        if (rest != 0 || !field::IsZeroN(v.data() + whole + 1,
                                         ctx_->limbs() - whole - 1)) {
          throw ParseError("FileCodec::Decode: element overflow");
        }
      },
      extra_cpu_ns);
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

}  // namespace pisces
