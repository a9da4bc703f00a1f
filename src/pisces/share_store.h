// Per-host share storage (paper SectionIV-C): each file's shares live in
// one tier, serialized at rest. Secure disassociation (reboot) wipes it.
//
// The at-rest encoding is the wire encoding (one fixed-width canonical
// element per block, field::FpCtx::elem_bytes() each), so a read serves the
// bytes Find() returns as they are, and a refresh adds its zero-sharing onto
// them in place: writing a new share overwrites the old one, which is the
// proactive "delete old shares" step.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "pisces/file_codec.h"

namespace pisces {

class ShareStore {
 public:
  explicit ShareStore(const field::FpCtx& ctx) : ctx_(&ctx) {}

  // Installs a file's shares in the at-rest encoding (meta.num_blocks
  // elements). Overwrites. The caller has checked the elements
  // (field::ValidateElems); the size is checked here.
  void Put(const FileMeta& meta, Bytes at_rest);

  bool Has(std::uint64_t file_id) const;
  std::vector<std::uint64_t> FileIds() const;
  const FileMeta& MetaOf(std::uint64_t file_id) const;

  // A file's meta and at-rest bytes (num_blocks elements of
  // ctx.elem_bytes() each), as one read sees them.
  struct Stored {
    FileMeta meta;
    Bytes at_rest;
  };
  // One lookup for a read: the file's entry, or nullptr when the store does
  // not hold it. Valid until the next Put or Delete of that file; a refresh
  // rewrites the bytes it points at in place.
  const Stored* Find(std::uint64_t file_id) const;

  // Read-only view of a file's at-rest bytes. Valid as Find's entry.
  std::span<const std::uint8_t> AtRest(std::uint64_t file_id) const;
  // Writable view of the same bytes, for a refresh that adds its
  // zero-sharing in place. Every element written must stay below p.
  std::span<std::uint8_t> Writable(std::uint64_t file_id);
  // Decodes a copy of a file's shares, for read-only users.
  std::vector<field::FpElem> Decode(std::uint64_t file_id) const;

  void Delete(std::uint64_t file_id);

  // Secure disassociation: destroy everything (reboot path).
  void WipeAll();

  // Bytes at rest (storage cost accounting).
  std::uint64_t SecondaryBytes() const;

 private:
  const Stored& Get(std::uint64_t file_id) const;

  const field::FpCtx* ctx_;
  std::map<std::uint64_t, Stored> entries_;
};

}  // namespace pisces
