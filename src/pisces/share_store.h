// Per-host share storage with the paper's two-tier model (SectionIV-C):
// inactive shares live serialized in "secondary storage"; a refresh or
// recovery loads them into the RAM tier, operates, and stashes them back.
// Secure disassociation (reboot) wipes both tiers.
//
// The at-rest encoding is the wire encoding (field::SerializeElems: one
// fixed-width canonical element per block), so a read serves the at-rest
// bytes Find() returns as they are and never loads. Only the two writers --
// refresh apply and recovery finish -- hold a RAM working copy, and neither
// lets it outlive the handler that loaded it.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "pisces/file_codec.h"

namespace pisces {

class ShareStore {
 public:
  explicit ShareStore(const field::FpCtx& ctx) : ctx_(&ctx) {}

  // Installs shares for a file (one element per block). Overwrites.
  void Put(const FileMeta& meta, std::vector<field::FpElem> shares);
  // Installs shares already in the at-rest encoding. The caller has checked
  // them (field::ValidateElems) and their count against the meta.
  void PutEncoded(const FileMeta& meta, Bytes at_rest);

  bool Has(std::uint64_t file_id) const;
  std::vector<std::uint64_t> FileIds() const;
  const FileMeta& MetaOf(std::uint64_t file_id) const;

  // A file's meta and committed at-rest bytes (num_blocks elements of
  // ctx.elem_bytes() each), as one read sees them.
  struct Stored {
    FileMeta meta;
    Bytes at_rest;
  };
  // One lookup for a read: the file's entry, or nullptr when the store does
  // not hold it. Refuses, as AtRest does, a file whose working copy is
  // loaded. Valid until the next write to that file.
  const Stored* Find(std::uint64_t file_id) const;

  // Read-only view of a file's committed at-rest bytes. Valid until the next
  // write to that file. Refuses a file whose RAM working copy is loaded:
  // those bytes are about to be superseded by the Stash.
  std::span<const std::uint8_t> AtRest(std::uint64_t file_id) const;
  // Decodes a copy of a file's shares, for read-only users; the store is
  // left untouched.
  std::vector<field::FpElem> Decode(std::uint64_t file_id) const;

  // Loads shares into RAM (deserializing from the secondary tier if needed)
  // and returns a mutable reference for in-place refresh.
  std::vector<field::FpElem>& Load(std::uint64_t file_id);

  // Serializes the RAM copy back to the secondary tier and drops the RAM
  // copy. The previous secondary blob is destroyed -- this is the "old shares
  // are deleted" step that makes captured shares obsolete.
  void Stash(std::uint64_t file_id);

  // Files whose RAM working copy is currently loaded (0 between handlers).
  std::size_t Loaded() const;

  void Delete(std::uint64_t file_id);

  // Secure disassociation: destroy everything (reboot path).
  void WipeAll();

  // Bytes at rest in the secondary tier (storage cost accounting).
  std::uint64_t SecondaryBytes() const;

 private:
  struct Entry : Stored {
    std::optional<std::vector<field::FpElem>> ram;  // loaded working copy
  };

  const Entry& Get(std::uint64_t file_id) const;
  Entry& Get(std::uint64_t file_id);

  const field::FpCtx* ctx_;
  std::map<std::uint64_t, Entry> entries_;
};

}  // namespace pisces
