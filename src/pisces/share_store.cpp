#include "pisces/share_store.h"

#include <utility>

namespace pisces {

void ShareStore::Put(const FileMeta& meta, Bytes at_rest) {
  Require(at_rest.size() == meta.num_blocks * ctx_->elem_bytes(),
          "ShareStore::Put: one share per block expected");
  entries_[meta.file_id] = Stored{meta, std::move(at_rest)};
}

const ShareStore::Stored& ShareStore::Get(std::uint64_t file_id) const {
  auto it = entries_.find(file_id);
  Require(it != entries_.end(), "ShareStore: unknown file");
  return it->second;
}

const ShareStore::Stored* ShareStore::Find(std::uint64_t file_id) const {
  auto it = entries_.find(file_id);
  return it == entries_.end() ? nullptr : &it->second;
}

bool ShareStore::Has(std::uint64_t file_id) const {
  return entries_.find(file_id) != entries_.end();
}

std::vector<std::uint64_t> ShareStore::FileIds() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, e] : entries_) ids.push_back(id);
  return ids;
}

const FileMeta& ShareStore::MetaOf(std::uint64_t file_id) const {
  return Get(file_id).meta;
}

std::span<const std::uint8_t> ShareStore::AtRest(std::uint64_t file_id) const {
  return Get(file_id).at_rest;
}

std::span<std::uint8_t> ShareStore::Writable(std::uint64_t file_id) {
  return const_cast<Stored&>(Get(file_id)).at_rest;
}

std::vector<field::FpElem> ShareStore::Decode(std::uint64_t file_id) const {
  return field::DeserializeElems(*ctx_, AtRest(file_id));
}

void ShareStore::Delete(std::uint64_t file_id) { entries_.erase(file_id); }

void ShareStore::WipeAll() { entries_.clear(); }

std::uint64_t ShareStore::SecondaryBytes() const {
  std::uint64_t total = 0;
  for (const auto& [id, e] : entries_) total += e.at_rest.size();
  return total;
}

}  // namespace pisces
