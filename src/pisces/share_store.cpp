#include "pisces/share_store.h"

#include <utility>

#include "obs/registry.h"

namespace pisces {

namespace {

obs::Counter& StoreLoads() {
  static obs::Counter& c = obs::RegisterCounter(
      "store.loads", "share vectors deserialized into the RAM tier");
  return c;
}
obs::Counter& StoreStashes() {
  static obs::Counter& c = obs::RegisterCounter(
      "store.stashes", "RAM working copies serialized back to rest");
  return c;
}

}  // namespace

void ShareStore::Put(const FileMeta& meta, std::vector<field::FpElem> shares) {
  PutEncoded(meta, field::SerializeElems(*ctx_, shares));
}

void ShareStore::PutEncoded(const FileMeta& meta, Bytes at_rest) {
  Require(at_rest.size() == meta.num_blocks * ctx_->elem_bytes(),
          "ShareStore::Put: one share per block expected");
  Entry e;
  e.meta = meta;
  e.at_rest = std::move(at_rest);
  entries_[meta.file_id] = std::move(e);
}

const ShareStore::Entry& ShareStore::Get(std::uint64_t file_id) const {
  auto it = entries_.find(file_id);
  Require(it != entries_.end(), "ShareStore: unknown file");
  return it->second;
}

ShareStore::Entry& ShareStore::Get(std::uint64_t file_id) {
  return const_cast<Entry&>(std::as_const(*this).Get(file_id));
}

const ShareStore::Stored* ShareStore::Find(std::uint64_t file_id) const {
  auto it = entries_.find(file_id);
  if (it == entries_.end()) return nullptr;
  Require(!it->second.ram, "ShareStore: working copy loaded");
  return &it->second;
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
  const Entry& e = Get(file_id);
  Require(!e.ram, "ShareStore: working copy loaded");
  return e.at_rest;
}

std::vector<field::FpElem> ShareStore::Decode(std::uint64_t file_id) const {
  return field::DeserializeElems(*ctx_, AtRest(file_id));
}

std::vector<field::FpElem>& ShareStore::Load(std::uint64_t file_id) {
  Entry& e = Get(file_id);
  if (!e.ram) {
    StoreLoads().Add(1);
    e.ram = field::DeserializeElems(*ctx_, e.at_rest);
  }
  return *e.ram;
}

void ShareStore::Stash(std::uint64_t file_id) {
  Entry& e = Get(file_id);
  if (e.ram) {
    StoreStashes().Add(1);
    e.at_rest = field::SerializeElems(*ctx_, *e.ram);
    e.ram.reset();
  }
}

std::size_t ShareStore::Loaded() const {
  std::size_t n = 0;
  for (const auto& [id, e] : entries_) n += e.ram.has_value() ? 1 : 0;
  return n;
}

void ShareStore::Delete(std::uint64_t file_id) { entries_.erase(file_id); }

void ShareStore::WipeAll() { entries_.clear(); }

std::uint64_t ShareStore::SecondaryBytes() const {
  std::uint64_t total = 0;
  for (const auto& [id, e] : entries_) total += e.at_rest.size();
  return total;
}

}  // namespace pisces
