// The one process-wide memo for point-set-dependent precomputations. Three
// instances use it: Lagrange weight sets and the packed-sharing generator
// (math/weight_cache.h), and the inverted Lagrange denominators of each point
// set (math/poly.cpp). Every refresh window, download and upload re-derives
// the same objects over the same holder, responder and secret point sets;
// each instance of DomainCache<T> memoizes one kind.
//
// Rules (see docs/parallelism.md):
//   * values are immutable shared_ptr<const T> -- a cached value can never
//     change under a reader, so lookups from pool workers are safe;
//   * the key is the modulus bytes plus size-tagged limb dumps of the point
//     sets and shape tags, never the FpCtx address: a freed context's address
//     can be reused by a context over a DIFFERENT prime. Points are plain
//     residues, canonical for a fixed modulus, so two live contexts over one
//     prime share entries and two primes never alias;
//   * a miss computes outside the lock; racing misses build identical values
//     and the first insert wins;
//   * at kWeightCacheMaxEntries entries the map is cleared wholesale, so
//     eviction never depends on timing or thread count;
//   * each instance bumps its own hit/miss registry counter pair
//     (observability only, never part of control flow).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "field/fp.h"
#include "obs/registry.h"

namespace pisces::math {

using field::FpCtx;
using field::FpElem;

// Upper bound on retained entries per cache before a wholesale clear. A
// cluster sweep touches a handful of point sets per (n, t, l) configuration;
// 256 comfortably covers every bench sweep while bounding memory.
inline constexpr std::size_t kWeightCacheMaxEntries = 256;

class DomainKey {
 public:
  // The modulus's byte length, then its limbs most significant first, so
  // keys order as the big-endian modulus bytes would.
  explicit DomainKey(const FpCtx& ctx) : limbs_(ctx.limbs()) {
    const std::span<const std::uint64_t> p = ctx.modulus();
    Tag((ctx.bits() + 7) / 8);
    blob_.insert(blob_.end(), p.rbegin(), p.rend());
  }

  DomainKey& Tag(std::uint64_t v) {
    blob_.push_back(v);
    return *this;
  }
  DomainKey& Points(std::span<const FpElem> xs) {
    Tag(xs.size());
    for (const FpElem& e : xs) {
      blob_.insert(blob_.end(), e.v.begin(), e.v.begin() + limbs_);
    }
    return *this;
  }

  bool operator<(const DomainKey& o) const { return blob_ < o.blob_; }

 private:
  std::size_t limbs_;
  std::vector<std::uint64_t> blob_;
};

template <typename T>
class DomainCache {
 public:
  DomainCache(obs::Counter& hits, obs::Counter& misses)
      : hits_(hits), misses_(misses) {}

  // The cached value for `key`, computing it with build() on a miss.
  template <typename Build>
  std::shared_ptr<const T> Get(DomainKey key, Build&& build) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        hits_.Add();
        return it->second;
      }
    }
    misses_.Add();
    auto value = std::make_shared<const T>(build());
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.size() >= kWeightCacheMaxEntries) map_.clear();
    return map_.emplace(std::move(key), std::move(value)).first->second;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
  }
  std::size_t Size() {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  obs::Counter& hits_;
  obs::Counter& misses_;
  std::mutex mu_;
  std::map<DomainKey, std::shared_ptr<const T>> map_;
};

}  // namespace pisces::math
