// Quasi-linear polynomial engine: subproduct-tree multipoint evaluation and
// interpolation over F_p (docs/polynomial_engine.md).
//
// The generic algebra in math/poly.h is O(m^2) field multiplications per
// block for interpolation, Lagrange weights, and dense evaluation -- ample at
// the paper's degrees (d <= ~40) but the dominant window cost as n grows.
// This engine supplies the classical divide-and-conquer replacements
// (von zur Gathen & Gerhard, ch. 9-10):
//
//   * MulPolys          -- Karatsuba product, O(m^1.585), with a lazy-dot
//                          schoolbook base case (one Montgomery reduction per
//                          output coefficient via DotAcc);
//   * SubproductTree    -- binary tree of monic node polynomials over a point
//                          set, each node carrying the Newton inverse power
//                          series rev(node)^{-1} mod x^sibling_deg that turns
//                          every remainder-tree division into two truncated
//                          products;
//   * EvalAll           -- multipoint evaluation by the remainder tree,
//                          O(M(m) log m);
//   * Interpolate       -- barycentric interpolation: cached 1/P'(x_i)
//                          weights (one batch inversion at tree build) plus
//                          the linear-combination up-tree, O(M(m) log m);
//   * CachedSubproductTree -- process-wide per-point-set domain memo on
//                          math::DomainCache (immutable shared_ptr values,
//                          modulus + coordinate keying, wholesale clear at
//                          the size cap), so every (n, t)
//                          share domain -- holder alphas, secret betas,
//                          responder subsets -- pays tree construction once.
//
// Dispatch policy: the interpolation entry points in math/poly.h consult
// PolyEngineCrossover() and keep the generic path below it, so small-n
// behavior (and its cost profile) is byte-for-byte the pre-engine code.
// Above the crossover the engine computes the same exact field elements --
// arithmetic in F_p is exact and FpElem's Montgomery form is canonical -- so
// shares, transcripts, and wire bytes are bit-identical to the generic path
// at EVERY size; the differential suite in tests/poly_engine_test.cpp
// enforces this against the Lagrange/Vandermonde oracle.
//
// Determinism: everything here is pure serial compute over its inputs; no
// randomness, no timing dependence, no pool fan-out inside the engine. Tree
// construction racing between pool workers is resolved by the cache
// (identical values, first insert wins), so results
// never depend on the task-pool size.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "field/fp.h"

namespace pisces::math {

using field::FpCtx;
using field::FpElem;

// Point-count threshold above which the subproduct-tree paths replace the
// generic O(m^2) algebra for interpolation, Lagrange weights, and vanishing
// polynomials. Measured on the release build (scripts/bench_micro.sh records
// the trajectory in BENCH_field.json): the up-tree interpolation beats the
// Lagrange oracle from a few dozen points (~3.6x at n=16 already), so the
// threshold sits just above the paper-scale sizes to keep small-n runs on the
// legacy path byte-for-byte.
//
// Multipoint EVALUATION never dispatches to the tree: measured on this
// substrate the remainder tree loses to per-point Horner / cached Vandermonde
// dot products through n = 1024 -- FpElem is a fixed kMaxLimbs-wide array, so
// Karatsuba's extra adds/copies move 256 bytes per coefficient regardless of
// field width while a lazy dot does one wide reduction per output. The eval
// sections of BENCH_field.json record this (speedup < 1 at every benched
// size); SubproductTree::EvalAll stays available for that measurement.
constexpr std::size_t PolyEngineCrossover() { return 17; }

// Exact polynomial product, same value as the schoolbook convolution of
// math/poly.h (F_p is exact; Montgomery form is canonical). Karatsuba above
// a fixed base-case size, lazy-dot schoolbook below it. Returns the empty
// vector when either input is empty.
std::vector<FpElem> MulPolys(const FpCtx& ctx, std::span<const FpElem> a,
                             std::span<const FpElem> b);

// f(x) at every point of xs, by Horner per point.
std::vector<FpElem> EvalMany(const FpCtx& ctx, std::span<const FpElem> f,
                             std::span<const FpElem> xs);

// Subproduct tree over a fixed point set: the precomputed domain object for
// multipoint evaluation and interpolation. Immutable after construction;
// safe to share across threads (see docs/parallelism.md).
class SubproductTree {
 public:
  // Points must be distinct (detected at construction via P'(x_i) == 0).
  SubproductTree(const FpCtx& ctx, std::vector<FpElem> xs);

  std::size_t size() const { return xs_.size(); }
  std::span<const FpElem> points() const { return xs_; }
  const FpCtx& ctx() const { return ctx_; }

  // Monic vanishing polynomial prod_i (x - x_i): size() + 1 coefficients.
  const std::vector<FpElem>& root() const;

  // Barycentric weights 1/P'(x_i), aligned with points(). One batch
  // inversion at construction; every per-block interpolation reuses them.
  std::span<const FpElem> inv_derivs() const { return inv_derivs_; }

  // f evaluated at every point, in point order. Any f size (a dividend
  // larger than the root is reduced by schoolbook monic division first).
  std::vector<FpElem> EvalAll(std::span<const FpElem> f) const;

  // Coefficients (size()) of the unique degree < size() interpolant through
  // (points()[i], ys[i]). ys.size() must equal size().
  std::vector<FpElem> Interpolate(std::span<const FpElem> ys) const;

 private:
  struct Node {
    std::size_t begin = 0;   // first point index covered by this node
    std::size_t count = 0;   // number of points covered
    std::size_t left = 0;    // child indices into nodes_ (leaf: left == npos)
    std::size_t right = 0;
    std::vector<FpElem> poly;     // monic, count + 1 coefficients
    std::vector<FpElem> inv_rev;  // rev(poly)^{-1} mod x^{sibling_count}
  };
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::size_t Build(std::size_t begin, std::size_t count);
  // Remainder of `a` (size <= node.count + sibling precision) modulo the
  // node polynomial via the precomputed inverse series: two truncated
  // products, no field inversions.
  std::vector<FpElem> RemByNode(const Node& node,
                                std::span<const FpElem> a) const;
  void DownEval(std::size_t node_idx, std::vector<FpElem> rem,
                std::vector<FpElem>& out) const;
  std::vector<FpElem> UpCombine(std::size_t node_idx,
                                std::span<const FpElem> scaled) const;

  // An own copy: a cached tree is shared by every context over its prime
  // and must not dangle when the context that built it goes away.
  FpCtx ctx_;
  std::vector<FpElem> xs_;
  std::vector<Node> nodes_;  // post-order; root is nodes_.back()
  std::size_t root_ = 0;
  std::vector<FpElem> inv_derivs_;
};

// Process-wide subproduct-tree domain cache: a math::DomainCache
// (math/domain_cache.h, modulus + coordinate keying, wholesale clear past the
// cap). Values are immutable; lookups from pool workers are safe.
std::shared_ptr<const SubproductTree> CachedSubproductTree(
    const FpCtx& ctx, std::span<const FpElem> xs);

// Test hooks, mirroring the weight-cache ones.
void ClearPolyDomainCache();
std::size_t PolyDomainCacheSize();

// Cumulative engine counters (process-wide relaxed atomics; observability
// only). domain_hits/misses track CachedSubproductTree; tree_evals and
// tree_interps count EvalAll/Interpolate calls that actually ran on a tree.
struct PolyEngineStats {
  std::uint64_t domain_hits = 0;
  std::uint64_t domain_misses = 0;
  std::uint64_t tree_evals = 0;
  std::uint64_t tree_interps = 0;
};
PolyEngineStats GetPolyEngineStats();
void ResetPolyEngineStats();

}  // namespace pisces::math
