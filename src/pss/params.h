// Protocol parameters and evaluation-point layout for packed proactive
// secret sharing (paper SectionIII-B "Setting the Parameters" and SectionVI-A).
//
//   n  parties (share storage hosts)
//   t  tolerated simultaneous corruptions
//   l  packing parameter (secrets per polynomial)
//   d  polynomial degree, d = t + l
//   r  hosts rebooted per recovery batch
//   b  worker threads per host ("process pool" in the paper's Fig 5)
//   g  field size in bits
//
// Constraints: 3t + l < n (privacy + robustness) and r + l < n - 3t
// (paper SectionVI-D). The paper's natural choice is t = n/4, l = n/4 - 1.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "field/fp.h"

namespace pisces::pss {

struct Params {
  std::size_t n = 0;
  std::size_t t = 0;
  std::size_t l = 0;
  std::size_t r = 1;
  std::size_t b = 1;
  std::size_t field_bits = 1024;

  std::size_t degree() const { return t + l; }
  // Rows of the hyperinvertible transform opened for verification.
  std::size_t check_rows() const { return 2 * t; }
  // Fewest participants a refresh or recovery round can run on: more than
  // the check rows, and at least the d+1 points that fix a share polynomial.
  std::size_t quorum() const {
    return std::max(check_rows() + 1, degree() + 1);
  }
  // Usable verified sharings per transform over `dealers` participants.
  std::size_t UsableRows(std::size_t dealers) const {
    return dealers - check_rows();
  }

  // Throws InvalidArgument when any constraint is violated.
  void Validate() const;
  bool IsValid() const;

  // The paper's natural parameter choice for a given n: t = n/4, l = n/4 - 1
  // (adjusted to stay valid for small n).
  static Params Natural(std::size_t n, std::size_t field_bits = 1024);
};

// Public evaluation points. Secrets live at beta_j = j (j = 1..l); party i
// holds evaluations at alpha_i = l + 1 + i (i = 0..n-1). Disjoint and
// nonzero by construction.
class EvalPoints {
 public:
  EvalPoints(const field::FpCtx& ctx, std::size_t n, std::size_t l);

  const field::FpElem& alpha(std::size_t party) const { return alphas_.at(party); }
  const field::FpElem& beta(std::size_t j) const { return betas_.at(j); }
  // The integers behind alpha(party) and beta(j), for kernels that multiply
  // by a node as a plain integer (FpCtx::MulU64Add).
  std::uint64_t alpha_node(std::size_t party) const {
    Require(party < alphas_.size(), "EvalPoints: party out of range");
    return betas_.size() + 1 + party;
  }
  std::uint64_t beta_node(std::size_t j) const {
    Require(j < betas_.size(), "EvalPoints: beta out of range");
    return j + 1;
  }
  std::span<const field::FpElem> alphas() const { return alphas_; }
  std::span<const field::FpElem> betas() const { return betas_; }

  // alphas of an arbitrary subset of parties.
  std::vector<field::FpElem> AlphasOf(std::span<const std::uint32_t> parties) const;

 private:
  std::vector<field::FpElem> alphas_;
  std::vector<field::FpElem> betas_;
};

}  // namespace pisces::pss
