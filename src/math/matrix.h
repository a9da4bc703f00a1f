// Dense matrices over F_p, Vandermonde matrices, and the hyperinvertible
// matrices (Damgard-Ishai-Kroigaard, CRYPTO'08) used by the VSS layer.
//
// A matrix M is hyperinvertible when every square submatrix is invertible.
// The VSS/refresh pipeline applies an n x n hyperinvertible M to a vector of
// n dealings: opening any 2t outputs proves well-formedness of all inputs,
// and the remaining n-2t outputs are uniformly random even conditioned on t
// corrupt dealings -- this is what gives the paper's scheme its O(1) amortized
// complexity per secret.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "field/fp.h"

namespace pisces::math {

using field::FpCtx;
using field::FpElem;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  FpElem& At(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const FpElem& At(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  // Row r as a contiguous span (storage is row-major); feeds FpCtx::Dot.
  std::span<const FpElem> Row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  static Matrix Identity(const FpCtx& ctx, std::size_t n);

  Matrix Mul(const FpCtx& ctx, const Matrix& other) const;
  std::vector<FpElem> MulVec(const FpCtx& ctx,
                             std::span<const FpElem> v) const;

  // Gauss-Jordan inverse; nullopt when singular.
  std::optional<Matrix> Inverse(const FpCtx& ctx) const;

  // Submatrix selecting the given rows and columns (used by the
  // hyperinvertibility property test).
  Matrix Select(std::span<const std::size_t> row_idx,
                std::span<const std::size_t> col_idx) const;

  bool Eq(const FpCtx& ctx, const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<FpElem> data_;
};

// V[r][c] = xs[r]^c, cols columns.
Matrix Vandermonde(const FpCtx& ctx, std::span<const FpElem> xs,
                   std::size_t cols);

// The DIK hyperinvertible matrix mapping values at input nodes 1..n_in to
// values at output nodes n_in+1..n_in+n_out of the unique degree n_in-1
// interpolant: M[a][i] = L_i(n_in + 1 + a) over nodes {1..n_in}. The
// definition of the VSS transform and its test oracle; pss::VssBatch
// applies it by finite differences without forming it.
Matrix HyperInvertible(const FpCtx& ctx, std::size_t n_out, std::size_t n_in);

// Any solution of A x = b (free variables set to zero), or nullopt when the
// system is inconsistent. A may be rectangular (rows x cols). Used by the
// Berlekamp-Welch decoder.
std::optional<std::vector<FpElem>> SolveLinearSystem(const FpCtx& ctx,
                                                     Matrix a,
                                                     std::vector<FpElem> b);

}  // namespace pisces::math
