#include "math/matrix.h"

#include "common/error.h"
#include "math/poly.h"

namespace pisces::math {

using field::FpMont;

Matrix Matrix::Identity(const FpCtx& ctx, std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.At(i, i) = ctx.One();
  return m;
}

Matrix Matrix::Mul(const FpCtx& ctx, const Matrix& other) const {
  Require(cols_ == other.rows_, "Matrix::Mul: shape mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      if (ctx.IsZero(At(i, k))) continue;
      const FpMont aik = ctx.ToMont(At(i, k));
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out.At(i, j) = ctx.Add(out.At(i, j), ctx.Mul(aik, other.At(k, j)));
      }
    }
  }
  return out;
}

std::vector<FpElem> Matrix::MulVec(const FpCtx& ctx,
                                   std::span<const FpElem> v) const {
  Require(v.size() == cols_, "Matrix::MulVec: shape mismatch");
  std::vector<FpElem> out(rows_, ctx.Zero());
  for (std::size_t i = 0; i < rows_; ++i) {
    out[i] = ctx.Dot(Row(i), v);  // one reduction per output row
  }
  return out;
}

std::optional<Matrix> Matrix::Inverse(const FpCtx& ctx) const {
  Require(rows_ == cols_, "Matrix::Inverse: not square");
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix inv = Identity(ctx, n);
  for (std::size_t col = 0; col < n; ++col) {
    // Find pivot.
    std::size_t pivot = col;
    while (pivot < n && ctx.IsZero(a.At(pivot, col))) ++pivot;
    if (pivot == n) return std::nullopt;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a.At(pivot, j), a.At(col, j));
        std::swap(inv.At(pivot, j), inv.At(col, j));
      }
    }
    const FpMont piv_inv = ctx.ToMont(ctx.Inv(a.At(col, col)));
    for (std::size_t j = 0; j < n; ++j) {
      a.At(col, j) = ctx.Mul(piv_inv, a.At(col, j));
      inv.At(col, j) = ctx.Mul(piv_inv, inv.At(col, j));
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col || ctx.IsZero(a.At(r, col))) continue;
      const FpMont factor = ctx.ToMont(a.At(r, col));
      for (std::size_t j = 0; j < n; ++j) {
        a.At(r, j) = ctx.Sub(a.At(r, j), ctx.Mul(factor, a.At(col, j)));
        inv.At(r, j) = ctx.Sub(inv.At(r, j), ctx.Mul(factor, inv.At(col, j)));
      }
    }
  }
  return inv;
}

Matrix Matrix::Select(std::span<const std::size_t> row_idx,
                      std::span<const std::size_t> col_idx) const {
  Matrix out(row_idx.size(), col_idx.size());
  for (std::size_t i = 0; i < row_idx.size(); ++i) {
    for (std::size_t j = 0; j < col_idx.size(); ++j) {
      Require(row_idx[i] < rows_ && col_idx[j] < cols_,
              "Matrix::Select: index out of range");
      out.At(i, j) = At(row_idx[i], col_idx[j]);
    }
  }
  return out;
}

bool Matrix::Eq(const FpCtx& ctx, const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (!ctx.Eq(data_[i], other.data_[i])) return false;
  }
  return true;
}

std::optional<std::vector<FpElem>> SolveLinearSystem(const FpCtx& ctx,
                                                     Matrix a,
                                                     std::vector<FpElem> b) {
  Require(a.rows() == b.size(), "SolveLinearSystem: shape mismatch");
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  // Forward elimination with row pivoting; pivot_row[c] is the row whose
  // leading entry sits in column c.
  std::vector<std::size_t> pivot_row(cols, static_cast<std::size_t>(-1));
  std::size_t next_row = 0;
  for (std::size_t c = 0; c < cols && next_row < rows; ++c) {
    std::size_t pivot = next_row;
    while (pivot < rows && ctx.IsZero(a.At(pivot, c))) ++pivot;
    if (pivot == rows) continue;  // free column
    if (pivot != next_row) {
      for (std::size_t j = 0; j < cols; ++j) {
        std::swap(a.At(pivot, j), a.At(next_row, j));
      }
      std::swap(b[pivot], b[next_row]);
    }
    const FpMont inv = ctx.ToMont(ctx.Inv(a.At(next_row, c)));
    for (std::size_t j = c; j < cols; ++j) {
      a.At(next_row, j) = ctx.Mul(inv, a.At(next_row, j));
    }
    b[next_row] = ctx.Mul(inv, b[next_row]);
    for (std::size_t r = 0; r < rows; ++r) {
      if (r == next_row || ctx.IsZero(a.At(r, c))) continue;
      const FpMont factor = ctx.ToMont(a.At(r, c));
      for (std::size_t j = c; j < cols; ++j) {
        a.At(r, j) = ctx.Sub(a.At(r, j), ctx.Mul(factor, a.At(next_row, j)));
      }
      b[r] = ctx.Sub(b[r], ctx.Mul(factor, b[next_row]));
    }
    pivot_row[c] = next_row;
    ++next_row;
  }
  // Inconsistency: an all-zero row with nonzero rhs.
  for (std::size_t r = next_row; r < rows; ++r) {
    if (!ctx.IsZero(b[r])) return std::nullopt;
  }
  std::vector<FpElem> x(cols, ctx.Zero());
  for (std::size_t c = 0; c < cols; ++c) {
    if (pivot_row[c] != static_cast<std::size_t>(-1)) {
      x[c] = b[pivot_row[c]];
    }
  }
  return x;
}

Matrix Vandermonde(const FpCtx& ctx, std::span<const FpElem> xs,
                   std::size_t cols) {
  Matrix m(xs.size(), cols);
  for (std::size_t r = 0; r < xs.size(); ++r) {
    const FpMont x = ctx.ToMont(xs[r]);
    FpElem acc = ctx.One();
    for (std::size_t c = 0; c < cols; ++c) {
      m.At(r, c) = acc;
      acc = ctx.Mul(x, acc);
    }
  }
  return m;
}

Matrix HyperInvertible(const FpCtx& ctx, std::size_t n_out, std::size_t n_in) {
  Require(n_in >= 1 && n_out >= 1, "HyperInvertible: empty shape");
  std::vector<FpElem> in_nodes(n_in);
  for (std::size_t i = 0; i < n_in; ++i) in_nodes[i] = ctx.FromUint64(i + 1);
  std::vector<FpElem> out_nodes(n_out);
  for (std::size_t a = 0; a < n_out; ++a) {
    out_nodes[a] = ctx.FromUint64(n_in + 1 + a);
  }
  auto rows = LagrangeCoeffsMulti(ctx, in_nodes, out_nodes);
  Matrix m(n_out, n_in);
  for (std::size_t a = 0; a < n_out; ++a) {
    for (std::size_t i = 0; i < n_in; ++i) m.At(a, i) = rows[a][i];
  }
  return m;
}

}  // namespace pisces::math
