#include "pss/reshare.h"

#include <set>

namespace pisces::pss {

using field::FpElem;

ResharePublic MakeResharePublic(const PackedShamir& from, const PackedShamir& to,
                                std::vector<std::uint32_t> contributors) {
  const field::FpCtx& ctx = from.ctx();
  Require(&ctx == &to.ctx(), "MakeResharePublic: schemes must share a field");
  Require(from.params().l == to.params().l,
          "MakeResharePublic: packing must match (re-pack via the codec "
          "otherwise)");
  const std::size_t l = from.params().l;
  const std::size_t d_old = from.params().degree();
  const std::size_t d_new = to.params().degree();
  const std::size_t n_new = to.params().n;
  Require(d_new >= l, "MakeResharePublic: new degree below packing");
  Require(contributors.size() == d_old + 1,
          "MakeResharePublic: need exactly d_old+1 contributors");
  std::set<std::uint32_t> distinct(contributors.begin(), contributors.end());
  Require(distinct.size() == contributors.size(),
          "MakeResharePublic: duplicate contributor");
  for (std::uint32_t i : contributors) {
    Require(i < from.params().n, "MakeResharePublic: contributor out of range");
  }

  ResharePublic pub;
  pub.from = &from;
  pub.to = &to;
  pub.contributors = std::move(contributors);

  // weights[j][i]: weight of contributor i's share in the old secret s_j.
  auto w = from.ReconstructionWeights(pub.contributors);
  for (std::size_t j = 0; j < l; ++j) {
    pub.weights.push_back(w->FieldRow(ctx, j));
  }

  // lb[rho][j]: Lagrange basis over the betas evaluated at the new party
  // points -- the degree-(l-1) interpolant of the secrets at alpha'_rho.
  std::vector<FpElem> new_alphas(to.points().alphas().begin(),
                                 to.points().alphas().end());
  auto lb = math::LagrangeCoeffsMulti(ctx, to.points().betas(), new_alphas);

  // coeff[rho][i] = sum_j lb[rho][j] * w[j][i]. Block independent.
  pub.coeff.assign(n_new, std::vector<FpElem>(d_old + 1, ctx.Zero()));
  field::DotAcc acc(ctx);
  for (std::size_t rho = 0; rho < n_new; ++rho) {
    for (std::size_t i = 0; i <= d_old; ++i) {
      acc.Reset();
      for (std::size_t j = 0; j < l; ++j) {
        acc.MulAdd(lb[rho][j], pub.weights[j][i]);
      }
      pub.coeff[rho][i] = acc.Reduce();
    }
  }

  // Masking constraint: every mask polynomial vanishes at every new beta, so
  // contributions rerandomize the sharing without moving the secrets.
  pub.vanish = math::Poly::Vanishing(ctx, to.points().betas());
  return pub;
}

std::vector<Bytes> ReshareContribution(const ResharePublic& pub,
                                       std::size_t ordinal,
                                       std::span<const std::uint8_t> own_shares,
                                       Rng& rng, DealTamper* tamper) {
  const field::FpCtx& ctx = pub.from->ctx();
  const std::size_t l = pub.from->params().l;
  const std::size_t d_new = pub.to->params().degree();
  const std::size_t n_new = pub.to->params().n;
  const std::size_t eb = ctx.elem_bytes();
  Require(ordinal < pub.contributors.size(),
          "ReshareContribution: ordinal out of range");
  Require(own_shares.size() % eb == 0, "ReshareContribution: ragged shares");
  const std::size_t blocks = own_shares.size() / eb;

  std::vector<Bytes> out(n_new, Bytes(own_shares.size()));
  std::vector<field::FpMont> coeff(n_new);
  for (std::size_t rho = 0; rho < n_new; ++rho) {
    coeff[rho] = ctx.ToMont(pub.coeff[rho][ordinal]);
  }
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const FpElem own = field::ElemAt(ctx, own_shares, blk);
    // Fresh mask per block: random degree-<=d_new polynomial vanishing at
    // every beta, so each wire value is marginally uniform.
    math::Poly u = math::Poly::Random(ctx, rng, d_new - l);
    math::Poly m = math::Poly::Mul(ctx, pub.vanish, u);
    for (std::size_t rho = 0; rho < n_new; ++rho) {
      // v_i(alpha'_rho) = c_i(alpha'_rho) * f(alpha_i) + m_i(alpha'_rho).
      ctx.ToBytes(ctx.Add(ctx.Mul(coeff[rho], own),
                          m.Eval(ctx, pub.to->points().alpha(rho))),
                  out[rho].data() + blk * eb);
    }
  }

  if (tamper != nullptr) {
    // The Byzantine dealer seam: holders are the new party ids, and a
    // reshare sub-sharing is a (non-recovery) dealing for tamper purposes.
    std::vector<std::uint32_t> holders(n_new);
    for (std::uint32_t rho = 0; rho < n_new; ++rho) holders[rho] = rho;
    tamper->TamperDeal(holders, /*recovery=*/false, out);
  }
  return out;
}

bool VerifyReshareContribution(const ResharePublic& pub, std::size_t ordinal,
                               const std::vector<Bytes>& contribution) {
  const field::FpCtx& ctx = pub.from->ctx();
  const std::size_t l = pub.from->params().l;
  const std::size_t d_new = pub.to->params().degree();
  const std::size_t n_new = pub.to->params().n;
  const std::size_t eb = ctx.elem_bytes();
  Require(ordinal < pub.contributors.size(),
          "VerifyReshareContribution: ordinal out of range");
  if (contribution.size() != n_new) return false;
  const std::size_t row_bytes = contribution.front().size();
  try {
    for (const Bytes& row : contribution) {
      if (row.size() != row_bytes) return false;
      field::ValidateElems(ctx, row);  // ragged or >= p: throws
    }
  } catch (const Error&) {
    return false;
  }
  const std::size_t blocks = row_bytes / eb;

  std::vector<FpElem> xs(pub.to->points().alphas().begin(),
                         pub.to->points().alphas().end());
  math::PointChecker checker(ctx, xs, d_new);
  const math::WeightRows at_betas =
      checker.WeightsAt(pub.to->points().betas());
  std::vector<field::FpMont> weight(l);
  for (std::size_t j = 0; j < l; ++j) {
    weight[j] = ctx.ToMont(pub.weights[j][ordinal]);
  }
  std::vector<const std::uint8_t*> col(n_new);
  Bytes at_beta(l * eb);
  std::vector<std::uint8_t*> at_beta_out(l);
  for (std::size_t j = 0; j < l; ++j) at_beta_out[j] = at_beta.data() + j * eb;
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    for (std::size_t rho = 0; rho < n_new; ++rho) {
      col[rho] = contribution[rho].data() + blk * eb;
    }
    // Degree check (vacuous when n' == d'+1; the parameter constraints give
    // n' >= d'+2 whenever t' >= 1).
    if (!checker.Consistent(col)) return false;
    if (l < 2) continue;
    // Beta proportionality: v_i(beta_j) = w[j][i] * f(alpha_i), so the beta
    // values must be proportional to the contributor's weight column with
    // one consistent (secret) factor. Cross-multiplying removes the factor:
    //   v(beta_j) * w[k][i] == v(beta_k) * w[j][i]  for all j, k.
    at_betas.EvalInto(ctx, col, at_beta_out);
    const FpElem first = field::ElemAt(ctx, at_beta, 0);
    for (std::size_t j = 1; j < l; ++j) {
      const FpElem lhs = ctx.Mul(weight[j], first);
      const FpElem rhs = ctx.Mul(weight[0], field::ElemAt(ctx, at_beta, j));
      if (!ctx.Eq(lhs, rhs)) return false;
    }
  }
  return true;
}

void AccumulateReshare(const field::FpCtx& ctx, std::vector<Bytes>& acc,
                       const std::vector<Bytes>& contribution) {
  if (acc.empty()) {
    acc = contribution;
    return;
  }
  Require(acc.size() == contribution.size(),
          "AccumulateReshare: party-count mismatch");
  const std::size_t eb = ctx.elem_bytes();
  for (std::size_t rho = 0; rho < acc.size(); ++rho) {
    Require(acc[rho].size() == contribution[rho].size(),
            "AccumulateReshare: block-count mismatch");
    for (std::size_t blk = 0; blk < acc[rho].size() / eb; ++blk) {
      ctx.ToBytes(ctx.Add(field::ElemAt(ctx, acc[rho], blk),
                          field::ElemAt(ctx, contribution[rho], blk)),
                  acc[rho].data() + blk * eb);
    }
  }
}

std::vector<std::vector<FpElem>> ReferenceReshare(
    const PackedShamir& from, const PackedShamir& to,
    const std::vector<std::vector<FpElem>>& shares_old, Rng& rng) {
  const field::FpCtx& ctx = from.ctx();
  const std::size_t d_old = from.params().degree();
  Require(shares_old.size() == from.params().n,
          "ReferenceReshare: wrong party count");

  // Contributors: the first d_old+1 old parties (HBC, all responsive).
  std::vector<std::uint32_t> contributors(d_old + 1);
  for (std::uint32_t i = 0; i <= d_old; ++i) contributors[i] = i;
  ResharePublic pub = MakeResharePublic(from, to, std::move(contributors));

  std::vector<Bytes> shares_new;
  for (std::size_t i = 0; i < pub.contributors.size(); ++i) {
    const Bytes own =
        field::SerializeElems(ctx, shares_old[pub.contributors[i]]);
    AccumulateReshare(ctx, shares_new, ReshareContribution(pub, i, own, rng));
  }
  std::vector<std::vector<FpElem>> out;
  for (const Bytes& row : shares_new) {
    out.push_back(field::DeserializeElems(ctx, row));
  }
  return out;
}

}  // namespace pisces::pss
