// Resharing to a new group (extension; the paper cites BELO's follow-up
// "Communication-optimal proactive secret sharing for dynamic groups" [8] as
// the dynamic-group variant and leaves adoption to future work).
//
// Moves a packed-shared block set from an old group (n, t, l, degree d) to a
// new group (n', t', l', degree d') without ever reconstructing:
//
//   g = sum_i c_i(x) * f(alpha_i) + sum_i m_i(x)
//
// where the c_i interpolate the old secrets out of d+1 old shares and each
// old party's masking polynomial m_i is uniformly random of degree <= d'
// subject to vanishing at every beta (the new secrets must equal the old
// ones). Each old party i sends the new party rho only its own contribution
//   c_i(alpha'_rho) * f(alpha_i) + m_i(alpha'_rho),
// which is marginally uniform (m_i is random at alpha'_rho), so neither the
// new party nor any t'-subset of the new group learns anything about old
// shares beyond the new sharing itself. This is the classic
// Desmedt-Jajodia-style redistribution specialized to packed sharing.
//
// The execution path is decomposed the way the live protocol runs it
// (docs/resharding.md): MakeResharePublic fixes the public transcript of one
// round (contributor set, coefficient matrix, vanishing polynomial), each
// contributor computes ReshareContribution from nothing but its OWN share
// vector, a verifier checks each contribution with VerifyReshareContribution
// (public data only), and AccumulateReshare sums accepted contributions into
// the new shares. ReferenceReshare composes exactly these pieces with a
// single rng, so the cluster-driven path and the oracle share one algebra
// (the differential suite in tests/reshare_test.cpp pins the secrets).
//
// Verification coverage: a contribution is accepted only if every block's
// column lies on a degree-<=d' polynomial over the new alphas (catches
// equivocation and random corruption), and -- for l >= 2 -- if its values at
// the betas are proportional to the contributor's public reconstruction
// weights (catches consistent low-degree shifts, the corrupt-deal analog of
// the refresh vanishing check). For l == 1 the share part of a contribution
// is one scalar degree of freedom with no public constraint, so a
// degree-respecting scalar shift is undetectable without polynomial
// commitments; deployments that arm reshare against active adversaries use
// l >= 2 (docs/resharding.md discusses the gap).
//
// Requirements: l' == l (the packed secret slots carry over one-to-one; use
// the codec to re-pack if the new group wants a different l), plus the usual
// validity of both parameter sets.
#pragma once

#include "math/poly.h"
#include "pss/packed_shamir.h"
#include "pss/tamper.h"

namespace pisces::pss {

// Public, per-round reshare transcript: everything a contributor or verifier
// needs besides the contributor's private share. Pure function of
// (from, to, contributors); holds no secret material.
struct ResharePublic {
  const PackedShamir* from = nullptr;
  const PackedShamir* to = nullptr;
  // Old-party ids acting as contributors, exactly d_old+1 of them.
  std::vector<std::uint32_t> contributors;
  // weights[j][i]: weight of contributor i's share in old secret s_j.
  std::vector<std::vector<field::FpElem>> weights;
  // coeff[rho][i] = sum_j lb[rho][j] * weights[j][i]: contributor i's public
  // coefficient toward new party rho (c_i evaluated at alpha'_rho).
  std::vector<std::vector<field::FpElem>> coeff;
  // Vanishing polynomial on the new betas (mask constraint).
  math::Poly vanish;
};

// Builds the public round transcript. `contributors` must name exactly
// d_old+1 distinct old parties; both schemes must share one field context
// and the same packing l, and d_new >= l must hold.
ResharePublic MakeResharePublic(const PackedShamir& from, const PackedShamir& to,
                                std::vector<std::uint32_t> contributors);

// Contributions travel as rows of element encodings (elem_bytes() little-
// endian bytes each, the wire and storage encoding): row rho holds new party
// rho's value for every block, block blk at blk * elem_bytes().

// One contributor's masked sub-sharing, computed from its own share bytes
// only (`own_shares`: its at-rest encoding, one element per block, below
// p): element blk of row rho is c_i(alpha'_rho) * own_shares[blk] +
// m_i(alpha'_rho) with a fresh mask polynomial per block. `ordinal` indexes
// the contributor inside pub.contributors. A non-null `tamper` is applied to
// the finished rows (the Byzantine dealer seam; holders are the new party
// ids).
std::vector<Bytes> ReshareContribution(const ResharePublic& pub,
                                       std::size_t ordinal,
                                       std::span<const std::uint8_t> own_shares,
                                       Rng& rng, DealTamper* tamper = nullptr);

// Public well-formedness check of one contribution: one row per new party,
// all of one length, every value below p, then per-block degree-<=d' column
// consistency over the new alphas, plus (l >= 2) beta-proportionality
// against the contributor's reconstruction weights. Uses public data only;
// malformed rows are rejected (false), never read out of bounds.
bool VerifyReshareContribution(const ResharePublic& pub, std::size_t ordinal,
                               const std::vector<Bytes>& contribution);

// acc[rho] += contribution[rho], element by element, in place. acc may be
// empty (it starts as a copy of the contribution).
void AccumulateReshare(const field::FpCtx& ctx, std::vector<Bytes>& acc,
                       const std::vector<Bytes>& contribution);

// Redistributes shares_old[i][blk] (old group, `from` scheme) into shares for
// the new group (`to` scheme): returns shares_new[rho][blk]. Composes the
// decomposed pieces above with contributors = the first d_old+1 old parties.
std::vector<std::vector<field::FpElem>> ReferenceReshare(
    const PackedShamir& from, const PackedShamir& to,
    const std::vector<std::vector<field::FpElem>>& shares_old, Rng& rng);

}  // namespace pisces::pss
