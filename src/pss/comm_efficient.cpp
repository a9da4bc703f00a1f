#include "pss/comm_efficient.h"

#include "common/task_pool.h"
#include "math/weight_cache.h"

namespace pisces::pss {

StripeLayout::StripeLayout(std::size_t contacts_, std::size_t need_)
    : contacts(contacts_), need(need_) {
  Require(need > 0 && need <= contacts,
          "StripeLayout: need must be in [1, contacts]");
}

std::vector<std::uint32_t> StripeLayout::SendersFor(std::size_t block) const {
  std::vector<std::uint32_t> out;
  out.reserve(need);
  const std::size_t start = block % contacts;
  for (std::size_t k = 0; k < need; ++k) {
    out.push_back(static_cast<std::uint32_t>((start + k) % contacts));
  }
  return out;
}

std::vector<std::size_t> StripeLayout::BlocksFor(std::size_t contact,
                                                 std::size_t blocks) const {
  std::vector<std::size_t> out;
  out.reserve(CountFor(contact, blocks));
  for (std::size_t b = 0; b < blocks; ++b) {
    if (Sends(contact, b)) out.push_back(b);
  }
  return out;
}

std::size_t StripeLayout::CountFor(std::size_t contact,
                                   std::size_t blocks) const {
  // Residues r with Sends(contact, r) each contribute the number of blocks
  // in that residue class; counting per class keeps this O(contacts).
  std::size_t count = 0;
  for (std::size_t r = 0; r < contacts && r < blocks; ++r) {
    if (Sends(contact, r)) count += (blocks - r - 1) / contacts + 1;
  }
  return count;
}

bool StaircaseFeasible(const Params& p, std::size_t contacts) {
  return contacts >= p.degree() + 1 && contacts <= p.n;
}

std::size_t ResolveContacts(const Params& p, std::uint32_t requested) {
  const std::size_t d = requested == 0 ? p.n : requested;
  return StaircaseFeasible(p, d) ? d : 0;
}

Bytes StripedReconstruct(const PackedShamir& shamir, const StripeLayout& layout,
                         std::span<const std::uint32_t> contacted,
                         std::span<const std::span<const std::uint8_t>> stripes,
                         std::size_t blocks, std::uint64_t* extra_cpu_ns) {
  const Params& p = shamir.params();
  const field::FpCtx& ctx = shamir.ctx();
  const std::size_t eb = ctx.elem_bytes();
  Require(contacted.size() == layout.contacts,
          "StripedReconstruct: contact set size mismatch");
  Require(stripes.size() == layout.contacts,
          "StripedReconstruct: row set size mismatch");
  Require(layout.need == p.degree() + 1,
          "StripedReconstruct: need must be degree+1");
  for (std::size_t j = 0; j < layout.contacts; ++j) {
    Require(stripes[j].size() == layout.CountFor(j, blocks) * eb,
            "StripedReconstruct: wrong stripe length");
  }

  // One memoized weight set per residue class: blocks b and b+contacts share
  // their sender subset, so at most `contacts` distinct Lagrange systems
  // exist regardless of the block count.
  const std::size_t classes = std::min(layout.contacts, blocks);
  std::vector<std::vector<std::uint32_t>> parties_of(classes);
  std::vector<std::shared_ptr<const math::WeightRows>> weights(classes);
  for (std::size_t r = 0; r < classes; ++r) {
    for (std::uint32_t j : layout.SendersFor(r)) {
      parties_of[r].push_back(contacted[j]);
    }
    weights[r] = shamir.ReconstructionWeights(parties_of[r]);
  }

  // Position of block b inside contact j's stripe. BlocksFor lists assigned
  // blocks in ascending BLOCK order (that is the order hosts serve them), so
  // b's rank is the number of assigned blocks strictly below it: residue r
  // contributes ceil((b - r) / contacts) such blocks. O(contacts) per lookup.
  auto stripe_index = [&](std::size_t j, std::size_t b) {
    std::size_t idx = 0;
    for (std::size_t r = 0; r < layout.contacts; ++r) {
      if (b > r && layout.Sends(j, r)) {
        idx += (b - r + layout.contacts - 1) / layout.contacts;
      }
    }
    return idx;
  };

  Bytes secrets(blocks * p.l * eb);
  // Blocks are independent and write disjoint slots: deterministic fan-out.
  GlobalPool().ParallelFor(
      0, blocks,
      [&](std::size_t b) {
        std::vector<const std::uint8_t*> ys;
        ys.reserve(layout.need);
        for (std::uint32_t j : layout.SendersFor(b)) {
          ys.push_back(stripes[j].data() + stripe_index(j, b) * eb);
        }
        std::vector<std::uint8_t*> out(p.l);
        for (std::size_t s = 0; s < p.l; ++s) {
          out[s] = secrets.data() + (b * p.l + s) * eb;
        }
        weights[b % layout.contacts]->EvalInto(ctx, ys, out);
      },
      extra_cpu_ns);
  return secrets;
}

std::size_t DefaultRecoveryBudget(const Params& p, std::size_t survivors) {
  return std::min(survivors, p.degree() + 3);
}

}  // namespace pisces::pss
