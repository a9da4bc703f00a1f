#include "pisces/client.h"

#include "common/log.h"
#include "common/task_pool.h"
#include "obs/registry.h"

namespace pisces {

using field::FpElem;
using net::Message;
using net::MsgType;

namespace {

// Detection-side byz.* counters for client reconstruction: the fast path
// failing its integrity check and the number of share values Berlekamp-Welch
// decoding had to override. Counters are atomic, so per-block bumps from the
// task pool are safe (totals are pool-size invariant; only interleaving is
// not).
obs::Counter& RobustFallbacks() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.client_robust_fallbacks",
      "downloads that fell back to robust (Berlekamp-Welch) reconstruction");
  return c;
}
obs::Counter& ClientSharesCorrected() {
  static obs::Counter& c = obs::RegisterCounter(
      "byz.client_shares_corrected",
      "share values overridden by robust decoding during downloads");
  return c;
}
obs::Counter& StaircaseInfeasible() {
  static obs::Counter& c = obs::RegisterCounter(
      "comm.staircase_infeasible",
      "staircase reads degraded to full-share because the contact budget "
      "cannot cover degree+1 senders per block");
  return c;
}

// The meta most responses carry (all honest hosts agree; a corrupted meta
// from a minority cannot win). meta_of maps a response to its meta.
template <typename Responses, typename MetaOf>
FileMeta MajorityMeta(const Responses& responses, MetaOf meta_of) {
  std::map<Bytes, std::size_t> meta_votes;
  for (const auto& resp : responses) {
    meta_votes[meta_of(resp).Serialize()] += 1;
  }
  const Bytes* best = nullptr;
  std::size_t best_votes = 0;
  for (const auto& [blob, votes] : meta_votes) {
    if (votes > best_votes) {
      best = &blob;
      best_votes = votes;
    }
  }
  return FileMeta::Deserialize(*best);
}

}  // namespace

Client::Client(ClientConfig cfg, net::Transport& transport,
               const crypto::SchnorrGroup& group, Bytes ca_pk, Bytes sk,
               const crypto::CertDirectory& directory,
               const crypto::CertSnapshot& snap)
    : cfg_(std::move(cfg)),
      transport_(transport),
      keyring_(group, std::move(ca_pk), cfg_.id, cfg_.encrypt_links),
      rng_(cfg_.rng_seed ^ 0xC11E47ULL),
      shamir_(std::make_shared<pss::PackedShamir>(cfg_.ctx, cfg_.params)),
      codec_(*cfg_.ctx, cfg_.params.l) {
  keyring_.Boot(std::move(sk), directory, snap);
}

FileMeta Client::BeginUpload(std::uint64_t file_id,
                             std::span<const std::uint8_t> data) {
  const std::size_t n = cfg_.params.n;
  FileMeta meta;
  std::vector<Bytes> payloads(n);
  {
    ComputeSection section(metrics_, obs::SpanKind::kClientSet, file_id,
                           data.size());
    Bytes secrets;
    std::tie(meta, secrets) = codec_.EncodeWire(file_id, data);
    // Host i's payload is meta blob || its shares; ShareBlocks writes the
    // shares into place. Per-block sharing fans out over the task pool; the
    // rng is consumed serially inside ShareBlocks, so the shares match a
    // serial run.
    ByteWriter w;
    w.Blob(meta.Serialize());
    const Bytes& head = w.bytes();
    const std::size_t share_bytes = meta.num_blocks * cfg_.ctx->elem_bytes();
    std::vector<std::uint8_t*> shares(n);
    for (std::size_t i = 0; i < n; ++i) {
      payloads[i].resize(head.size() + share_bytes);
      std::copy(head.begin(), head.end(), payloads[i].begin());
      shares[i] = payloads[i].data() + head.size();
    }
    shamir_->ShareBlocks(secrets, rng_, shares, section.extra());
  }

  PendingUpload& up = uploads_[file_id];
  up.acked.clear();
  up.payloads = std::move(payloads);
  for (std::size_t i = 0; i < n; ++i) {
    Message m;
    m.from = cfg_.id;
    m.to = static_cast<std::uint32_t>(i);
    m.type = MsgType::kSetShares;
    m.file_id = file_id;
    m.payload = keyring_.Seal(static_cast<std::uint32_t>(i), up.payloads[i]);
    metrics_.msgs_sent += 1;
    metrics_.bytes_sent += m.WireSize();
    transport_.Send(std::move(m));
  }
  return meta;
}

std::size_t Client::UploadAcks(std::uint64_t file_id) const {
  auto it = uploads_.find(file_id);
  return it == uploads_.end() ? 0 : it->second.acked.size();
}

std::size_t Client::RetryUpload(std::uint64_t file_id) {
  auto it = uploads_.find(file_id);
  if (it == uploads_.end() || it->second.payloads.empty()) return 0;
  std::size_t resent = 0;
  for (std::size_t i = 0; i < it->second.payloads.size(); ++i) {
    const std::uint32_t host = static_cast<std::uint32_t>(i);
    if (it->second.acked.count(host) != 0) continue;
    // Storing shares is idempotent: a host whose ACK (rather than the upload
    // itself) was lost simply overwrites with identical values.
    Message m;
    m.from = cfg_.id;
    m.to = host;
    m.type = MsgType::kSetShares;
    m.file_id = file_id;
    m.payload = keyring_.Seal(host, it->second.payloads[i]);
    metrics_.msgs_sent += 1;
    metrics_.bytes_sent += m.WireSize();
    transport_.Send(std::move(m));
    ++resent;
  }
  if (resent > 0) ++retries_;
  return resent;
}

void Client::FinishUpload(std::uint64_t file_id) {
  auto it = uploads_.find(file_id);
  if (it != uploads_.end()) {
    it->second.payloads.clear();
    it->second.payloads.shrink_to_fit();
  }
}

void Client::SendReconstructRequest(std::uint64_t file_id, std::uint32_t host,
                                    const PendingDownload& dl) {
  Message m;
  m.from = cfg_.id;
  m.to = host;
  m.type = MsgType::kReconstructRequest;
  m.file_id = file_id;
  if (!dl.contacted.empty()) {
    // Staircase read descriptor: the host only needs its own window of the
    // rotation to compute its stripe. Classic requests keep the empty
    // payload, byte-identical to the pre-ReadSpec protocol.
    std::uint32_t index = 0;
    for (; index < dl.contacted.size(); ++index) {
      if (dl.contacted[index] == host) break;
    }
    Invariant(index < dl.contacted.size(),
              "Client: staircase request to a host outside the contact set");
    ByteWriter w;
    w.U32(index);
    w.U32(static_cast<std::uint32_t>(dl.contacted.size()));
    w.U32(static_cast<std::uint32_t>(cfg_.params.degree() + 1));
    m.payload = w.Take();
  }
  metrics_.msgs_sent += 1;
  metrics_.bytes_sent += m.WireSize();
  transport_.Send(std::move(m));
}

void Client::BeginDownload(const ReadSpec& spec) {
  PendingDownload dl;
  dl.policy = spec.policy;
  if (spec.policy.path == ReadPath::kStaircase) {
    const std::size_t d =
        pss::ResolveContacts(cfg_.params, spec.policy.contacts);
    if (d == 0) {
      if (spec.policy.fallback == ReadFallback::kFail) {
        throw InvalidArgument(
            "Client::BeginDownload: staircase contact budget infeasible");
      }
      StaircaseInfeasible().Add(1);
      dl.policy.path = ReadPath::kFullShare;
    } else {
      dl.contacted.reserve(d);
      for (std::size_t i = 0; i < d; ++i) {
        dl.contacted.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  auto [it, _] =
      downloads_.insert_or_assign(spec.file_id, std::move(dl));
  if (it->second.contacted.empty()) {
    for (std::size_t i = 0; i < cfg_.params.n; ++i) {
      SendReconstructRequest(spec.file_id, static_cast<std::uint32_t>(i),
                             it->second);
    }
  } else {
    for (std::uint32_t host : it->second.contacted) {
      SendReconstructRequest(spec.file_id, host, it->second);
    }
  }
}

std::size_t Client::RetryDownload(const ReadSpec& spec) {
  auto it = downloads_.find(spec.file_id);
  if (it == downloads_.end()) {
    BeginDownload(spec);
    ++retries_;
    return cfg_.params.n;
  }
  const PendingDownload& dl = it->second;
  std::size_t asked = 0;
  if (dl.contacted.empty()) {
    for (std::size_t i = 0; i < cfg_.params.n; ++i) {
      const std::uint32_t host = static_cast<std::uint32_t>(i);
      if (dl.responses.count(host) != 0) continue;
      SendReconstructRequest(spec.file_id, host, dl);
      ++asked;
    }
  } else {
    for (std::uint32_t host : dl.contacted) {
      if (dl.responses.count(host) != 0) continue;
      SendReconstructRequest(spec.file_id, host, dl);
      ++asked;
    }
  }
  if (asked > 0) ++retries_;
  return asked;
}

std::size_t Client::ResponsesFor(std::uint64_t file_id) const {
  auto it = downloads_.find(file_id);
  return it == downloads_.end() ? 0 : it->second.responses.size();
}

std::optional<Bytes> Client::TryAssemble(std::uint64_t file_id) {
  auto it = downloads_.find(file_id);
  if (it == downloads_.end()) return std::nullopt;
  if (!it->second.contacted.empty()) {
    return AssembleStaircase(file_id, it->second);
  }
  const auto& responses = it->second.responses;
  const std::size_t need = cfg_.params.degree() + 1;
  if (responses.size() < need) return std::nullopt;

  ComputeSection section(metrics_, obs::SpanKind::kClientReconstruct,
                         file_id);
  const FileMeta meta = MajorityMeta(
      responses, [](const auto& entry) -> const FileMeta& {
        return entry.second.meta;
      });

  // First d+1 hosts (ascending ids) whose response matches the block count.
  // Striped rows (stale responses from an abandoned staircase attempt on the
  // same file id) are never full share vectors, so the length filter also
  // keeps them out of the oracle path.
  std::vector<std::uint32_t> parties;
  std::vector<const std::uint8_t*> rows;
  for (const auto& [host, resp] : responses) {
    if (resp.striped || resp.count != meta.num_blocks) continue;
    parties.push_back(host);
    rows.push_back(resp.elems().data());
    if (parties.size() == need) break;
  }
  if (parties.size() < need) return std::nullopt;

  // Reconstruct straight from the responses' element bytes.
  Bytes secrets(meta.num_blocks * cfg_.params.l * cfg_.ctx->elem_bytes());
  shamir_->ReconstructRows(parties, rows, meta.num_blocks, secrets.data(),
                           section.extra());
  Bytes out;
  try {
    out = codec_.DecodeWire(meta, secrets);
  } catch (const ParseError&) {
    // Fast path failed the integrity check: some host returned corrupted
    // shares. Fall back to Berlekamp-Welch decoding over ALL responses,
    // which tolerates a minority of wrong values per block. Throws
    // ParseError (propagated) if even robust decoding cannot explain the
    // responses.
    out = AssembleRobust(meta, section.extra());
  }
  downloads_.erase(file_id);
  return out;
}

std::optional<Bytes> Client::AssembleStaircase(std::uint64_t file_id,
                                               PendingDownload& dl) {
  // Striping has no redundancy inside one read: every contact's stripe is
  // load-bearing, so assembly waits for the FULL contact set. Whether to
  // keep pumping, re-ask, or fall back is the caller's policy decision.
  const pss::StripeLayout layout(dl.contacted.size(),
                                 cfg_.params.degree() + 1);
  std::vector<const ShareResponse*> by_contact(dl.contacted.size(), nullptr);
  for (std::size_t j = 0; j < dl.contacted.size(); ++j) {
    auto rit = dl.responses.find(dl.contacted[j]);
    if (rit == dl.responses.end() || !rit->second.striped) return std::nullopt;
    by_contact[j] = &rit->second;
  }

  ComputeSection section(metrics_, obs::SpanKind::kClientReconstruct, file_id);
  const FileMeta meta = MajorityMeta(
      by_contact,
      [](const ShareResponse* resp) -> const FileMeta& { return resp->meta; });

  std::vector<std::span<const std::uint8_t>> stripes(dl.contacted.size());
  for (std::size_t j = 0; j < dl.contacted.size(); ++j) {
    if (by_contact[j]->count != layout.CountFor(j, meta.num_blocks)) {
      // Wrong stripe length (host disagreed about the file's block count or
      // sent garbage): drop the response so a retry re-asks that host.
      dl.responses.erase(dl.contacted[j]);
      return std::nullopt;
    }
    stripes[j] = by_contact[j]->elems();
  }

  const Bytes secrets =
      pss::StripedReconstruct(*shamir_, layout, dl.contacted, stripes,
                              meta.num_blocks, section.extra());
  // No robust fallback on this path: a stripe carries exactly degree+1
  // points per block, so a corrupted contribution surfaces as a codec
  // integrity failure (ParseError) and the caller falls back per policy.
  Bytes out = codec_.DecodeWire(meta, secrets);
  downloads_.erase(file_id);
  return out;
}

Bytes Client::AssembleRobust(const FileMeta& meta, std::uint64_t* extra_cpu_ns) {
  auto it = downloads_.find(meta.file_id);
  Invariant(it != downloads_.end(), "AssembleRobust: no pending download");
  RobustFallbacks().Add(1);
  std::vector<std::uint32_t> parties;
  std::vector<std::vector<FpElem>> rows;
  for (const auto& [host, resp] : it->second.responses) {
    if (resp.striped || resp.count != meta.num_blocks) continue;
    parties.push_back(host);
    rows.push_back(field::DeserializeElems(*cfg_.ctx, resp.elems()));
  }
  std::vector<FpElem> elems(meta.num_blocks * cfg_.params.l, cfg_.ctx->Zero());
  // Berlekamp-Welch decoding is the expensive path; each block decodes
  // independently on the task pool (a failed block throws, which the pool
  // rethrows on this thread).
  GlobalPool().ParallelFor(
      0, meta.num_blocks,
      [&](std::size_t blk) {
        std::vector<FpElem> shares(parties.size(), cfg_.ctx->Zero());
        for (std::size_t k = 0; k < parties.size(); ++k) {
          shares[k] = rows[k][blk];
        }
        std::vector<std::size_t> corrupted;
        auto secrets =
            shamir_->RobustReconstructBlock(parties, shares, &corrupted);
        if (!secrets) {
          throw ParseError("Client: robust reconstruction failed for a block");
        }
        if (!corrupted.empty()) ClientSharesCorrected().Add(corrupted.size());
        for (std::size_t j = 0; j < cfg_.params.l; ++j) {
          elems[blk * cfg_.params.l + j] = (*secrets)[j];
        }
      },
      extra_cpu_ns);
  return codec_.Decode(meta, elems);
}

void Client::AdoptParams(const pss::Params& params) {
  params.Validate();
  Require(params.l == cfg_.params.l,
          "Client::AdoptParams: packing must match (re-pack via the codec)");
  Require(params.field_bits == cfg_.params.field_bits,
          "Client::AdoptParams: field must match");
  // Finished uploads keep a payload-less entry behind for UploadAcks; only
  // cached retry payloads or an open download mean in-flight work.
  for (const auto& [id, up] : uploads_) {
    Require(up.payloads.empty(),
            "Client::AdoptParams: upload " + std::to_string(id) +
                " still in flight");
  }
  Require(downloads_.empty(),
          "Client::AdoptParams: downloads still in flight");
  cfg_.params = params;
  shamir_ = std::make_shared<pss::PackedShamir>(cfg_.ctx, cfg_.params);
  // codec_ depends only on l, which is fixed across a reshare; the ack
  // bookkeeping named hosts of the old fleet, so it goes.
  uploads_.clear();
}

void Client::RequestDelete(std::uint64_t file_id) {
  for (std::size_t i = 0; i < cfg_.params.n; ++i) {
    Message m;
    m.from = cfg_.id;
    m.to = static_cast<std::uint32_t>(i);
    m.type = MsgType::kDeleteFile;
    m.file_id = file_id;
    // Deletion is destructive: authenticate it by sealing the file id on the
    // client's channel so strangers cannot destroy shares.
    ByteWriter w;
    w.U64(file_id);
    m.payload = keyring_.Seal(static_cast<std::uint32_t>(i), w.bytes());
    metrics_.msgs_sent += 1;
    metrics_.bytes_sent += m.WireSize();
    transport_.Send(std::move(m));
  }
}

void Client::HandleMessage(const Message& msg) {
  try {
    switch (msg.type) {
      case MsgType::kHostCert:
        // A reboot batch's cert snapshot: only the hypervisor publishes one.
        if (msg.from != net::kHypervisorId) return;
        keyring_.Accept(crypto::CertSnapshot::Deserialize(msg.payload));
        return;
      case MsgType::kPhaseDone: {
        if (msg.row == 2 && !msg.payload.empty() && msg.payload[0] == 1) {
          uploads_[msg.file_id].acked.insert(msg.from);
        }
        return;
      }
      case MsgType::kShareResponse: {
        auto it = downloads_.find(msg.file_id);
        if (it == downloads_.end()) return;  // stale response
        ShareResponse resp;
        resp.body = keyring_.Open(msg.from, msg.payload);
        ByteReader r(resp.body);
        resp.meta = FileMeta::Deserialize(r.Blob());
        resp.offset = resp.body.size() - r.Remaining();
        resp.count = field::ValidateElems(*cfg_.ctx, resp.elems());
        resp.striped = msg.row == 1;  // row 0 = full share vector
        it->second.responses.insert_or_assign(msg.from, std::move(resp));
        return;
      }
      default:
        LogWarn() << "client: unexpected " << msg.Describe();
    }
  } catch (const ParseError& e) {
    LogWarn() << "client: dropping message (" << e.what()
              << "): " << msg.Describe();
  } catch (const InvalidArgument& e) {
    LogWarn() << "client: rejecting message (" << e.what()
              << "): " << msg.Describe();
  }
}

}  // namespace pisces
