#include "pisces/host_process.h"

#include "common/clock.h"
#include "common/error.h"
#include "common/log.h"
#include "field/primes.h"

namespace pisces {

namespace {
constexpr std::uint64_t kAnnounceIntervalMs = 200;
}

// ---- wire formats ----------------------------------------------------------

Bytes BootMaterial::Serialize() const {
  ByteWriter w;
  w.Blob(ca_pk);
  w.Blob(sk);
  w.U32(static_cast<std::uint32_t>(directory.size()));
  for (const auto& [id, c] : directory) w.Blob(c.Serialize());
  w.Blob(snapshot.Serialize());
  return w.Take();
}

BootMaterial BootMaterial::Deserialize(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  BootMaterial b;
  const auto ca_pk = r.Blob();
  b.ca_pk.assign(ca_pk.begin(), ca_pk.end());
  const auto sk = r.Blob();
  b.sk.assign(sk.begin(), sk.end());
  const std::uint32_t nc = r.Count(4);
  for (std::uint32_t i = 0; i < nc; ++i) {
    crypto::HostCert cert = crypto::HostCert::Deserialize(r.Blob());
    const std::uint32_t id = cert.host_id;
    if (!b.directory.emplace(id, std::move(cert)).second) {
      throw ParseError("BootMaterial: duplicate directory entry");
    }
  }
  b.snapshot = crypto::CertSnapshot::Deserialize(r.Blob());
  if (!r.AtEnd()) throw ParseError("BootMaterial: trailing bytes");
  return b;
}

namespace {

void PutIds(ByteWriter& w, const std::vector<std::uint32_t>& ids) {
  w.U32(static_cast<std::uint32_t>(ids.size()));
  for (std::uint32_t id : ids) w.U32(id);
}

std::vector<std::uint32_t> GetIds(ByteReader& r) {
  std::vector<std::uint32_t> ids(r.Count(4));
  for (std::uint32_t& id : ids) id = r.U32();
  return ids;
}

}  // namespace

Bytes HostStatus::Serialize() const {
  ByteWriter w;
  w.U8(online ? 1 : 0);
  w.U8(active_sessions ? 1 : 0);
  w.U32(static_cast<std::uint32_t>(files.size()));
  for (const FileMeta& m : files) w.Blob(m.Serialize());
  w.U32(static_cast<std::uint32_t>(stuck_refresh.size()));
  for (const auto& s : stuck_refresh) {
    w.U64(s.file_id);
    w.U32(s.epoch);
    w.U8(s.waiting_verdicts ? 1 : 0);
    PutIds(w, s.missing_dealers);
  }
  w.U32(static_cast<std::uint32_t>(stuck_recovery.size()));
  for (const auto& s : stuck_recovery) {
    w.U64(s.file_id);
    w.U32(s.epoch);
    w.U32(s.target);
    PutIds(w, s.missing_dealers);
    PutIds(w, s.missing_senders);
  }
  w.U32(static_cast<std::uint32_t>(failed_refresh.size()));
  for (const auto& [file, fr] : failed_refresh) {
    w.U64(file);
    w.U32(static_cast<std::uint32_t>(fr.deals_by_dealer.size()));
    for (std::size_t i = 0; i < fr.deals_by_dealer.size(); ++i) {
      w.U8(i < fr.deal_seen.size() && fr.deal_seen[i] ? 1 : 0);
      w.Blob(fr.deals_by_dealer[i]);
    }
  }
  return w.Take();
}

HostStatus HostStatus::Deserialize(std::span<const std::uint8_t> data,
                                   const field::FpCtx& ctx) {
  ByteReader r(data);
  HostStatus rep;
  rep.online = r.U8() != 0;
  rep.active_sessions = r.U8() != 0;
  rep.files.resize(r.Count(4));
  for (FileMeta& m : rep.files) m = FileMeta::Deserialize(r.Blob());
  rep.stuck_refresh.resize(r.Count(17));
  for (auto& s : rep.stuck_refresh) {
    s.file_id = r.U64();
    s.epoch = r.U32();
    s.waiting_verdicts = r.U8() != 0;
    s.missing_dealers = GetIds(r);
  }
  rep.stuck_recovery.resize(r.Count(24));
  for (auto& s : rep.stuck_recovery) {
    s.file_id = r.U64();
    s.epoch = r.U32();
    s.target = r.U32();
    s.missing_dealers = GetIds(r);
    s.missing_senders = GetIds(r);
  }
  const std::uint32_t archives = r.Count(12);
  for (std::uint32_t a = 0; a < archives; ++a) {
    const std::uint64_t file = r.U64();
    Host::FailedRefresh fr;
    const std::uint32_t dealers = r.Count(5);
    for (std::uint32_t i = 0; i < dealers; ++i) {
      fr.deal_seen.push_back(r.U8() != 0);
      const std::span<const std::uint8_t> deal = r.Blob();
      field::ValidateElems(ctx, deal);
      fr.deals_by_dealer.emplace_back(deal.begin(), deal.end());
    }
    if (!rep.failed_refresh.emplace(file, std::move(fr)).second) {
      throw ParseError("HostStatus: duplicate archive");
    }
  }
  if (!r.AtEnd()) throw ParseError("HostStatus: trailing bytes");
  return rep;
}

// ---- HostProcess -----------------------------------------------------------

HostProcess::HostProcess(MpConfig cfg, std::uint32_t id)
    : cfg_(std::move(cfg)), id_(id) {
  cfg_.Validate();
  Require(id_ < cfg_.n, "HostProcess: host id out of range");
  ctx_ = std::make_shared<const field::FpCtx>(
      field::StandardPrimeBe(cfg_.field_bits));

  endpoint_ = cfg_.MakeEndpoint(id_);
}

void HostProcess::Serve() {
  std::uint64_t next_announce = 0;
  while (running_) {
    const std::uint64_t now = MonotonicNanos() / 1'000'000;
    const bool booted = host_ != nullptr && host_->online();
    if (!booted && now >= next_announce) {
      SendStatus(0);  // "I exist and need boot material"
      next_announce = now + kAnnounceIntervalMs;
    }
    auto msg = endpoint_->ReceiveWait(50);
    if (msg) HandleMessage(*msg);
  }
}

void HostProcess::HandleMessage(const net::Message& msg) {
  try {
    // Control is honored only from the hypervisor; anything else goes to the
    // Host, which drops what it does not expect.
    if (msg.from == net::kHypervisorId) {
      switch (msg.type) {
        case net::MsgType::kBootHost: OnBootHost(msg); return;
        case net::MsgType::kHaltHost: OnHaltHost(msg); return;
        case net::MsgType::kStatusRequest:
          SendStatus(msg.row, msg.epoch);
          return;
        case net::MsgType::kHostCert:
          // A cert snapshot push, acked so the hypervisor knows the host
          // holds the certs before the next round starts.
          if (host_ != nullptr) host_->HandleMessage(msg);
          SendStatus(msg.row);
          return;
        case net::MsgType::kAbortStuck:
          if (host_ != nullptr) {
            for (const auto& what : host_->AbortStuckSessions()) {
              LogWarn() << "hostd " << id_ << ": aborted stuck session: "
                        << what;
            }
          }
          SendStatus(msg.row);  // ack: the slate is clean
          return;
        default:
          break;
      }
    }
    if (host_ != nullptr) host_->HandleMessage(msg);
  } catch (const ParseError& e) {
    LogWarn() << "hostd " << id_ << ": dropping control message (" << e.what()
              << "): " << msg.Describe();
  } catch (const InvalidArgument& e) {
    LogWarn() << "hostd " << id_ << ": rejecting control message (" << e.what()
              << "): " << msg.Describe();
  }
}

void HostProcess::OnBootHost(const net::Message& msg) {
  BootMaterial boot = BootMaterial::Deserialize(msg.payload);
  Require(boot.snapshot.Find(id_) != nullptr,
          "BootHost: snapshot lists no cert for this host");
  if (ca_pk_.empty()) {
    // Trust-on-first-boot: the CA key rides the privileged management link.
    ca_pk_ = boot.ca_pk;
  } else {
    Require(ca_pk_ == boot.ca_pk, "BootHost: CA key changed across boots");
  }
  if (host_ == nullptr) {
    HostConfig hc;
    hc.id = id_;
    hc.params = cfg_.ToParams();
    hc.ctx = ctx_;
    hc.encrypt_links = cfg_.encrypt;
    hc.rng_seed = cfg_.seed + 7 + id_;
    host_ = std::make_unique<Host>(hc, *endpoint_,
                                   crypto::SchnorrGroup::Default(), ca_pk_);
  }
  if (host_->online()) host_->Shutdown();  // re-boot = disassociate first
  host_->Boot(std::move(boot.sk), boot.directory, boot.snapshot);
  SendStatus(msg.row);  // boot ack
}

void HostProcess::OnHaltHost(const net::Message& msg) {
  if (host_ != nullptr && host_->online()) host_->Shutdown();
  SendStatus(msg.row);  // halt ack (reports online=false)
}

void HostProcess::SendStatus(std::uint32_t echo_row,
                             std::optional<std::uint32_t> survey_seq) {
  HostStatus s;
  if (host_ != nullptr && host_->online()) {
    s.online = true;
    s.active_sessions = host_->HasActiveSessions();
    for (std::uint64_t f : host_->store().FileIds()) {
      s.files.push_back(host_->store().MetaOf(f));
      if (!survey_seq) continue;
      if (auto fr = host_->TakeFailedRefresh(f, *survey_seq)) {
        s.failed_refresh.emplace(f, std::move(*fr));
      }
    }
    s.stuck_refresh = host_->StuckRefreshSessions();
    s.stuck_recovery = host_->StuckRecoverySessions();
  }
  net::Message m;
  m.from = id_;
  m.to = net::kHypervisorId;
  m.type = net::MsgType::kStatusReport;
  m.row = echo_row;
  m.payload = s.Serialize();
  endpoint_->Send(std::move(m));
}

int RunHostProcess(const std::string& config_path, std::uint32_t id) {
  try {
    HostProcess hp(MpConfig::Load(config_path), id);
    hp.Serve();
    return 0;
  } catch (const Error& e) {
    LogError() << "hostd " << id << ": fatal: " << e.what();
    return 1;
  }
}

}  // namespace pisces
