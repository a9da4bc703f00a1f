#include "pisces/wire_fleet.h"

#include <algorithm>
#include <numeric>

#include "common/clock.h"
#include "common/log.h"
#include "field/primes.h"
#include "obs/registry.h"

namespace pisces {

namespace {

// With nothing to wait for (after a boot), a settle lets in-flight traffic
// -- the cert snapshot pushed to the client -- land before the next round.
constexpr std::uint64_t kSettleGraceMs = 200;
constexpr int kTickSliceMs = 10;

obs::Counter& DeadlineExpiries() {
  static obs::Counter& c = obs::RegisterCounter(
      "net.deadline_expiries",
      "bounded-delay RPC deadlines that fired at the hypervisor");
  return c;
}

std::uint64_t NowMs() { return MonotonicNanos() / 1'000'000; }

}  // namespace

WireFleet::WireFleet(MpConfig cfg)
    : cfg_(std::move(cfg)),
      ctx_(std::make_shared<const field::FpCtx>(
          field::StandardPrimeBe(cfg_.field_bits))),
      all_(cfg_.n),
      view_(cfg_.n),
      answered_(cfg_.n, false) {
  cfg_.Validate();
  ep_ = cfg_.MakeEndpoint(net::kHypervisorId);
  std::iota(all_.begin(), all_.end(), 0u);
  DeadlineExpiries();  // register before the first snapshot
}

// ---- receive plumbing ------------------------------------------------------

std::optional<net::Message> WireFleet::ReceiveBy(std::uint64_t deadline_ms) {
  for (;;) {
    if (tick_) tick_();
    const std::uint64_t now = NowMs();
    if (now >= deadline_ms) return std::nullopt;
    auto msg = ep_->ReceiveWait(static_cast<int>(
        std::min<std::uint64_t>(kTickSliceMs, deadline_ms - now)));
    if (msg) return msg;
  }
}

void WireFleet::Absorb(const net::Message& msg) {
  if (msg.from >= cfg_.n) return;
  silent_.erase(msg.from);
  if (msg.type == net::MsgType::kPhaseDone) {
    sink_->HandleMessage(msg);
  } else if (msg.type == net::MsgType::kStatusReport && msg.row == 0) {
    // Only an unbooted hostd announces itself: a crash-restarted process
    // whose state is gone. The restart schedule reboots it.
    view_[msg.from] = HostStatus{};
  }
}

std::map<std::uint32_t, net::Message> WireFleet::Call(
    std::span<const std::uint32_t> ids, net::Message proto,
    net::MsgType reply) {
  std::map<std::uint32_t, std::uint32_t> token_of;
  std::set<std::uint32_t> waiting;
  proto.from = net::kHypervisorId;
  for (std::uint32_t id : ids) {
    net::Message m = proto;
    m.to = id;
    m.row = next_token_++;
    token_of[id] = m.row;
    if (silent_.count(id) == 0) waiting.insert(id);
    ep_->Send(std::move(m));
  }
  std::map<std::uint32_t, net::Message> replies;
  const std::uint64_t deadline = NowMs() + cfg_.deadline_ms;
  while (!waiting.empty()) {
    auto msg = ReceiveBy(deadline);
    if (!msg) break;
    Absorb(*msg);
    auto it = token_of.find(msg->from);
    if (msg->type == reply && it != token_of.end() && it->second == msg->row) {
      waiting.erase(msg->from);
      replies.emplace(msg->from, std::move(*msg));
    }
  }
  for (std::uint32_t id : waiting) {
    LogWarn() << "hypervisor: host " << id << " missed the "
              << net::MsgTypeName(proto.type) << " deadline";
    silent_.insert(id);
    ++deadline_expiries_;
    DeadlineExpiries().Add();
  }
  return replies;
}

// ---- lifecycle -------------------------------------------------------------

bool WireFleet::Boot(std::uint32_t id, Bytes sk, const CertDirectory& directory,
                     const crypto::CertSnapshot& snap) {
  BootMaterial boot;
  boot.ca_pk = ca_pk_;
  boot.sk = std::move(sk);
  boot.directory = directory;
  boot.snapshot = snap;
  net::Message m;
  m.type = net::MsgType::kBootHost;
  m.payload = boot.Serialize();
  const std::uint32_t ids[] = {id};
  // A hostd acks only a boot it completed (a rejected one throws first).
  const bool acked =
      Call(ids, std::move(m), net::MsgType::kStatusReport).count(id) != 0;
  surveyed_ = false;
  return acked;
}

void WireFleet::Halt(std::uint32_t id) {
  // A dead process cannot ack; a crash-restarted one has nothing to wipe and
  // acks anyway. Either way the boot that follows decides.
  net::Message m;
  m.type = net::MsgType::kHaltHost;
  const std::uint32_t ids[] = {id};
  Call(ids, std::move(m), net::MsgType::kStatusReport);
  surveyed_ = false;
}

void WireFleet::Publish(const crypto::CertSnapshot& snap,
                        std::span<const std::uint32_t> to) {
  net::Message m;
  m.from = net::kHypervisorId;
  m.type = net::MsgType::kHostCert;
  m.payload = snap.Serialize();
  std::vector<std::uint32_t> hosts;
  for (std::uint32_t id : to) {
    if (id < cfg_.n) {
      hosts.push_back(id);
      continue;
    }
    m.to = id;
    ep_->Send(m);
    pushed_external_ = true;
  }
  if (!hosts.empty()) Call(hosts, std::move(m), net::MsgType::kStatusReport);
}

// ---- rounds ----------------------------------------------------------------

void WireFleet::Send(net::Message msg) {
  if (msg.type == net::MsgType::kStartRefresh) refresh_launched_ = true;
  ep_->Send(std::move(msg));
}

std::uint64_t WireFleet::Settle(std::uint32_t seq, const Completions& expect) {
  if (refresh_launched_ && mid_window_hook_) {
    auto hook = std::move(mid_window_hook_);
    mid_window_hook_ = nullptr;
    hook();
  }
  refresh_launched_ = false;
  round_seq_ = seq;
  surveyed_ = false;
  if (expect.empty() && !pushed_external_) return 0;  // nothing in flight
  pushed_external_ = false;
  Completions pending = expect;
  std::uint64_t deadline =
      NowMs() + (expect.empty() ? kSettleGraceMs : cfg_.deadline_ms);
  while (expect.empty() || !pending.empty()) {
    auto msg = ReceiveBy(deadline);
    if (!msg) break;
    Absorb(*msg);
    if (msg->type == net::MsgType::kPhaseDone && msg->epoch == seq &&
        pending.erase({msg->from, msg->file_id}) != 0) {
      deadline = NowMs() + cfg_.deadline_ms;  // progress: the bound restarts
    }
  }
  if (!pending.empty()) {
    ++deadline_expiries_;
    DeadlineExpiries().Add();
  }
  return 0;
}

void WireFleet::AbortStuck(std::vector<std::string>&) {
  // Acked, so a slow abort cannot land after the next round's first
  // messages and wipe them as stale buffers. The descriptions stay in each
  // hostd's log.
  net::Message m;
  m.type = net::MsgType::kAbortStuck;
  Call(all_, std::move(m), net::MsgType::kStatusReport);
  for (HostStatus& v : view_) {
    v.stuck_refresh.clear();
    v.stuck_recovery.clear();
    v.active_sessions = false;
  }
}

// ---- inspection ------------------------------------------------------------

const HostStatus& WireFleet::View(std::uint32_t id) {
  if (!surveyed_) {
    net::Message q;
    q.type = net::MsgType::kStatusRequest;
    q.epoch = round_seq_;
    auto replies = Call(all_, std::move(q), net::MsgType::kStatusReport);
    for (std::uint32_t h : all_) {
      auto it = replies.find(h);
      answered_[h] = false;
      if (it == replies.end()) continue;
      try {
        view_[h] = HostStatus::Deserialize(it->second.payload, *ctx_);
        answered_[h] = true;
      } catch (const ParseError&) {
        LogWarn() << "hypervisor: malformed status report from host " << h;
      }
    }
    surveyed_ = true;
  }
  return view_.at(id);
}

bool WireFleet::Reachable(std::uint32_t id) {
  return View(id).online && answered_[id];
}

std::vector<std::uint64_t> WireFleet::HeldFiles(std::uint32_t id) {
  std::vector<std::uint64_t> ids;
  for (const FileMeta& m : View(id).files) ids.push_back(m.file_id);
  return ids;
}

const FileMeta* WireFleet::Held(std::uint32_t id, std::uint64_t file) {
  for (const FileMeta& m : View(id).files) {
    if (m.file_id == file) return &m;
  }
  return nullptr;
}

std::optional<Host::FailedRefresh> WireFleet::TakeFailedRefresh(
    std::uint32_t id, std::uint64_t file, std::uint32_t seq) {
  View(id);
  if (seq != round_seq_) return std::nullopt;
  auto node = view_[id].failed_refresh.extract(file);
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped());
}

}  // namespace pisces
