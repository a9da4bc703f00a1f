#include "pisces/fleet.h"

namespace pisces {

SimFleet::SimFleet(pss::Params params, std::shared_ptr<const field::FpCtx> ctx,
                   bool encrypt_links, std::uint64_t seed, net::SimNet& net,
                   net::SyncNetwork& sync, const crypto::SchnorrGroup& group)
    : net_(net), sync_(sync), group_(group) {
  base_.params = params;
  base_.ctx = std::move(ctx);
  base_.encrypt_links = encrypt_links;
  base_.rng_seed = seed;
}

void SimFleet::Attach(const Bytes& ca_pk, net::MessageHandler* sink) {
  ca_pk_ = ca_pk;
  endpoint_ = net_.AddEndpoint(net::kHypervisorId);
  sync_.Register(net::kHypervisorId, endpoint_, sink);
  AddSlots(base_.params);
}

void SimFleet::AddSlots(const pss::Params& params) {
  for (std::uint32_t i = hosts_.size(); i < params.n; ++i) {
    net::SimEndpoint* ep = net_.AddEndpoint(i);
    HostConfig hc = base_;
    hc.id = i;
    hc.params = params;
    hosts_.push_back(std::make_unique<Host>(hc, *ep, group_, ca_pk_));
    sync_.Register(i, ep, hosts_.back().get());
  }
}

bool SimFleet::Boot(std::uint32_t id, Bytes sk, const CertDirectory& directory,
                    const crypto::CertSnapshot& snap) {
  net_.SetOffline(id, false);
  hosts_[id]->Boot(std::move(sk), directory, snap);
  return true;
}

void SimFleet::Halt(std::uint32_t id) {
  hosts_[id]->Shutdown();
  net_.SetOffline(id, true);
}

void SimFleet::Publish(const crypto::CertSnapshot& snap,
                       std::span<const std::uint32_t> to) {
  net::Message m;
  m.from = net::kHypervisorId;
  m.type = net::MsgType::kHostCert;
  m.payload = snap.Serialize();
  for (std::uint32_t id : to) {
    m.to = id;
    endpoint_->Send(m);
  }
}

std::uint64_t SimFleet::Settle(std::uint32_t, const Completions&) {
  return sync_.RunToQuiescence().sweeps;
}

void SimFleet::AbortStuck(std::vector<std::string>& aborted) {
  // Visit every host, not just those with active sessions: a host that
  // missed a start message has no session but buffers its peers' traffic as
  // pending, and those stale buffers must not survive into the next attempt.
  for (auto& host : hosts_) {
    for (auto& desc : host->AbortStuckSessions()) {
      aborted.push_back(std::move(desc));
    }
  }
}

HostMetrics SimFleet::Metrics() {
  HostMetrics total;
  for (const auto& host : hosts_) {
    total.rerandomize.Add(host->metrics().rerandomize);
    total.recover.Add(host->metrics().recover);
    total.serve.Add(host->metrics().serve);
    total.faults.Add(host->metrics().faults);
  }
  return total;
}

}  // namespace pisces
