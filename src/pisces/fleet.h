// FleetControl: every privileged lifecycle operation and host inspection the
// hypervisor's policy needs (paper SectionIV-A, Fig 4), so one Hypervisor
// drives an in-process SimFleet (direct calls; settling a round is
// RunToQuiescence) and a WireFleet of pisces_hostd processes
// (pisces/wire_fleet.h) alike. Inspection answers for the fleet as of the
// latest settled round.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "pisces/host.h"

namespace pisces {

// (host, file) pairs whose kPhaseDone ends a round.
using Completions = std::set<std::pair<std::uint32_t, std::uint64_t>>;
using crypto::CertDirectory;

class FleetControl {
 public:
  virtual ~FleetControl() = default;

  // Binds the fleet to its hypervisor: hosts trust `ca_pk`, and every
  // kPhaseDone a host reports is handed to `sink`.
  virtual void Attach(const Bytes& ca_pk, net::MessageHandler* sink) = 0;
  // Physical host slots (an in-process fleet keeps retired slots parked).
  virtual std::size_t slots() const = 0;

  // --- privileged lifecycle ---
  // Installs the fresh secret key `sk` on `id`, brings it onto the network
  // and provisions `directory` under `snap`, the signed snapshot of its boot
  // batch (which lists its cert). False when the host never acknowledged.
  virtual bool Boot(std::uint32_t id, Bytes sk, const CertDirectory& directory,
                    const crypto::CertSnapshot& snap) = 0;
  // Secure disassociation: wipes `id` and takes it off the network.
  virtual void Halt(std::uint32_t id) = 0;
  // Sends `snap` as kHostCert to the endpoints `to` (hosts and enrolled
  // externals) as network traffic: a host holds it once the next settle
  // returns.
  virtual void Publish(const crypto::CertSnapshot& snap,
                       std::span<const std::uint32_t> to) = 0;

  // --- protocol rounds ---
  virtual void Send(net::Message msg) = 0;
  // Delivers protocol traffic until round `seq` is over: every completion in
  // `expect` arrived, or nothing more can arrive. Returns the synchronous
  // sweeps it took (0 where rounds are not simulated).
  virtual std::uint64_t Settle(std::uint32_t seq,
                               const Completions& expect) = 0;
  // Bounded-delay timeout: aborts every host's stuck sessions and buffered
  // stale traffic, appending what it aborted to `aborted` where known.
  virtual void AbortStuck(std::vector<std::string>& aborted) = 0;

  // --- inspection ---
  virtual bool Online(std::uint32_t id) = 0;     // booted (maybe unreachable)
  virtual bool Reachable(std::uint32_t id) = 0;  // booted and answering
  virtual std::vector<std::uint64_t> HeldFiles(std::uint32_t id) = 0;
  // `id`'s meta of `file`, or nullptr when it holds no share of it.
  virtual const FileMeta* Held(std::uint32_t id, std::uint64_t file) = 0;
  virtual std::vector<Host::StuckRefresh> StuckRefresh(std::uint32_t id) = 0;
  virtual std::vector<Host::StuckRecovery> StuckRecovery(std::uint32_t id) = 0;
  virtual bool HasActiveSessions(std::uint32_t id) = 0;
  virtual std::optional<Host::FailedRefresh> TakeFailedRefresh(
      std::uint32_t id, std::uint64_t file, std::uint32_t seq) = 0;
  // Host metrics summed over every slot.
  virtual HostMetrics Metrics() = 0;

 private:
  friend class Hypervisor;
  // Start of a hypervisor operation (or survey): hosts may have changed
  // since the last one (client uploads and deletes), so cached state is
  // dropped. Only the hypervisor opens operations.
  virtual void BeginOperation() {}
};

class SimFleet final : public FleetControl {
 public:
  // Hosts are created at Attach, which brings the CA key.
  SimFleet(pss::Params params, std::shared_ptr<const field::FpCtx> ctx,
           bool encrypt_links, std::uint64_t seed, net::SimNet& net,
           net::SyncNetwork& sync, const crypto::SchnorrGroup& group);

  void Attach(const Bytes& ca_pk, net::MessageHandler* sink) override;
  std::size_t slots() const override { return hosts_.size(); }
  bool Boot(std::uint32_t id, Bytes sk, const CertDirectory& directory,
            const crypto::CertSnapshot& snap) override;
  void Halt(std::uint32_t id) override;
  void Publish(const crypto::CertSnapshot& snap,
               std::span<const std::uint32_t> to) override;
  void Send(net::Message msg) override { endpoint_->Send(std::move(msg)); }
  std::uint64_t Settle(std::uint32_t seq, const Completions& expect) override;
  void AbortStuck(std::vector<std::string>& aborted) override;
  bool Online(std::uint32_t id) override { return hosts_[id]->online(); }
  bool Reachable(std::uint32_t id) override {
    return hosts_[id]->online() && !net_.IsOffline(id);
  }
  std::vector<std::uint64_t> HeldFiles(std::uint32_t id) override {
    return hosts_[id]->store().FileIds();
  }
  const FileMeta* Held(std::uint32_t id, std::uint64_t file) override {
    const ShareStore& store = hosts_[id]->store();
    return store.Has(file) ? &store.MetaOf(file) : nullptr;
  }
  std::vector<Host::StuckRefresh> StuckRefresh(std::uint32_t id) override {
    return hosts_[id]->StuckRefreshSessions();
  }
  std::vector<Host::StuckRecovery> StuckRecovery(std::uint32_t id) override {
    return hosts_[id]->StuckRecoverySessions();
  }
  bool HasActiveSessions(std::uint32_t id) override {
    return hosts_[id]->HasActiveSessions();
  }
  std::optional<Host::FailedRefresh> TakeFailedRefresh(
      std::uint32_t id, std::uint64_t file, std::uint32_t seq) override {
    return hosts_[id]->TakeFailedRefresh(file, seq);
  }
  HostMetrics Metrics() override;

  // In-process only (resharing, Byzantine arming): the Host of slot `id`.
  Host& host(std::uint32_t id) { return *hosts_.at(id); }
  // Creates parked slots up to `params.n` for a grow migration.
  void AddSlots(const pss::Params& params);

 private:
  HostConfig base_;  // id and params filled per slot
  net::SimNet& net_;
  net::SyncNetwork& sync_;
  const crypto::SchnorrGroup& group_;
  Bytes ca_pk_;
  net::SimEndpoint* endpoint_ = nullptr;
  std::vector<std::unique_ptr<Host>> hosts_;
};

}  // namespace pisces
