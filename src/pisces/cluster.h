// Public API facade: a complete PiSCES deployment in one object.
//
// Cluster wires together a fleet of n share storage hosts, the hypervisor
// that drives it, and a client, and exposes the paper's user-visible
// operations: Upload, Download, Delete, and RunUpdateWindow (one proactive
// time step). Examples and benches use this class; tests also reach through
// it to the underlying components.
//
//   pisces::ClusterConfig cfg;
//   cfg.params = pisces::pss::Params::Natural(21);
//   pisces::Cluster cluster(cfg);
//   cluster.Upload(1, file_bytes);
//   cluster.RunUpdateWindow();             // refresh + reboot everyone
//   pisces::Bytes back = cluster.Download(pisces::ReadSpec::Classic(1));
//
// The fleet is either in-process (a SimFleet on the deterministic SimNet
// fabric) or real: a WireFleet of pisces_hostd processes -- or HostProcess
// threads -- on the loopback port map of an MpConfig (docs/deployment.md).
// Both run the same operations; only delivering the client's traffic
// differs. A wire Cluster refuses Delete (hosts do not ack a delete) and
// Reshare, and has no in-process hosts: net(), sync(), host(i) and
// ArmByzantine throw there, and TotalMetrics() reads zero.
#pragma once

#include <functional>
#include <memory>

#include "field/primes.h"
#include "pisces/byzantine.h"
#include "pisces/client.h"
#include "pisces/cost_model.h"
#include "pisces/deployment.h"
#include "pisces/hypervisor.h"
#include "pisces/mp_config.h"
#include "pisces/wire_fleet.h"

namespace pisces {

struct ClusterConfig {
  pss::Params params = pss::Params::Natural(13, 256);
  std::uint64_t seed = 1;
  bool encrypt_links = true;
  std::string schedule = "round-robin";
  net::NetworkModel net_model;
  InstanceType instance = InstanceType::kMedium;
  double build_machine_ecu = 25.0;
  std::optional<Deployment> deployment;  // defaults to single-cloud
  // Repair read policy forwarded to the hypervisor (reduced masked-share
  // stripes when kStaircase; see HypervisorConfig::repair).
  ReadPolicy repair;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  // Drives the running hosts of `cfg`'s port map, which must be listening
  // within cfg.deadline_ms. `tick` runs inside every wait, the hypervisor's
  // and the client's alike: a launcher polls its supervisor there, a test
  // pumps its hosts.
  explicit Cluster(MpConfig cfg, std::function<void()> tick = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- user operations (each delivers the client's traffic to completion;
  // on the wire, each delivery waits at most MpConfig::deadline_ms) ---
  // Uploads and waits for all n acks, re-sending to unacked hosts up to t+2
  // times; throws Error if a reachable host (or more than t) missed it.
  FileMeta Upload(std::uint64_t file_id, std::span<const std::uint8_t> data);
  // Downloads and reassembles under the spec's read policy; throws Error
  // when unavailable (or when a staircase read fails and the spec forbids
  // falling back to the full-share path). All call sites name their policy:
  // ReadSpec::Classic(id) is the oracle path, ReadSpec::Staircase(id, d)
  // the communication-efficient one (docs/bandwidth.md).
  Bytes Download(const ReadSpec& spec);
  // In-process fleets only.
  void Delete(std::uint64_t file_id);

  // --- proactive operations ---
  WindowReport RunUpdateWindow();
  bool RefreshAllFiles();
  // Live migration to a new group shape (n', t') without reconstructing any
  // file (docs/resharding.md). The packing l and field must match the
  // current params. Throws Error when the migration cannot complete; the
  // old fleet keeps serving in that case. Returns the hypervisor's report.
  ReshareReport Reshare(const pss::Params& to);

  // --- active adversary (tests, seed sweeps) ---
  // Arms every host named in `plan` with a seeded ByzantineActor; honest
  // hosts stay untouched (byte-identical behaviour when the plan is empty).
  // Re-arming replaces the previous engine; Disarm restores the honest fleet.
  void ArmByzantine(const ByzantinePlan& plan);
  void DisarmByzantine();
  const ByzantineEngine* byzantine_engine() const { return byzantine_.get(); }

  // --- accessors for tests, benches, adversary simulations ---
  const ClusterConfig& config() const { return cfg_; }
  const field::FpCtx& ctx() const { return *ctx_; }
  std::shared_ptr<const field::FpCtx> ctx_ptr() const { return ctx_; }
  Hypervisor& hypervisor() { return *hypervisor_; }
  Client& client() { return *client_; }
  Host& host(std::size_t i) { return Sim().host(i); }
  net::SimNet& net() {
    Sim();
    return *net_;
  }
  net::SyncNetwork& sync() {
    Sim();
    return *sync_;
  }
  // Wire only: the fleet's deadline counter and mid-window test seam.
  WireFleet& wire_fleet();
  const Deployment& deployment() const { return deployment_; }
  CostModel cost_model() const;

  // Sum of host metrics over every fleet slot (zero on the wire).
  HostMetrics TotalMetrics() const;
  void ResetMetrics();

 private:
  // Shared tail of both constructors: the hypervisor boots `fleet`, then
  // the client is enrolled on `client_transport`.
  void Start(std::unique_ptr<FleetControl> fleet,
             net::Transport& client_transport);
  // The in-process fleet; throws Error on a wire Cluster.
  SimFleet& Sim() const;
  // Delivers client traffic. SimNet: pumps to quiescence (`done` unused).
  // Wire: pumps the client endpoint and the tick until `done` holds or the
  // deadline passes.
  void Deliver(const std::function<bool()>& done);
  // Wire: handles the client's queued messages -- chiefly the reboot
  // batches' kHostCert snapshots, so new requests are sealed to the current
  // certs.
  void DeliverQueued();
  // One begin-pump-retry cycle under `spec`'s path; nullopt when responses
  // never sufficed, ParseError when reconstruction failed integrity.
  std::optional<Bytes> DownloadAttempt(const ReadSpec& spec);

  ClusterConfig cfg_;
  std::shared_ptr<const field::FpCtx> ctx_;
  Deployment deployment_;
  std::unique_ptr<net::SimNet> net_;        // SimNet only
  std::unique_ptr<net::SyncNetwork> sync_;  // SimNet only
  SimFleet* sim_ = nullptr;    // owned by hypervisor_; SimNet only
  WireFleet* wire_ = nullptr;  // owned by hypervisor_; wire only
  std::unique_ptr<Hypervisor> hypervisor_;
  std::uint64_t deadline_ms_ = 0;                     // wire only
  std::function<void()> tick_;                        // wire only
  std::unique_ptr<net::AsyncTcpEndpoint> client_ep_;  // wire only
  std::unique_ptr<Client> client_;
  std::unique_ptr<ByzantineEngine> byzantine_;
};

}  // namespace pisces
