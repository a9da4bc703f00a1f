// Public API facade: a complete PiSCES deployment in one object.
//
// Cluster wires together the deterministic network fabric, the hypervisor
// (with its n share storage hosts), and a client, and exposes the paper's
// user-visible operations: Upload, Download, Delete, and RunUpdateWindow
// (one proactive time step). Examples and benches use this class; tests also
// reach through it to the underlying components.
//
//   pisces::ClusterConfig cfg;
//   cfg.params = pisces::pss::Params::Natural(21);
//   pisces::Cluster cluster(cfg);
//   cluster.Upload(1, file_bytes);
//   cluster.RunUpdateWindow();             // refresh + reboot everyone
//   pisces::Bytes back = cluster.Download(pisces::ReadSpec::Classic(1));
#pragma once

#include <memory>

#include "field/primes.h"
#include "pisces/byzantine.h"
#include "pisces/client.h"
#include "pisces/cost_model.h"
#include "pisces/deployment.h"
#include "pisces/hypervisor.h"

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
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- user operations (each pumps the network to completion) ---
  // Uploads and waits for all n acks; throws Error if any host missed it.
  FileMeta Upload(std::uint64_t file_id, std::span<const std::uint8_t> data);
  // Downloads and reassembles under the spec's read policy; throws Error
  // when unavailable (or when a staircase read fails and the spec forbids
  // falling back to the full-share path). All call sites name their policy:
  // ReadSpec::Classic(id) is the oracle path, ReadSpec::Staircase(id, d)
  // the communication-efficient one (docs/bandwidth.md).
  Bytes Download(const ReadSpec& spec);
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
  Host& host(std::size_t i) { return fleet_->host(i); }
  net::SimNet& net() { return *net_; }
  net::SyncNetwork& sync() { return *sync_; }
  const Deployment& deployment() const { return deployment_; }
  CostModel cost_model() const;

  // Sum of host metrics across the fleet.
  HostMetrics TotalMetrics() const;
  void ResetMetrics();

 private:
  // One begin-pump-retry cycle under `spec`'s path; nullopt when responses
  // never sufficed, ParseError when reconstruction failed integrity.
  std::optional<Bytes> DownloadAttempt(const ReadSpec& spec);

  ClusterConfig cfg_;
  std::shared_ptr<const field::FpCtx> ctx_;
  Deployment deployment_;
  std::unique_ptr<net::SimNet> net_;
  std::unique_ptr<net::SyncNetwork> sync_;
  SimFleet* fleet_ = nullptr;  // owned by hypervisor_
  std::unique_ptr<Hypervisor> hypervisor_;
  net::SimEndpoint* client_endpoint_ = nullptr;
  std::unique_ptr<Client> client_;
  std::unique_ptr<ByzantineEngine> byzantine_;
};

}  // namespace pisces
