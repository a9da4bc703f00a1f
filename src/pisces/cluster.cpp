#include "pisces/cluster.h"

#include "common/clock.h"
#include "common/log.h"
#include "common/task_pool.h"
#include "obs/registry.h"

namespace pisces {

namespace {

constexpr int kDeliverSliceMs = 10;

std::uint64_t NowMs() { return MonotonicNanos() / 1'000'000; }

obs::Counter& StaircaseFallbacks() {
  static obs::Counter& c = obs::RegisterCounter(
      "comm.staircase_fallbacks",
      "staircase reads that fell back to the classic full-share path");
  return c;
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.params.Validate();
  // Honor the paper's per-host worker count b: grow (never shrink) the
  // process-wide pool so Transform's fan-out can actually run b-wide. Pool
  // size affects wall time only, never results.
  EnsureGlobalPoolThreads(cfg_.params.b);
  ctx_ = std::make_shared<const field::FpCtx>(
      field::StandardPrimeBe(cfg_.params.field_bits));
  deployment_ = cfg_.deployment.value_or(Deployment::SingleCloud(cfg_.params.n));
  Require(deployment_.n() == cfg_.params.n,
          "Cluster: deployment size must match n");

  net_ = std::make_unique<net::SimNet>();
  sync_ = std::make_unique<net::SyncNetwork>(*net_);
  net::SimEndpoint* endpoint = net_->AddEndpoint(net::kClientId);
  auto fleet = std::make_unique<SimFleet>(cfg_.params, ctx_, cfg_.encrypt_links,
                                         cfg_.seed, *net_, *sync_,
                                         crypto::SchnorrGroup::Default());
  sim_ = fleet.get();
  Start(std::move(fleet), *endpoint);
  sync_->Register(net::kClientId, endpoint, client_.get());
  ResetMetrics();
}

Cluster::Cluster(MpConfig cfg, std::function<void()> tick)
    : deadline_ms_(cfg.deadline_ms), tick_(std::move(tick)) {
  cfg.Validate();
  cfg_.params = cfg.ToParams();
  cfg_.seed = cfg.seed;
  cfg_.encrypt_links = cfg.encrypt;
  EnsureGlobalPoolThreads(cfg_.params.b);
  ctx_ = std::make_shared<const field::FpCtx>(
      field::StandardPrimeBe(cfg_.params.field_bits));
  deployment_ = Deployment::SingleCloud(cfg_.params.n);

  client_ep_ = cfg.MakeEndpoint(net::kClientId);
  auto fleet = std::make_unique<WireFleet>(std::move(cfg));
  wire_ = fleet.get();
  wire_->SetTick(tick_);
  Start(std::move(fleet), *client_ep_);
}

Cluster::~Cluster() = default;

void Cluster::Start(std::unique_ptr<FleetControl> fleet,
                    net::Transport& client_transport) {
  HypervisorConfig hc;
  hc.params = cfg_.params;
  hc.ctx = ctx_;
  hc.schedule = cfg_.schedule;
  hc.seed = cfg_.seed;
  hc.repair = cfg_.repair;
  hypervisor_ = std::make_unique<Hypervisor>(hc, std::move(fleet),
                                             crypto::SchnorrGroup::Default());

  auto [sk, snap] = hypervisor_->EnrollExternal(net::kClientId);
  ClientConfig cc;
  cc.id = net::kClientId;
  cc.params = cfg_.params;
  cc.ctx = ctx_;
  cc.encrypt_links = cfg_.encrypt_links;
  cc.rng_seed = cfg_.seed ^ 0xC11E;
  // The client boots like a host: from the hypervisor's cert directory,
  // checked once against the enrollment snapshot. Later reboots reach it as
  // the hypervisor's kHostCert snapshots.
  client_ = std::make_unique<Client>(
      cc, client_transport, crypto::SchnorrGroup::Default(),
      hypervisor_->ca_public_key(), std::move(sk), hypervisor_->directory(),
      snap);
}

SimFleet& Cluster::Sim() const {
  if (sim_ == nullptr) {
    throw Error("Cluster: in-process fleets only (this one runs on the wire)");
  }
  return *sim_;
}

WireFleet& Cluster::wire_fleet() {
  Require(wire_ != nullptr, "Cluster::wire_fleet: not a wire fleet");
  return *wire_;
}

void Cluster::Deliver(const std::function<bool()>& done) {
  if (sync_) {
    sync_->RunToQuiescence();
    return;
  }
  const std::uint64_t deadline = NowMs() + deadline_ms_;
  while (!done() && NowMs() < deadline) {
    if (tick_) tick_();
    if (auto msg = client_ep_->ReceiveWait(kDeliverSliceMs)) {
      client_->HandleMessage(*msg);
    }
  }
}

void Cluster::DeliverQueued() {
  if (!client_ep_) return;
  while (auto msg = client_ep_->Receive()) client_->HandleMessage(*msg);
}

FileMeta Cluster::Upload(std::uint64_t file_id,
                         std::span<const std::uint8_t> data) {
  DeliverQueued();
  FileMeta meta = client_->BeginUpload(file_id, data);
  const std::size_t n = cfg_.params.n;
  auto all_acked = [&] { return client_->UploadAcks(file_id) == n; };
  Deliver(all_acked);
  // Retry with backoff: one delivery per attempt (a full pump on the
  // sweep-synchronous fabric, up to a deadline on the wire), and each
  // attempt re-sends the cached payloads to unacked hosts only (storing
  // shares twice is idempotent).
  const std::size_t max_attempts = cfg_.params.t + 2;
  for (std::size_t a = 0; a < max_attempts && !all_acked(); ++a) {
    if (client_->RetryUpload(file_id) == 0) break;
    Deliver(all_acked);
  }
  client_->FinishUpload(file_id);
  // Crashed hosts cannot ack; they receive the file through recovery at
  // their next reboot. The upload stands as long as every reachable host
  // stored it and the missing set stays within the corruption bound.
  const std::size_t acks = client_->UploadAcks(file_id);
  Require(acks == n || (acks + cfg_.params.t >= n &&
                        acks >= hypervisor_->Survey().size()),
          "Cluster::Upload: not every reachable host acknowledged");
  return meta;
}

std::optional<Bytes> Cluster::DownloadAttempt(const ReadSpec& spec) {
  DeliverQueued();
  client_->BeginDownload(spec);
  std::optional<Bytes> data;
  auto assembled = [&] {
    if (!data) data = client_->TryAssemble(spec.file_id);
    return data.has_value();
  };
  Deliver(assembled);
  const std::size_t max_attempts = cfg_.params.t + 2;
  for (std::size_t a = 0; !assembled() && a < max_attempts; ++a) {
    client_->RetryDownload(spec);
    Deliver(assembled);
  }
  return data;
}

Bytes Cluster::Download(const ReadSpec& spec) {
  if (spec.policy.path == ReadPath::kStaircase) {
    try {
      if (auto data = DownloadAttempt(spec)) return std::move(*data);
    } catch (const ParseError& e) {
      // A stripe has no redundancy: any corrupted contribution surfaces as
      // a codec integrity failure here rather than a robust decode.
      LogWarn() << "Cluster: staircase reconstruct failed integrity ("
                << e.what() << ")";
    }
    Require(spec.policy.fallback == ReadFallback::kClassic,
            "Cluster::Download: staircase read failed (fallback disabled)");
    StaircaseFallbacks().Add(1);
    ReadSpec classic = ReadSpec::Classic(spec.file_id);
    classic.ordinal = spec.ordinal;
    auto data = DownloadAttempt(classic);
    Require(data.has_value(), "Cluster::Download: not enough responses");
    return std::move(*data);
  }
  auto data = DownloadAttempt(spec);
  Require(data.has_value(), "Cluster::Download: not enough responses");
  return std::move(*data);
}

void Cluster::Delete(std::uint64_t file_id) {
  Sim();
  client_->RequestDelete(file_id);
  sync_->RunToQuiescence();
  hypervisor_->ForgetFile(file_id);
}

WindowReport Cluster::RunUpdateWindow() { return hypervisor_->RunUpdateWindow(); }

bool Cluster::RefreshAllFiles() { return hypervisor_->RefreshAllFiles(); }

ReshareReport Cluster::Reshare(const pss::Params& to) {
  ReshareReport report;
  if (!hypervisor_->Reshare(to, &report)) {
    std::string detail = "Cluster::Reshare: migration failed";
    for (const std::string& f : report.failures) detail += "; " + f;
    throw Error(detail);
  }
  // The fleet has already adopted `to`; retarget everything fleet-shaped.
  cfg_.params = to;
  deployment_ = Deployment::SingleCloud(to.n);
  EnsureGlobalPoolThreads(to.b);
  client_->AdoptParams(to);
  return report;
}

void Cluster::ArmByzantine(const ByzantinePlan& plan) {
  // Disarm before replacing: hosts must never hold a pointer into an engine
  // that is about to be destroyed.
  DisarmByzantine();
  byzantine_ = std::make_unique<ByzantineEngine>(plan, *ctx_);
  // Cover every physical slot, not just the current n: after a shrink the
  // parked hosts outlive the group shape, and a later grow revives them --
  // they must never come back holding an actor from a destroyed engine.
  for (std::uint32_t i = 0; i < sim_->slots(); ++i) {
    sim_->host(i).ArmByzantine(byzantine_->ActorFor(i));
  }
}

void Cluster::DisarmByzantine() {
  SimFleet& fleet = Sim();
  for (std::uint32_t i = 0; i < fleet.slots(); ++i) {
    fleet.host(i).ArmByzantine(nullptr);
  }
  byzantine_.reset();
}

CostModel Cluster::cost_model() const {
  CostModel model;
  model.machine.instance = cfg_.instance;
  model.machine.build_machine_ecu = cfg_.build_machine_ecu;
  return model;
}

HostMetrics Cluster::TotalMetrics() const {
  return sim_ ? sim_->Metrics() : HostMetrics{};
}

void Cluster::ResetMetrics() {
  if (!sim_) return;
  for (std::uint32_t i = 0; i < sim_->slots(); ++i) {
    sim_->host(i).metrics().Reset();
  }
}

}  // namespace pisces
