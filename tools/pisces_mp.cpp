// pisces_mp: launcher/supervisor for a process-per-host PiSCES deployment.
//
//   $ pisces_mp --config <deployment.conf> [--windows N]
//
// Reads the deployment config, spawns one pisces_hostd per host (restarting
// any that crash), and embeds the hypervisor over a WireFleet: it boots the
// cluster, uploads a demo file through the stock client, runs N proactive
// update windows (refresh, then the restart schedule's secure reboots with
// share recovery, r hosts per batch -- a crash-restarted host is healed at
// its scheduled reboot), and verifies a bit-exact download before shutting
// the fleet down. Exit status 0 means every step held.
//
// The hostd binary is named by the config's `hostd` key; when absent the
// launcher assumes it sits next to this binary.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/log.h"
#include "common/rng.h"
#include "field/primes.h"
#include "net/async_tcp.h"
#include "pisces/client.h"
#include "pisces/hypervisor.h"
#include "pisces/mp_config.h"
#include "pisces/mp_supervisor.h"
#include "pisces/wire_fleet.h"

namespace {

using namespace pisces;

std::string SelfDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  int windows = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--config") == 0) {
      config_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--windows") == 0) {
      windows = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (config_path.empty()) {
    std::fprintf(stderr, "usage: pisces_mp --config <file> [--windows N]\n");
    return 2;
  }
  SetLogLevel(LogLevel::kWarn);

  MpConfig cfg = MpConfig::Load(config_path);
  if (cfg.hostd.empty()) cfg.hostd = SelfDir() + "/pisces_hostd";

  MpSupervisor supervisor(cfg, config_path);
  supervisor.StartAll();
  std::printf("pisces_mp: %u hosts on 127.0.0.1:%u..%u, run dir %s\n", cfg.n,
              cfg.base_port, cfg.base_port + cfg.n + 1, cfg.run_dir.c_str());

  net::AsyncTcpOptions hopts;
  hopts.id = net::kHypervisorId;
  hopts.listen_port = cfg.HypervisorPort();
  hopts.seed = cfg.seed ^ 0x51;
  hopts.heartbeat_interval_ms = cfg.heartbeat_ms;
  net::AsyncTcpEndpoint hyper_ep(hopts);
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    hyper_ep.AddPeer(i, cfg.HostPort(i));
  }
  hyper_ep.AddPeer(net::kClientId, cfg.ClientPort());

  auto owned_fleet = std::make_unique<WireFleet>(cfg, hyper_ep);
  WireFleet& fleet = *owned_fleet;
  fleet.SetTick([&supervisor] { supervisor.Poll(); });
  const auto ctx = std::make_shared<const field::FpCtx>(
      field::StandardPrimeBe(cfg.field_bits));
  HypervisorConfig hc;
  hc.params = cfg.ToParams();
  hc.ctx = ctx;
  hc.seed = cfg.seed;
  Hypervisor hv(hc, std::move(owned_fleet), crypto::SchnorrGroup::Default());

  auto [client_cert, client_sk] = hv.EnrollExternal(net::kClientId);
  if (hv.Survey().size() != cfg.n) {
    std::printf("FAILED: cluster bring-up\n");
    return 1;
  }
  std::printf("cluster booted (%u hosts)\n", cfg.n);

  // Stock client over its own endpoint.
  net::AsyncTcpOptions copts;
  copts.id = net::kClientId;
  copts.listen_port = cfg.ClientPort();
  copts.seed = cfg.seed ^ 0x52;
  copts.heartbeat_interval_ms = cfg.heartbeat_ms;
  net::AsyncTcpEndpoint client_ep(copts);
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    client_ep.AddPeer(i, cfg.HostPort(i));
  }
  client_ep.AddPeer(net::kHypervisorId, cfg.HypervisorPort());

  ClientConfig cc;
  cc.params = hv.params();
  cc.ctx = ctx;
  cc.encrypt_links = cfg.encrypt;
  Client client(cc, client_ep, crypto::SchnorrGroup::Default(),
                hv.ca_public_key(), client_cert, client_sk);
  for (const auto& [id, cert] : hv.directory()) {
    if (id != net::kClientId) client.InstallPeerCert(cert);
  }

  auto pump_client = [&](auto done, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    bool ok = done();
    while (!ok && std::chrono::steady_clock::now() < deadline) {
      auto msg = client_ep.ReceiveWait(50);
      if (msg) client.HandleMessage(*msg);
      supervisor.Poll();
      ok = done();
    }
    return ok;
  };

  Rng file_rng(cfg.seed + 55);
  const Bytes file = file_rng.RandomBytes(8 * 1024);
  client.BeginUpload(1, file);
  if (!pump_client([&] { return client.UploadAcks(1) == cfg.n; }, 15000)) {
    std::printf("FAILED: upload not acknowledged by all hosts\n");
    return 1;
  }
  client.FinishUpload(1);
  std::printf("uploaded %zu bytes to %u hosts\n", file.size(), cfg.n);

  for (int w = 0; w < windows; ++w) {
    const WindowReport report = hv.RunUpdateWindow();
    std::printf("window %d: %s (%llu refresh retries), %zu reboots, "
                "%zu deferred, %llu deadline expiries\n",
                w, report.ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(report.refresh_retries),
                report.reboots, report.reboots_deferred,
                static_cast<unsigned long long>(fleet.deadline_expiries()));
    for (const std::string& f : report.failures) {
      std::printf("  %s\n", f.c_str());
    }
    if (!report.ok) return 1;
  }

  client.BeginDownload(pisces::ReadSpec::Classic(1));
  Bytes back;
  const bool got = pump_client(
      [&] {
        if (client.ResponsesFor(1) < cc.params.degree() + 1) {
          client.RetryDownload(pisces::ReadSpec::Classic(1));
          return false;
        }
        auto data = client.TryAssemble(1);
        if (!data) return false;
        back = *data;
        return true;
      },
      15000);
  std::printf("download: %s\n",
              (got && back == file) ? "bit-exact" : "FAILED");

  supervisor.StopAll();
  return (got && back == file) ? 0 : 1;
}
