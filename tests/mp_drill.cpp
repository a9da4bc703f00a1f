// Crash-restart drill for the process-per-host deployment (ctest -L
// mp_drill).
//
// The acceptance drill of docs/deployment.md: launch n=10 real host
// processes, upload a file, then SIGKILL t=2 of them mid-refresh-window.
// The window must still complete (quorum refresh with wedge-abort + retry);
// the supervisor must restart the dead processes; the hypervisor's restart
// schedule must put the fresh processes through the secure-reboot +
// share-recovery path inside that same window; and the file must download
// bit-identically afterwards. A second, undisturbed window then proves the
// cluster is fully healed, not limping.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
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

#ifndef PISCES_HOSTD_PATH
#error "build must define PISCES_HOSTD_PATH"
#endif

namespace {

using namespace pisces;

int Fail(const char* what) {
  std::printf("FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarn);

  MpConfig cfg;
  cfg.n = 10;
  cfg.t = 2;
  cfg.l = 2;
  cfg.r = 1;
  cfg.field_bits = 256;
  // Spread across runs to dodge TIME_WAIT collisions with other test
  // binaries (tests use 40000..60000; keep the 13-port block inside it).
  cfg.base_port = static_cast<std::uint16_t>(42000 + (::getpid() % 1500) * 12);
  cfg.seed = 20'170'605;  // ICDCS'17
  cfg.heartbeat_ms = 100;
  cfg.deadline_ms = 8000;
  cfg.restart_backoff_ms = 50;
  cfg.run_dir = "/tmp/pisces-mp-drill." + std::to_string(::getpid());
  cfg.hostd = PISCES_HOSTD_PATH;
  cfg.Validate();

  const std::string config_path = cfg.run_dir + "/deploy.conf";
  MpSupervisor supervisor(cfg, config_path);  // creates run_dir
  cfg.Save(config_path);
  supervisor.StartAll();

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
  if (hv.Survey().size() != cfg.n) return Fail("initial cluster bring-up");
  std::printf("drill: %u hosts booted (t=%u)\n", cfg.n, cfg.t);

  // Stock client over its own async endpoint.
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
  const Bytes file = file_rng.RandomBytes(6 * 1024 + 123);
  client.BeginUpload(1, file);
  if (!pump_client([&] { return client.UploadAcks(1) == cfg.n; }, 20'000)) {
    return Fail("upload not acknowledged by all hosts");
  }
  client.FinishUpload(1);
  std::printf("drill: uploaded %zu bytes\n", file.size());

  // THE DRILL: SIGKILL t hosts right after the refresh round is launched.
  const std::vector<std::uint32_t> victims = {1, 4};
  fleet.SetMidWindowHook([&] {
    for (std::uint32_t v : victims) {
      if (!supervisor.Signal(v, SIGKILL)) {
        std::printf("drill: WARNING victim %u was not running\n", v);
      }
    }
    std::printf("drill: SIGKILLed hosts 1 and 4 mid-window\n");
  });

  const WindowReport report = hv.RunUpdateWindow();
  std::printf("drill: window done: %s, %llu refresh retries, %zu reboots, "
              "%llu deadline expiries, %llu restarts\n",
              report.ok ? "ok" : "FAILED",
              static_cast<unsigned long long>(report.refresh_retries),
              report.reboots,
              static_cast<unsigned long long>(fleet.deadline_expiries()),
              static_cast<unsigned long long>(supervisor.restarts()));
  for (const std::string& f : report.failures) {
    std::printf("drill:   %s\n", f.c_str());
  }
  if (!report.ok) return Fail("disturbed window did not complete");
  if (supervisor.restarts() < victims.size()) {
    return Fail("supervisor did not restart the killed hosts");
  }

  // The window's schedule rebooted every host, the restarted victims
  // included: they must hold their recovered shares now.
  const auto view = hv.Survey();
  for (std::uint32_t v : victims) {
    if (view.count(v) == 0) return Fail("victim not back online");
    const std::vector<std::uint64_t>& held = view.at(v);
    if (std::find(held.begin(), held.end(), 1) == held.end()) {
      return Fail("victim lost the file's shares");
    }
  }
  std::printf("drill: victims rebooted and recovered their shares\n");

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
      20'000);
  if (!got) return Fail("download did not assemble");
  if (back != file) return Fail("download is not bit-identical");
  std::printf("drill: download bit-identical after crash-restart\n");

  // A clean window proves the cluster healed, not merely survived: it
  // completes, and reboots exactly the schedule -- every host once, none
  // deferred.
  const WindowReport calm = hv.RunUpdateWindow();
  if (!calm.ok) return Fail("post-recovery window failed");
  if (calm.reboots != cfg.n || calm.reboots_deferred != 0) {
    return Fail("post-recovery window did not run the plain schedule");
  }

  supervisor.StopAll();
  std::printf("PASS: crash-restart drill (n=%u, t=%u killed)\n", cfg.n,
              cfg.t);
  return 0;
}
