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
#include <cstdio>
#include <memory>
#include <string>

#include "common/log.h"
#include "common/rng.h"
#include "pisces/cluster.h"
#include "pisces/mp_supervisor.h"
#include "test_ports.h"

#ifndef PISCES_HOSTD_PATH
#error "build must define PISCES_HOSTD_PATH"
#endif

namespace {

using namespace pisces;

int Fail(const char* what) {
  std::printf("FAILED: %s\n", what);
  return 1;
}

int Drill() {
  MpConfig cfg;
  cfg.n = 10;
  cfg.t = 2;
  cfg.l = 2;
  cfg.r = 1;
  cfg.field_bits = 256;
  cfg.base_port = test::BasePort(test::PortSuite::kMpDrill);
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

  Cluster cluster(cfg, [&supervisor] { supervisor.Poll(); });
  if (cluster.hypervisor().Survey().size() != cfg.n) {
    return Fail("initial cluster bring-up");
  }
  std::printf("drill: %u hosts booted (t=%u)\n", cfg.n, cfg.t);
  WireFleet& fleet = cluster.wire_fleet();

  Rng file_rng(cfg.seed + 55);
  const Bytes file = file_rng.RandomBytes(6 * 1024 + 123);
  cluster.Upload(1, file);
  if (cluster.client().UploadAcks(1) != cfg.n) {
    return Fail("upload not acknowledged by all hosts");
  }
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

  const WindowReport report = cluster.RunUpdateWindow();
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
  const auto view = cluster.hypervisor().Survey();
  for (std::uint32_t v : victims) {
    if (view.count(v) == 0) return Fail("victim not back online");
    const std::vector<std::uint64_t>& held = view.at(v);
    if (std::find(held.begin(), held.end(), 1) == held.end()) {
      return Fail("victim lost the file's shares");
    }
  }
  std::printf("drill: victims rebooted and recovered their shares\n");

  // Every host is healed, so the first requests suffice: a download that
  // re-asks hosts is the request storm of a retry fired before any reply.
  const std::uint64_t retries = cluster.client().retries();
  const Bytes back = cluster.Download(ReadSpec::Classic(1));
  if (cluster.client().retries() != retries) {
    return Fail("download re-asked hosts with all of them healed");
  }
  if (back != file) return Fail("download is not bit-identical");
  std::printf("drill: download bit-identical after crash-restart\n");

  // A clean window proves the cluster healed, not merely survived: it
  // completes, and reboots exactly the schedule -- every host once, none
  // deferred.
  const WindowReport calm = cluster.RunUpdateWindow();
  if (!calm.ok) return Fail("post-recovery window failed");
  if (calm.reboots != cfg.n || calm.reboots_deferred != 0) {
    return Fail("post-recovery window did not run the plain schedule");
  }

  supervisor.StopAll();
  std::printf("PASS: crash-restart drill (n=%u, t=%u killed)\n", cfg.n,
              cfg.t);
  return 0;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarn);
  try {
    return Drill();
  } catch (const Error& e) {
    return Fail(e.what());
  }
}
