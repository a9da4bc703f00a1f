// pisces_mp: launcher/supervisor for a process-per-host PiSCES deployment.
//
//   $ pisces_mp --config <deployment.conf> [--windows N]
//
// Reads the deployment config, spawns one pisces_hostd per host (restarting
// any that crash), and drives the fleet through a wire Cluster -- the same
// Upload, RunUpdateWindow and Download an in-process Cluster runs, with the
// supervisor polled inside every wait. It boots the cluster, uploads a demo
// file, runs N proactive update windows (refresh, then the restart
// schedule's secure reboots with share recovery, r hosts per batch -- a
// crash-restarted host is healed at its scheduled reboot), and verifies a
// bit-exact download before shutting the fleet down. Exit status 0 means
// every step held.
//
// The hostd binary is named by the config's `hostd` key; when absent the
// launcher assumes it sits next to this binary.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/log.h"
#include "common/rng.h"
#include "pisces/cluster.h"
#include "pisces/mp_supervisor.h"

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

  try {
    Cluster cluster(cfg, [&supervisor] { supervisor.Poll(); });
    if (cluster.hypervisor().Survey().size() != cfg.n) {
      std::printf("FAILED: cluster bring-up\n");
      return 1;
    }
    std::printf("cluster booted (%u hosts)\n", cfg.n);

    Rng file_rng(cfg.seed + 55);
    const Bytes file = file_rng.RandomBytes(8 * 1024);
    cluster.Upload(1, file);
    if (cluster.client().UploadAcks(1) != cfg.n) {
      std::printf("FAILED: upload not acknowledged by all hosts\n");
      return 1;
    }
    std::printf("uploaded %zu bytes to %u hosts\n", file.size(), cfg.n);

    for (int w = 0; w < windows; ++w) {
      const WindowReport report = cluster.RunUpdateWindow();
      std::printf("window %d: %s (%llu refresh retries), %zu reboots, "
                  "%zu deferred, %llu deadline expiries\n",
                  w, report.ok ? "ok" : "FAILED",
                  static_cast<unsigned long long>(report.refresh_retries),
                  report.reboots, report.reboots_deferred,
                  static_cast<unsigned long long>(
                      cluster.wire_fleet().deadline_expiries()));
      for (const std::string& f : report.failures) {
        std::printf("  %s\n", f.c_str());
      }
      if (!report.ok) return 1;
    }

    const bool exact = cluster.Download(ReadSpec::Classic(1)) == file;
    std::printf("download: %s\n", exact ? "bit-exact" : "FAILED");
    supervisor.StopAll();
    return exact ? 0 : 1;
  } catch (const Error& e) {
    std::printf("FAILED: %s\n", e.what());
    return 1;
  }
}
