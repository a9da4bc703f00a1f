// PiSCES over real TCP in one process, on the deployment code path
// (docs/deployment.md) with threads standing in for host processes.
//
// Each of the n hosts is a HostProcess -- the Host + AsyncTcpEndpoint wrapper
// that pisces_hostd runs -- serving on its own thread. A wire Cluster drives
// them: its Hypervisor over a WireFleet and its stock Client each talk over
// their own async endpoint on loopback, through the same Upload, Download
// and RunUpdateWindow an in-process Cluster runs.
//
// The run boots the fleet, uploads a file, and runs one proactive window
// (refresh, then the restart schedule reboots every host). Then host 0
// "crashes": its thread stops and a fresh HostProcess, holding no key
// material, takes over the same port and announces itself. The next window
// refreshes without it and its scheduled reboot puts it through secure
// reboot (fresh CA-signed keys for a new epoch) and share recovery; the file
// downloads bit-exactly.
//
//   $ ./tcp_cluster [base_port]
//
// With no argument the base port is derived from the pid, so parallel runs
// do not collide. Hosts listen on base_port + i, the hypervisor on
// base_port + n, the client on base_port + n + 1.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "pisces/cluster.h"
#include "pisces/host_process.h"

namespace {

using namespace pisces;

// One host "process": a HostProcess serving on its own thread. A fatal
// error ends only that host, as it would end only that pisces_hostd; the
// hypervisor then sees a dead host.
class HostThread {
 public:
  HostThread(const MpConfig& cfg, std::uint32_t id)
      : process_(std::make_unique<HostProcess>(cfg, id)),
        thread_([p = process_.get(), id] {
          try {
            p->Serve();
          } catch (const Error& e) {
            LogError() << "host " << id << ": fatal: " << e.what();
          }
        }) {}
  ~HostThread() {
    process_->Stop();
    thread_.join();
  }
  HostThread(const HostThread&) = delete;
  HostThread& operator=(const HostThread&) = delete;

 private:
  std::unique_ptr<HostProcess> process_;
  std::thread thread_;
};

int Fail(const char* what) {
  std::printf("FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarn);

  MpConfig cfg;
  cfg.n = 7;
  cfg.t = 1;
  cfg.l = 2;  // d = 3
  cfg.r = 1;
  cfg.field_bits = 256;
  // Above the default Linux ephemeral range (32768..60999), so listeners
  // never race outgoing connections for a port; 9 ports per pid slot.
  cfg.base_port =
      argc > 1 ? static_cast<std::uint16_t>(std::atoi(argv[1]))
               : static_cast<std::uint16_t>(61000 + (::getpid() % 500) * 9);
  cfg.seed = 1234;
  cfg.Validate();

  std::printf("PiSCES over TCP: %u hosts on 127.0.0.1:%u..%u\n", cfg.n,
              cfg.base_port, cfg.ClientPort());

  std::vector<std::unique_ptr<HostThread>> hosts;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    hosts.push_back(std::make_unique<HostThread>(cfg, i));
  }

  try {
    Cluster cluster(cfg);
    if (cluster.hypervisor().Survey().size() != cfg.n) {
      return Fail("cluster bring-up");
    }
    std::printf("booted %u hosts with CA-signed keys\n", cfg.n);

    // 1. Upload. Windows learn the file from the hosts' own reports.
    Rng file_rng(5);
    const Bytes file = file_rng.RandomBytes(6 * 1024);
    cluster.Upload(1, file);
    if (cluster.client().UploadAcks(1) != cfg.n) {
      return Fail("upload not acknowledged by all hosts");
    }
    std::printf("uploaded %zu bytes to %u hosts over TCP\n", file.size(),
                cfg.n);

    // 2. One proactive window: rerandomize every share, reboot every host.
    const WindowReport first = cluster.RunUpdateWindow();
    if (!first.ok) return Fail("proactive window");
    std::printf("rerandomization and %zu secure reboots complete\n",
                first.reboots);

    // 3. Crash host 0; a fresh, keyless process takes over its port.
    hosts[0].reset();
    hosts[0] = std::make_unique<HostThread>(cfg, 0);
    const WindowReport second = cluster.RunUpdateWindow();
    const auto view = cluster.hypervisor().Survey();
    const bool recovered = second.ok && second.reboots == cfg.n &&
                           view.count(0) != 0 &&
                           view.at(0) == std::vector<std::uint64_t>{1};
    std::printf("host 0 rebooted and recovered its shares: %s\n",
                recovered ? "yes" : "NO");

    // 4. Download and verify; the client installs host 0's new cert from
    // its reboot batch's cert snapshot before sealing the requests.
    const bool exact = cluster.Download(ReadSpec::Classic(1)) == file;
    std::printf("download over TCP: %s\n", exact ? "bit-exact" : "FAILED");
    return recovered && exact ? 0 : 1;
  } catch (const Error& e) {
    return Fail(e.what());
  }
}
