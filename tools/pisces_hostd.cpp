// pisces_hostd: one storage host as an operating-system process.
//
//   $ pisces_hostd --config <deployment.conf> --id <host id>
//
// Listens on its configured loopback port, announces itself to the
// hypervisor, and serves forever: boot material arrives over the wire
// (kBootHost), protocol traffic goes to the Host state machine, and the
// process dies only by signal -- a SIGKILL here is the crash the
// supervisor's restart path and the hypervisor's secure-reboot path exist
// for (tests/mp_drill.cpp).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.h"
#include "pisces/host_process.h"

int main(int argc, char** argv) {
  std::string config_path;
  long id = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--config") == 0) {
      config_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--id") == 0) {
      id = std::atol(argv[i + 1]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (config_path.empty() || id < 0) {
    std::fprintf(stderr, "usage: pisces_hostd --config <file> --id <host>\n");
    return 2;
  }
  pisces::SetLogLevel(pisces::LogLevel::kWarn);
  return pisces::RunHostProcess(config_path,
                                static_cast<std::uint32_t>(id));
}
