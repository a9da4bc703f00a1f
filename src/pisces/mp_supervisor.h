// Child-process supervision for the process-per-host deployment.
//
// The launcher (pisces_mp) and the crash-restart drill both use this class to
// spawn one pisces_hostd per host, detect child death (waitpid WNOHANG --
// polled from the WireFleet's tick, so restarts happen while RPCs wait),
// and restart crashed hosts after a short backoff. A restarted process comes
// up with no key material; it announces itself to the hypervisor, whose
// restart schedule puts it through secure reboot + recovery -- the
// supervisor only manages processes, never protocol state.
//
// Runtime artifacts: each child's pid lands in run_dir/host<i>.pid and its
// stdout/stderr in run_dir/host<i>.log (append across restarts, so a crash
// loop is diagnosable from one file).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "pisces/mp_config.h"

namespace pisces {

class MpSupervisor {
 public:
  // `config_path` is handed to every child (--config); cfg.hostd names the
  // binary to exec. Creates run_dir if missing.
  MpSupervisor(MpConfig cfg, std::string config_path);
  ~MpSupervisor();

  MpSupervisor(const MpSupervisor&) = delete;
  MpSupervisor& operator=(const MpSupervisor&) = delete;

  void StartAll();
  void Start(std::uint32_t id);

  // Reaps exited children and restarts the ones past the restart backoff.
  // Cheap when nothing happened; safe to call from a WireFleet tick.
  // Returns the number of restarts performed by this call.
  std::uint32_t Poll();

  // Sends `sig` to a child (the drill's SIGKILL). False if not running.
  bool Signal(std::uint32_t id, int sig);

  // SIGTERM all children, then reap them (SIGKILL stragglers).
  void StopAll();

  std::uint64_t restarts() const { return restarts_; }

 private:
  void Spawn(std::uint32_t id);

  MpConfig cfg_;
  std::string config_path_;
  struct Child {
    pid_t pid = -1;
    bool want = false;           // should be running (restart on death)
    std::uint64_t died_at_ms = 0;  // 0 = alive or never started
  };
  std::vector<Child> children_;
  std::uint64_t restarts_ = 0;
};

}  // namespace pisces
