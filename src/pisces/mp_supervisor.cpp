#include "pisces/mp_supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

#include "common/clock.h"
#include "common/error.h"
#include "common/log.h"

namespace pisces {

namespace {

std::uint64_t NowMs() { return MonotonicNanos() / 1'000'000; }

// waitpid with EINTR retry (a signal mid-reap must not lose the child).
pid_t WaitPidRetry(pid_t pid, int* status, int options) {
  for (;;) {
    const pid_t r = ::waitpid(pid, status, options);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

}  // namespace

MpSupervisor::MpSupervisor(MpConfig cfg, std::string config_path)
    : cfg_(std::move(cfg)), config_path_(std::move(config_path)) {
  Require(!cfg_.hostd.empty(), "MpSupervisor: cfg.hostd must name the binary");
  children_.resize(cfg_.n);
  if (::mkdir(cfg_.run_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw Error("MpSupervisor: cannot create run_dir " + cfg_.run_dir);
  }
}

MpSupervisor::~MpSupervisor() {
  try {
    StopAll();
  } catch (...) {
    // Destructor: best effort; leaked children die with the test harness.
  }
}

void MpSupervisor::StartAll() {
  for (std::uint32_t id = 0; id < cfg_.n; ++id) Start(id);
}

void MpSupervisor::Start(std::uint32_t id) {
  Require(id < cfg_.n, "MpSupervisor: host id out of range");
  Child& c = children_[id];
  c.want = true;
  if (c.pid > 0) return;  // already running
  Spawn(id);
}

void MpSupervisor::Spawn(std::uint32_t id) {
  const std::string log_path = cfg_.LogPath(id);
  const std::string id_str = std::to_string(id);

  const pid_t pid = ::fork();
  Require(pid >= 0, "MpSupervisor: fork failed");
  if (pid == 0) {
    // Child. Only async-signal-safe calls until execv. Logs append across
    // restarts so a crash loop reads as one file.
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      if (log_fd > STDERR_FILENO) ::close(log_fd);
    }
    const char* argv[] = {cfg_.hostd.c_str(),       "--config",
                          config_path_.c_str(),     "--id",
                          id_str.c_str(),           nullptr};
    ::execv(cfg_.hostd.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);  // exec failed; _exit, never unwind the parent's state
  }

  Child& c = children_[id];
  c.pid = pid;
  c.died_at_ms = 0;
  std::ofstream(cfg_.PidPath(id), std::ios::trunc) << pid << "\n";
}

std::uint32_t MpSupervisor::Poll() {
  // Reap everything that exited.
  for (;;) {
    int status = 0;
    const pid_t pid = WaitPidRetry(-1, &status, WNOHANG);
    if (pid <= 0) break;
    for (std::uint32_t id = 0; id < cfg_.n; ++id) {
      Child& c = children_[id];
      if (c.pid != pid) continue;
      c.pid = -1;
      c.died_at_ms = NowMs();
      if (c.want) {
        LogWarn() << "supervisor: host " << id << " died ("
                  << (WIFSIGNALED(status) ? "signal" : "exit") << " "
                  << (WIFSIGNALED(status) ? WTERMSIG(status)
                                          : WEXITSTATUS(status))
                  << "); restart pending";
      }
      break;
    }
  }
  // Restart crashed children past the backoff.
  std::uint32_t restarted = 0;
  const std::uint64_t now = NowMs();
  for (std::uint32_t id = 0; id < cfg_.n; ++id) {
    Child& c = children_[id];
    if (c.pid > 0 || !c.want || c.died_at_ms == 0) continue;
    if (now - c.died_at_ms < cfg_.restart_backoff_ms) continue;
    Spawn(id);
    ++restarts_;
    ++restarted;
  }
  return restarted;
}

bool MpSupervisor::Signal(std::uint32_t id, int sig) {
  Require(id < cfg_.n, "MpSupervisor: host id out of range");
  const Child& c = children_[id];
  if (c.pid <= 0) return false;
  return ::kill(c.pid, sig) == 0;
}

void MpSupervisor::StopAll() {
  for (auto& c : children_) {
    c.want = false;
    if (c.pid > 0) ::kill(c.pid, SIGTERM);
  }
  const std::uint64_t deadline = NowMs() + 2000;
  for (auto& c : children_) {
    if (c.pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t r = WaitPidRetry(c.pid, &status, WNOHANG);
      if (r == c.pid || (r < 0 && errno == ECHILD)) break;
      if (NowMs() >= deadline) {
        ::kill(c.pid, SIGKILL);
        WaitPidRetry(c.pid, &status, 0);
        break;
      }
      ::usleep(10'000);
    }
    c.pid = -1;
  }
}

}  // namespace pisces
