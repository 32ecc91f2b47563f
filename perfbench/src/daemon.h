// The xpstreamd child process and what /proc says about it.
#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Owns one xpstreamd child. The destructor stops it (SIGTERM, then
/// SIGKILL after a grace period) and reaps it, so every exit path of the
/// benchmark leaves no daemon behind; the child also gets SIGTERM if
/// the benchmark itself dies.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Execs `exe --port 0 <flags>` and reads the bound port from its
  /// banner; false with `*error` set on failure (the child is reaped).
  bool Start(const std::string& exe, const std::vector<std::string>& flags,
             std::string* error);
  void Stop();
  /// False once the child has exited (it is then reaped).
  bool Alive();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// CPU time of every thread of `pid`, from /proc/<pid>/task/*/schedstat.
struct CpuSample {
  uint64_t total_ns = 0;
  std::vector<std::pair<int, uint64_t>> per_task;  // (tid, ns)
};
CpuSample SampleCpu(pid_t pid);

/// Largest per-thread CPU delta between two samples, in ns.
uint64_t BusiestTaskNs(const CpuSample& before, const CpuSample& after);

/// Voluntary context switches summed over the threads of `pid`.
uint64_t VoluntaryCtxsw(pid_t pid);

/// syscr + syscw from /proc/<pid>/io.
uint64_t Syscalls(pid_t pid);

/// VmHWM of `pid` in MB (10^6 bytes); 0 when unreadable.
double PeakRssMb(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
