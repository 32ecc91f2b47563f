#include "daemon.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The number after `key` in a "key: value" /proc file.
uint64_t Field(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

std::vector<int> Tasks(pid_t pid) {
  std::vector<int> tids;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return tids;
  while (dirent* entry = ::readdir(d)) {
    if (entry->d_name[0] != '.') tids.push_back(std::atoi(entry->d_name));
  }
  ::closedir(d);
  return tids;
}

}  // namespace

bool Daemon::Start(const std::string& exe, const std::vector<std::string>& flags,
                   std::string* error) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  std::vector<std::string> args = {exe, "--port", "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = "fork failed";
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);  // the parent already died
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  // Banner: "xpstreamd listening on 127.0.0.1:<port> (...)".
  std::string banner;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (banner.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{out_fd_, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      *error = "no banner from " + exe;
      Stop();
      return false;
    }
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) {
      *error = "xpstreamd exited before its banner: " + exe;
      Stop();
      return false;
    }
    banner.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = banner.find("127.0.0.1:");
  if (colon == std::string::npos) {
    *error = "unexpected banner: " + banner;
    Stop();
    return false;
  }
  port_ = static_cast<uint16_t>(std::atoi(banner.c_str() + colon + 10));
  return port_ != 0;
}

void Daemon::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {  // up to 5 s of grace
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

bool Daemon::Alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    return false;
  }
  return true;
}

CpuSample SampleCpu(pid_t pid) {
  CpuSample sample;
  for (int tid : Tasks(pid)) {
    const std::string text = ReadFile("/proc/" + std::to_string(pid) + "/task/" +
                                      std::to_string(tid) + "/schedstat");
    const uint64_t ns = std::strtoull(text.c_str(), nullptr, 10);
    sample.per_task.emplace_back(tid, ns);
    sample.total_ns += ns;
  }
  return sample;
}

uint64_t BusiestTaskNs(const CpuSample& before, const CpuSample& after) {
  uint64_t busiest = 0;
  for (const auto& [tid, ns] : after.per_task) {
    uint64_t base = 0;
    for (const auto& [t0, ns0] : before.per_task) {
      if (t0 == tid) base = ns0;
    }
    busiest = std::max(busiest, ns - std::min(ns, base));
  }
  return busiest;
}

uint64_t VoluntaryCtxsw(pid_t pid) {
  uint64_t total = 0;
  for (int tid : Tasks(pid)) {
    total += Field(ReadFile("/proc/" + std::to_string(pid) + "/task/" +
                            std::to_string(tid) + "/status"),
                   "\nvoluntary_ctxt_switches:");
  }
  return total;
}

uint64_t Syscalls(pid_t pid) {
  const std::string text = ReadFile("/proc/" + std::to_string(pid) + "/io");
  return Field(text, "syscr:") + Field(text, "syscw:");
}

double PeakRssMb(pid_t pid) {
  const std::string text = ReadFile("/proc/" + std::to_string(pid) + "/status");
  return static_cast<double>(Field(text, "VmHWM:")) * 1024.0 / 1e6;
}

}  // namespace perfbench
