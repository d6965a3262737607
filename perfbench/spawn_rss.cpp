// spawn_rss — runs one command and reports its wall time, peak RSS and the
// moment it created its first file in a watched directory.
//
//   spawn_rss <report-file> <timeout-s> <watch-dir> <program> [args...]
//
// Writes `{"exit_code": C, "wall_s": W, "maxrss_kib": K, "timed_out": T,
// "first_create_s": F}` to <report-file>. F is the time from spawn to the
// first file created in <watch-dir> (-1 if none): for jwins_run with that
// directory as its scenario output, the opening of the first result file,
// so the time it spends writing results and exiting can be taken off its
// wall. A command still running after <timeout-s> seconds is killed and
// reported with timed_out = true. The command inherits stdin/stdout/stderr.
//
// A process's peak RSS counts the image it was spawned from (Linux folds the
// parent's high-water mark into the child's at exec), so a Python parent
// measuring its children directly would report its own ~14 MiB for every
// small run; this launcher's image is a couple of MiB, below any run's own
// peak.

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int die(const char* what) {
  std::perror(what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: spawn_rss <report-file> <timeout-s> <watch-dir> "
                 "<program> [args...]\n");
    return 2;
  }
  const double timeout_s = std::strtod(argv[2], nullptr);
  const int watch = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (watch < 0) return die("spawn_rss: inotify_init1");
  if (inotify_add_watch(watch, argv[3], IN_CREATE) < 0) {
    return die("spawn_rss: watch directory");
  }

  const auto start = Clock::now();
  pid_t pid = 0;
  if (posix_spawnp(&pid, argv[4], nullptr, nullptr, argv + 4, environ) != 0) {
    return die("spawn_rss: posix_spawnp");
  }
  const int exited = static_cast<int>(syscall(SYS_pidfd_open, pid, 0));
  if (exited < 0) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return die("spawn_rss: pidfd_open");
  }

  // Wait for the child's exit, stamping the first file creation on the way.
  double first_create = -1.0;
  bool timed_out = false;
  for (;;) {
    const double left = timeout_s - seconds_since(start);
    if (left <= 0.0) {
      kill(pid, SIGKILL);
      timed_out = true;
      break;
    }
    pollfd fds[2] = {{exited, POLLIN, 0}, {watch, POLLIN, 0}};
    const int ready = poll(fds, 2, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno != EINTR) return die("spawn_rss: poll");
    if (ready > 0 && (fds[1].revents & POLLIN) != 0) {
      if (first_create < 0.0) first_create = seconds_since(start);
      alignas(inotify_event) char events[4096];
      while (read(watch, events, sizeof events) > 0) {
      }
    }
    if (ready > 0 && (fds[0].revents & POLLIN) != 0) break;
  }

  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid) return die("spawn_rss: wait4");
  const double wall = seconds_since(start);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr) return die("spawn_rss: report file");
  std::fprintf(report,
               "{\"exit_code\": %d, \"wall_s\": %.9f, \"maxrss_kib\": %ld, "
               "\"timed_out\": %s, \"first_create_s\": %.9f}\n",
               code, wall, usage.ru_maxrss, timed_out ? "true" : "false",
               first_create);
  return std::fclose(report) == 0 ? 0 : 2;
}
