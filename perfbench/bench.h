// Shared pieces of the alcopd benchmark: the daemon host process,
// the load generator's record of every request, the correctness oracle
// and the traced per-layer replay.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logic.h"

namespace perfbench {

// A fresh alcopd (serving::Server, persistence off) in a child process of
// its own, so its peak RSS is the daemon's alone.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();  // kills and reaps a daemon that was not stopped
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Starts `self serve ...` and waits until it listens. False on failure.
  bool Start(const std::string& self, const std::string& socket_path,
             const std::string& access_log);
  // Asks the daemon to shut down and reaps it. False if it had to be
  // killed or exited non-zero.
  bool Stop();

  const std::string& socket_path() const { return socket_path_; }
  int http_port() const { return http_port_; }
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  int http_port_ = -1;
  double peak_rss_mb_ = 0.0;
};

// Runs the daemon in this process until a shutdown request arrives.
int ServeMain(int argc, char** argv);

// Where in a run a request was sent: set-up warm-up, the workload's main
// stream, or a side sample of a class the main stream lacks.
enum class Phase { kSetup, kMain, kSide };

// One request as the load generator saw it.
struct Sent {
  uint64_t id = 0;
  size_t request = 0;  // index into Run::requests
  Phase phase = Phase::kMain;
  int step = -1;       // open-loop step
  OpenLoopRecord times;  // closed loops: due == sent
  size_t response_bytes = 0;
  // Parsed answer (compile: timing fields; tune: best config + cycles).
  bool feasible = false;
  double cycles = 0.0, microseconds = 0.0, tflops = 0.0;
  int64_t tbs_per_sm = 0, batches = 0;
  std::string best_config;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string self;     // path of this binary (daemon host)
  std::string run_dir;  // scratch directory inside the checkout
};

// Everything one run measured, for the metrics, the oracle and the trace.
struct Run {
  std::vector<Request> requests;  // distinct requests, referenced by Sent
  std::vector<Sent> sent;
  std::vector<std::string> input_list;  // what the checksum covers
  std::vector<double> setup_s;          // one per set-up repetition
  double peak_rss_mb = 0.0;
  // Closed-loop hot probe latencies, by transport (0 unix, 1 HTTP).
  std::vector<double> hot_ms[2];
  // The same probes cut into short windows, summarised per window.
  struct HotWindow {
    double p50_ms = 0.0, p99_ms = 0.0, rps = 0.0;
  };
  std::vector<HotWindow> hot_windows;
  uint64_t hot_bytes = 0;
  std::vector<StepOutcome> steps;       // mixed_open steps
  std::vector<double> lag_ms;           // mixed_open generator lag
  std::vector<double> tune_s;           // closed-loop tune latencies
  double steal_frac = 0.0;  // host CPU stolen by other guests while timing
  std::array<double, 3> window_p99_quartiles{};
  std::map<std::string, double> daemon_metrics;  // scraped /metrics
  std::string access_log;               // path (traced runs)
  std::vector<double> ping_us;          // traced runs
};

// Drives one workload against fresh daemons; false on a set-up failure.
bool RunWorkload(const Options& options, Run* run);

// Checks every answer against the oracle (sim::InterpretKernel, and the
// functional executor for tuned configs); returns the number of answers
// that failed, marking them not ok.
uint64_t CheckAnswers(Run* run);

// The traced per-layer replay of the run's requests; returns the
// per-layer metrics by name.
std::map<std::string, double> TraceLayers(const Options& options,
                                          const Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
