// The alcopd benchmark.
//
//   perfbench --workload hot_probe|tune|mixed_open --seed N --seconds S
//             --trace 0|1 [--run-dir DIR] [--git-sha SHA] [--source-sha SHA]
//   perfbench serve ...   (the daemon host this program forks; internal)
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Writes the
// full record (machine, inputs checksum, open-loop steps) to
// <run-dir>/result-<workload>-<seed>-trace<t>.json. Exits 1 when any
// answer disagrees with the oracle.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics of BENCHMARK.json (hot_probe and tune).
const MetricSpec kEndToEnd[] = {
    {"hot_p50_ms", "ms"},         {"hot_p99_ms", "ms"},
    {"hot_rps", "req/s"},         {"cold_p50_ms", "ms"},
    {"cold_p90_ms", "ms"},        {"tune_p50_s", "s"},
    {"tuned_tflops_geomean", "TFLOPS"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
};

// mixed_open is not in BENCHMARK.json (its open-loop figures are not
// steady enough to gate, README.md); it prints these.
const MetricSpec kOpenLoop[] = {
    {"hot_p50_ms", "ms"},         {"hot_p99_ms", "ms"},
    {"cold_p50_ms", "ms"},        {"cold_p90_ms", "ms"},
    {"max_rps_within_slo", "req/s"}, {"loadgen.lag_p99_ms", "ms"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"serving.ping_p50_us", "us"},
    {"serving.unix_hot_p50_us", "us"},
    {"serving.http_hot_p50_us", "us"},
    {"serving.queue_wait_fast_p99_us", "us"},
    {"serving.queue_wait_slow_p90_us", "us"},
    {"serving.service_slow_p50_us", "us"},
    {"serving.slow_batch_size_mean", "count"},
    {"serving.fast_lane_fallback", "count"},
    {"protocol.parse_us", "us"},
    {"protocol.response_bytes_mean", "bytes"},
    {"sim_cache.key_us", "us"},
    {"sim_cache.probe_us", "us"},
    {"sim_cache.timing_hit_rate", "fraction"},
    {"sim_cache.program_hit_rate", "fraction"},
    {"sim_cache.resident_mb", "MB"},
    {"sim_cache.evictions", "count"},
    {"sim.skeleton_mb", "MB"},
    {"sim.skeleton_share_rate", "fraction"},
    {"pipeline.detect_us", "us"},
    {"schedule.lower_us", "us"},
    {"pipeline.transform_us", "us"},
    {"sim.phase1_us", "us"},
    {"sim.phase1_ns_per_kelem", "ns/kelem"},
    {"sim.phase2_us", "us"},
    {"sim.phase2_ns_per_kelem", "ns/kelem"},
    {"sim.microops_per_program", "count"},
    {"tuner.space_ms", "ms"},
    {"tuner.warmstart_ms", "ms"},
    {"tuner.measure_s", "s"},
    {"tuner.measure_calls", "count"},
    {"tuner.infeasible_frac", "fraction"},
    {"tuner.model_s", "s"},
    {"perfmodel.predict_us", "us"},
    {"tuner.best_trial_frac", "fraction"},
    {"trace.coverage", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

constexpr double kMaxStealFrac = 0.05;

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double ClosedLatencyMs(const Sent& sent) {
  if (!sent.times.ok || sent.times.done_ns < 0) return INFINITY;
  return static_cast<double>(sent.times.done_ns - sent.times.sent_ns) / 1e6;
}

// The end-to-end metrics; where each comes from per workload is listed in
// README.md.
std::map<std::string, double> EndToEnd(const Options& options, Run* run,
                                       std::map<std::string, size_t>* samples) {
  bool mixed = options.workload == "mixed_open";
  std::vector<double> cold, tune_s, tflops;
  size_t tunes_seen = 0;
  for (const Sent& sent : run->sent) {
    Kind kind = run->requests[sent.request].kind;
    if (sent.step >= 0) {
      StepOutcome& step = run->steps[static_cast<size_t>(sent.step)];
      double ms = LatencyFromDueMs(sent.times);
      if (kind == Kind::kHot) step.hot_ms.push_back(ms);
      if (kind == Kind::kCold) step.cold_ms.push_back(ms);
    }
    // The open loop's own tunes are load, not the tune metrics' sample.
    if (kind == Kind::kTune && sent.step < 0) {
      tune_s.push_back(ClosedLatencyMs(sent) / 1e3);
      // tune: the geomean covers the 12 Fig. 10 operators it starts with.
      if (sent.times.ok && sent.tflops > 0.0 &&
          (options.workload != "tune" || tunes_seen < 12)) {
        tflops.push_back(sent.tflops);
      }
      ++tunes_seen;
    }
    // Closed-loop compiles of never-seen shapes (side samples).
    if (kind == Kind::kCold && sent.step < 0) {
      cold.push_back(ClosedLatencyMs(sent));
    }
  }
  std::vector<double> window_p50, window_p99, window_rps;
  for (const Run::HotWindow& w : run->hot_windows) {
    window_p50.push_back(w.p50_ms);
    window_p99.push_back(w.p99_ms);
    window_rps.push_back(w.rps);
  }
  (*samples)["hot_windows"] = run->hot_windows.size();
  (*samples)["tunes"] = tune_s.size();
  run->tune_s = tune_s;
  std::map<std::string, double> m;
  // Closed-loop hot figures come from 50 ms windows (over a thousand
  // probes each): the median over windows of each window's p50, p99 and
  // completion rate. Other guests on a shared host take the CPU in
  // episodes of seconds; the median leaves a minority of disturbed windows
  // out but keeps any tail the daemon shows in most windows.
  m["hot_p50_ms"] = Median(window_p50);
  m["hot_p99_ms"] = Median(window_p99);
  m["hot_rps"] = Median(window_rps);
  run->window_p99_quartiles = {Quantile(window_p99, 0.25),
                               Quantile(window_p99, 0.5),
                               Quantile(window_p99, 0.75)};
  if (mixed && !run->steps.empty()) {
    // mixed_open: latency from due time in the open loop's measured step.
    const StepOutcome& measured = run->steps[0];
    m["hot_p50_ms"] = Quantile(measured.hot_ms, 0.5);
    m["hot_p99_ms"] = Quantile(measured.hot_ms, 0.99);
    cold = measured.cold_ms;
    m["max_rps_within_slo"] = MaxRpsWithinSlo(run->steps, SloLimits{});
    m["loadgen.lag_p99_ms"] = Quantile(run->lag_ms, 0.99);
  }
  (*samples)["cold"] = cold.size();
  m["cold_p50_ms"] = Quantile(cold, 0.5);
  m["cold_p90_ms"] = Quantile(cold, 0.9);
  m["tune_p50_s"] = Quantile(tune_s, 0.5);
  m["tuned_tflops_geomean"] = GeoMean(tflops);
  m["setup_s"] = Median(run->setup_s);
  m["peak_rss_mb"] = run->peak_rss_mb;
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hot_probe|tune|mixed_open --seed N "
               "--seconds S --trace 0|1 [--run-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces) - benchmark main
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return ServeMain(argc, argv);
  }
  ::signal(SIGPIPE, SIG_IGN);  // a daemon that dies is a failed answer
  Options options;
  options.run_dir = ".bench_build/run";
  std::string git_sha = "unknown", source_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-sha") {
      source_sha = value;
    } else {
      return Usage();
    }
  }
  if ((options.workload != "hot_probe" && options.workload != "tune" &&
       options.workload != "mixed_open") ||
      !(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return Usage();
  }
  char self[4096];
  ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) return 1;
  self[len] = '\0';
  options.self = self;

  auto run = std::make_unique<Run>();
  std::string tag = options.workload + "-" + std::to_string(options.seed) +
                    "-trace" + (options.trace ? "1" : "0");
  if (options.trace) {
    run->access_log = options.run_dir + "/access-" + tag + ".jsonl";
    std::remove(run->access_log.c_str());
  }
  // A run during which the hypervisor gave more than kMaxStealFrac of the
  // CPU to other guests measured the host as much as the daemon (at 13%
  // steal the hot rate halved and the hot p99 grew 8x): it is repeated
  // once from fresh daemons and the attempt with less steal is reported.
  // Every attempt's answers are checked and counted.
  uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::vector<double> attempt_steal;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto next = attempt == 0 ? std::move(run) : std::make_unique<Run>();
    if (!RunWorkload(options, next.get())) {
      std::fprintf(stderr, "perfbench: the daemon failed to start or stop\n");
      return 1;
    }
    mismatches += CheckAnswers(next.get());
    attempted += next->sent.size();
    for (const Sent& sent : next->sent) failed += sent.times.ok ? 0 : 1;
    attempt_steal.push_back(next->steal_frac);
    if (run == nullptr || next->steal_frac < run->steal_frac) {
      run = std::move(next);
    }
    if (options.trace || run->steal_frac <= kMaxStealFrac) break;
  }
  Run& measured = *run;

  std::map<std::string, size_t> samples;
  std::map<std::string, double> e2e = EndToEnd(options, &measured, &samples);
  std::map<std::string, double> layers;
  if (options.trace) layers = TraceLayers(options, measured);

  // Human summary.
  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d: %llu attempted, "
               "%llu failed (%llu oracle mismatches)\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(mismatches));
  double error_rate = attempted == 0 ? 1.0
                                     : static_cast<double>(failed) /
                                           static_cast<double>(attempted);
  std::vector<MetricSpec> end_to_end(std::begin(kEndToEnd),
                                     std::end(kEndToEnd));
  if (options.workload == "mixed_open") {
    end_to_end.assign(std::begin(kOpenLoop), std::end(kOpenLoop));
  }
  for (const MetricSpec& spec : end_to_end) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", spec.name, e2e[spec.name],
                 spec.unit);
  }
  std::fprintf(stderr, "  %-28s %14.6g fraction\n", "error_rate", error_rate);
  for (size_t s = 0; s < measured.steps.size(); ++s) {
    const StepOutcome& step = measured.steps[s];
    std::fprintf(stderr,
                 "  step %zu: offered %.1f req/s, hot p50 %.3f p99 %.3f ms, "
                 "cold p90 %.1f ms, backlog %llu -> %llu, %s\n",
                 s, step.offered_rps, Quantile(step.hot_ms, 0.5),
                 Quantile(step.hot_ms, 0.99),
                 Quantile(step.cold_ms, 0.9),
                 static_cast<unsigned long long>(step.backlog_mid),
                 static_cast<unsigned long long>(step.backlog_end),
                 StepMeetsSlo(step, SloLimits{}) ? "meets SLO" : "misses SLO");
  }
  for (const MetricSpec& spec : kPerLayer) {
    if (options.trace) {
      std::fprintf(stderr, "  %-32s %14.6g %s\n", spec.name,
                   layers[spec.name], spec.unit);
    }
  }

  // Machine and input record.
  const char* threads = std::getenv("ALCOP_THREADS");
  std::ostringstream record;
  record << "{\"workload\":" << JsonString(options.workload)
         << ",\"seed\":" << options.seed << ",\"seconds\":"
         << Number(options.seconds) << ",\"trace\":" << options.trace
         << ",\"machine\":{\"nproc\":" << std::thread::hardware_concurrency()
         << ",\"cpu_model\":" << JsonString(CpuModel())
         << ",\"build_type\":" << JsonString(PERFBENCH_BUILD_TYPE)
         << ",\"alcop_threads\":"
         << JsonString(threads == nullptr ? "" : threads) << "}"
         << ",\"git_sha\":" << JsonString(git_sha)
         << ",\"source_sha\":" << JsonString(source_sha)
         << ",\"input_checksum\":\"" << std::hex << Checksum(measured.input_list)
         << std::dec << "\",\"requests\":" << measured.input_list.size()
         << ",\"attempted\":" << attempted << ",\"failed\":" << failed
         << ",\"error_rate\":" << Number(error_rate)
         << ",\"setup_s\":[";
  for (size_t i = 0; i < measured.setup_s.size(); ++i) {
    record << (i ? "," : "") << Number(measured.setup_s[i]);
  }
  // Sample counts, with the highest percentile each supports (at least
  // 10 samples beyond it): cold_p90_ms needs 100 cold samples.
  record << "],\"samples\":{\"hot_windows\":" << samples["hot_windows"]
         << ",\"cold\":" << samples["cold"]
         << ",\"cold_tail_quantile\":" << Number(TailQuantile(samples["cold"]))
         << ",\"tunes\":" << samples["tunes"] << "}";
  record << ",\"host_steal_frac\":" << Number(measured.steal_frac)
         << ",\"attempt_steal_fracs\":[";
  for (size_t i = 0; i < attempt_steal.size(); ++i) {
    record << (i ? "," : "") << Number(attempt_steal[i]);
  }
  record << "],\"hot_window_p99_ms_quartiles\":["
         << Number(measured.window_p99_quartiles[0]) << ","
         << Number(measured.window_p99_quartiles[1]) << ","
         << Number(measured.window_p99_quartiles[2]) << "]";
  record << ",\"tune_s\":[";
  for (size_t i = 0; i < measured.tune_s.size(); ++i) {
    record << (i ? "," : "") << Number(measured.tune_s[i]);
  }
  record << "],\"steps\":[";
  for (size_t s = 0; s < measured.steps.size(); ++s) {
    const StepOutcome& step = measured.steps[s];
    record << (s ? "," : "") << "{\"offered_rps\":" << Number(step.offered_rps)
           << ",\"requests\":" << step.requests
           << ",\"hot_p50_ms\":" << Number(Quantile(step.hot_ms, 0.5))
           << ",\"hot_p99_ms\":" << Number(Quantile(step.hot_ms, 0.99))
           << ",\"cold_p90_ms\":" << Number(Quantile(step.cold_ms, 0.9))
           << ",\"backlog_mid\":" << step.backlog_mid
           << ",\"backlog_end\":" << step.backlog_end
           << ",\"meets_slo\":" << (StepMeetsSlo(step, SloLimits{}) ? "true" : "false")
           << "}";
  }
  record << "],\"loadgen_lag_p99_ms\":" << Number(Quantile(measured.lag_ms, 0.99));

  // The result line: end-to-end metrics untraced, per-layer ones traced.
  std::ostringstream metrics;
  metrics << "{";
  bool first = true;
  auto emit = [&](const MetricSpec& spec, double value) {
    metrics << (first ? "" : ", ") << "\"" << spec.name
            << "\": {\"value\": " << Number(value) << ", \"unit\": \""
            << spec.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, layers[spec.name]);
  } else {
    for (const MetricSpec& spec : end_to_end) emit(spec, e2e[spec.name]);
  }
  metrics << "}";
  record << ",\"metrics\":" << metrics.str() << "}\n";
  std::ofstream(options.run_dir + "/result-" + tag + ".json") << record.str();

  bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
