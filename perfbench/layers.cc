// The traced per-layer run. After the traced workload, every recorded
// request is replayed in send order through the public functions of each
// layer the daemon calls for it, with a span around each call tagged
// with the request id:
//
//   all      protocol.parse    serving::ParseJson
//   hot      sim_cache.key     sim::SimCacheKey
//            sim_cache.probe   sim::ProbeCachedTiming
//   compile  pipeline.detect   schedule::Schedule + pipeline::AutoPipeline
//            schedule.lower    schedule::LowerSchedule
//            pipeline.transform pipeline::ApplyPipelineTransform
//            sim.phase1        sim::BuildSimProgram
//            sim.phase2        sim::ReplaySimProgram
//   tune     tuner.space       tuner::MakeSimulatorTask
//            tuner.warmstart   tuner::FindWarmStart
//            tuner.search      tuner::XgbTuner (TuningTask::measure wrapped)
//
// The replay mirrors the daemon's cache and tuning-store inserts, so its
// process walks through the same cache states the daemon did. Spans are
// joined with the daemon's access log (queue and service micros per
// request id); the counters come from what the daemon already exports.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "bench.h"
#include "obs/trace.h"
#include "perfmodel/analytical.h"
#include "pipeline/detect.h"
#include "pipeline/transform.h"
#include "schedule/lower.h"
#include "serving/protocol.h"
#include "sim/compile.h"
#include "sim/launch.h"
#include "sim/sim_cache.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"

namespace perfbench {

namespace {

using alcop::obs::NowNanos;
namespace schedule = alcop::schedule;
namespace sim = alcop::sim;
namespace tuner = alcop::tuner;

struct Span {
  uint64_t id;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  bool in_service;  // runs inside the daemon's service time for the request
};

class Tracer {
 public:
  template <typename Fn>
  auto Time(uint64_t id, const char* layer, bool in_service, Fn&& fn) {
    int64_t start = NowNanos();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({id, layer, start, NowNanos(), in_service});
    } else {
      auto result = fn();
      spans_.push_back({id, layer, start, NowNanos(), in_service});
      return result;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  // Duration of the span recorded `back` spans ago (0 = the latest).
  int64_t RecentNs(size_t back) const {
    const Span& span = spans_[spans_.size() - 1 - back];
    return span.end_ns - span.start_ns;
  }

 private:
  std::vector<Span> spans_;
};

// Union of the intervals during which any measurement is running (the
// tuner measures in parallel), plus counts.
struct MeasureClock {
  std::mutex mu;
  int active = 0;
  int64_t since = 0;
  int64_t busy_ns = 0;
  uint64_t calls = 0;
  uint64_t infeasible = 0;
};

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

// Median span of `layer`, over the requests in `ids` when it is non-empty.
double LayerMedianUs(const std::vector<Span>& spans, const char* layer,
                     const std::unordered_set<uint64_t>& ids = {}) {
  std::vector<double> us;
  for (const Span& span : spans) {
    if (std::string(span.layer) == layer &&
        (ids.empty() || ids.count(span.id) != 0)) {
      us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return Quantile(us, 0.5);
}

struct AccessEntry {
  bool fast = true;
  std::string method;
  double queue_us = 0.0;
  double service_us = 0.0;
  uint64_t batch = 0;
};

std::unordered_map<uint64_t, AccessEntry> ReadAccessLog(
    const std::string& path) {
  std::unordered_map<uint64_t, AccessEntry> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::optional<alcop::serving::JsonValue> json =
        alcop::serving::ParseJson(line);
    if (!json) continue;
    auto number = [&](const char* key) {
      const alcop::serving::JsonValue* v = json->Find(key);
      return v == nullptr ? 0.0 : v->NumberOr(0.0);
    };
    const alcop::serving::JsonValue* lane = json->Find("lane");
    const alcop::serving::JsonValue* method = json->Find("method");
    AccessEntry entry;
    entry.fast = lane != nullptr && lane->StringOr("") == "fast";
    entry.method = method == nullptr ? "" : method->StringOr("");
    entry.queue_us = number("queue_us");
    entry.service_us = number("service_us");
    entry.batch = static_cast<uint64_t>(number("batch"));
    out[static_cast<uint64_t>(number("client_id"))] = entry;
  }
  return out;
}

double Metric(const std::map<std::string, double>& metrics,
              const std::string& name) {
  auto it = metrics.find(name);
  return it == metrics.end() ? 0.0 : it->second;
}

}  // namespace

std::map<std::string, double> TraceLayers(const Options& options,
                                          const Run& run) {
  const alcop::target::GpuSpec spec = alcop::target::AmpereSpec();
  const schedule::InlineOrder order = schedule::InlineOrder::kAfterPipelining;
  sim::ResetSimCache();
  sim::ResetSkeletonPool();
  tuner::TuningStore::Global().Clear();

  std::vector<const Sent*> sent;
  for (const Sent& s : run.sent) sent.push_back(&s);
  std::sort(sent.begin(), sent.end(),
            [](const Sent* a, const Sent* b) { return a->id < b->id; });

  Tracer tracer;
  sim::ReplayArena arena;
  // Compile-layer figures, kept apart for set-up compiles (index 0) and
  // the cold compiles of never-seen shapes (index 1, mixed_open only);
  // the metrics describe the cold ones where a workload has them.
  std::vector<double> phase1_ns_per_kelem[2], phase2_ns_per_kelem[2];
  std::vector<double> microops[2];
  std::unordered_set<uint64_t> cold_ids;
  std::vector<double> space_ms, warm_ms, measure_s, measure_calls;
  std::vector<double> infeasible_frac, model_s, best_frac, predict_us;
  int64_t replay_start = NowNanos();
  for (const Sent* s : sent) {
    const Request& request = run.requests[s->request];
    std::string body = RequestJson(request, s->id);
    tracer.Time(s->id, "protocol.parse", false,
                [&] { return alcop::serving::ParseJson(body).has_value(); });
    if (request.kind == Kind::kTune) {
      size_t trials = request.trials > 0 ? static_cast<size_t>(request.trials)
                                         : 32;  // ServerOptions default
      tuner::TuningTask task = tracer.Time(s->id, "tuner.space", true, [&] {
        return tuner::MakeSimulatorTask(request.op, spec);
      });
      tuner::WarmStart warm = tracer.Time(s->id, "tuner.warmstart", true, [&] {
        return tuner::FindWarmStart(task, tuner::TuningStore::Global());
      });
      MeasureClock clock;
      auto inner = task.measure;
      task.measure = [&clock, inner](const schedule::ScheduleConfig& config) {
        {
          std::lock_guard<std::mutex> lock(clock.mu);
          if (clock.active++ == 0) clock.since = NowNanos();
        }
        double cycles = inner(config);
        std::lock_guard<std::mutex> lock(clock.mu);
        if (--clock.active == 0) clock.busy_ns += NowNanos() - clock.since;
        ++clock.calls;
        if (!std::isfinite(cycles)) ++clock.infeasible;
        return cycles;
      };
      tuner::XgbOptions xgb;
      xgb.pretrain_with_analytical = true;
      xgb.warm_seeds = warm.seeds;
      int64_t search_start = NowNanos();
      tuner::TuningResult result = tracer.Time(s->id, "tuner.search", true, [&] {
        return tuner::XgbTuner(task, trials, xgb);
      });
      double search_s = static_cast<double>(NowNanos() - search_start) / 1e9;
      tuner::StoreTuning(task, result, tuner::TuningStore::Global());
      space_ms.push_back(static_cast<double>(tracer.RecentNs(2)) / 1e6);
      warm_ms.push_back(static_cast<double>(tracer.RecentNs(1)) / 1e6);
      measure_s.push_back(static_cast<double>(clock.busy_ns) / 1e9);
      model_s.push_back(search_s - measure_s.back());
      measure_calls.push_back(static_cast<double>(clock.calls));
      infeasible_frac.push_back(
          clock.calls == 0 ? 0.0
                           : static_cast<double>(clock.infeasible) /
                                 static_cast<double>(clock.calls));
      double best = result.BestInFirstK(result.trials.size());
      for (size_t t = 0; t < result.measured.size(); ++t) {
        if (result.measured[t] == best) {
          best_frac.push_back(static_cast<double>(t + 1) /
                              static_cast<double>(result.measured.size()));
          break;
        }
      }
      // Table-I predictions over the task's space (the pretrain's input),
      // timed apart from the request's spans.
      int64_t predict_start = NowNanos();
      for (const schedule::ScheduleConfig& config : task.space) {
        alcop::perfmodel::PredictCycles(task.op, config, spec);
      }
      if (!task.space.empty()) {
        predict_us.push_back(static_cast<double>(NowNanos() - predict_start) /
                             1e3 / static_cast<double>(task.space.size()));
      }
      continue;
    }
    if (request.kind == Kind::kHot && s->phase != Phase::kSetup) {
      tracer.Time(s->id, "sim_cache.key", false, [&] {
        return sim::SimCacheKey(request.op, request.config, spec, order);
      });
      sim::KernelTiming timing;
      tracer.Time(s->id, "sim_cache.probe", true, [&] {
        return sim::ProbeCachedTiming(request.op, request.config, spec, order,
                                      &timing);
      });
      continue;
    }
    // A compile the daemon ran on the slow lane.
    schedule::Schedule sched(request.op, request.config, order);
    sim::CompiledKernel compiled;
    compiled.detection = tracer.Time(s->id, "pipeline.detect", true, [&] {
      return alcop::pipeline::AutoPipeline(sched, spec);
    });
    compiled.kernel = tracer.Time(s->id, "schedule.lower", true,
                                  [&] { return schedule::LowerSchedule(sched); });
    compiled.transformed = tracer.Time(s->id, "pipeline.transform", true, [&] {
      return alcop::pipeline::ApplyPipelineTransform(
          compiled.kernel.stmt, request.config.inner_fusion);
    });
    auto program = std::make_shared<sim::SimProgram>(tracer.Time(
        s->id, "sim.phase1", true,
        [&] { return sim::BuildSimProgram(compiled, spec); }));
    sim::KernelTiming timing = tracer.Time(s->id, "sim.phase2", true, [&] {
      return sim::ReplaySimProgram(*program, &arena);
    });
    double kelem = static_cast<double>(request.op.k) / 1000.0;
    int cold = request.kind == Kind::kCold ? 1 : 0;
    if (cold) cold_ids.insert(s->id);
    phase1_ns_per_kelem[cold].push_back(
        static_cast<double>(tracer.RecentNs(1)) / kelem);
    phase2_ns_per_kelem[cold].push_back(
        static_cast<double>(tracer.RecentNs(0)) / kelem);
    microops[cold].push_back(static_cast<double>(program->program.TotalOps()));
    std::string key = sim::SimCacheKey(request.op, request.config, spec, order);
    sim::InsertCachedProgram(key, program);
    sim::InsertCachedTiming(key, timing);
  }
  double replay_s = static_cast<double>(NowNanos() - replay_start) / 1e9;

  // What recording one span costs, from a calibration loop of the same
  // code path, times the spans recorded, over the replay's wall time.
  Tracer calibration;
  const int kCalibration = 100000;
  int64_t cal_start = NowNanos();
  for (int i = 0; i < kCalibration; ++i) {
    calibration.Time(0, "calibration", false, [] {});
  }
  double span_cost_s = static_cast<double>(NowNanos() - cal_start) / 1e9 /
                       kCalibration;

  // Join with the daemon's access log by request id.
  std::unordered_map<uint64_t, AccessEntry> log = ReadAccessLog(run.access_log);
  std::unordered_map<uint64_t, double> service_spans;
  for (const Span& span : tracer.spans()) {
    if (span.in_service) {
      service_spans[span.id] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    }
  }
  double covered = 0.0, service = 0.0;
  for (const auto& [id, us] : service_spans) {
    auto it = log.find(id);
    if (it == log.end()) continue;
    covered += us;
    service += it->second.service_us;
  }
  std::vector<double> fast_queue, slow_queue, slow_service;
  std::map<uint64_t, int> slow_batches;
  for (const auto& [id, entry] : log) {
    if (entry.method != "compile" && entry.method != "tune") continue;
    if (entry.fast) {
      fast_queue.push_back(entry.queue_us);
    } else {
      slow_queue.push_back(entry.queue_us);
      if (entry.method == "compile") slow_service.push_back(entry.service_us);
      ++slow_batches[entry.batch];
    }
  }

  std::map<std::string, double> m;
  m["serving.ping_p50_us"] = Quantile(run.ping_us, 0.5);
  m["serving.unix_hot_p50_us"] = Quantile(run.hot_ms[0], 0.5) * 1e3;
  m["serving.http_hot_p50_us"] = Quantile(run.hot_ms[1], 0.5) * 1e3;
  m["serving.queue_wait_fast_p99_us"] = Quantile(fast_queue, 0.99);
  m["serving.queue_wait_slow_p90_us"] = Quantile(slow_queue, 0.9);
  m["serving.service_slow_p50_us"] = Quantile(slow_service, 0.5);
  m["serving.slow_batch_size_mean"] =
      slow_batches.empty() ? 0.0
                           : static_cast<double>(slow_queue.size()) /
                                 static_cast<double>(slow_batches.size());
  m["serving.fast_lane_fallback"] =
      Metric(run.daemon_metrics, "alcop_serving_fast_lane_fallback");
  m["protocol.parse_us"] = LayerMedianUs(tracer.spans(), "protocol.parse");
  size_t hot_answers = run.hot_ms[0].size() + run.hot_ms[1].size();
  m["protocol.response_bytes_mean"] =
      hot_answers == 0 ? 0.0
                       : static_cast<double>(run.hot_bytes) /
                             static_cast<double>(hot_answers);
  m["sim_cache.key_us"] = LayerMedianUs(tracer.spans(), "sim_cache.key");
  m["sim_cache.probe_us"] = LayerMedianUs(tracer.spans(), "sim_cache.probe");
  auto rate = [&](const char* hits, const char* misses) {
    double h = Metric(run.daemon_metrics, hits);
    double total = h + Metric(run.daemon_metrics, misses);
    return total == 0.0 ? 0.0 : h / total;
  };
  m["sim_cache.timing_hit_rate"] = rate("alcop_sim_cache_timing_hits",
                                        "alcop_sim_cache_timing_misses");
  m["sim_cache.program_hit_rate"] = rate("alcop_sim_cache_program_hits",
                                         "alcop_sim_cache_program_misses");
  m["sim_cache.resident_mb"] =
      Metric(run.daemon_metrics, "alcop_sim_cache_resident_bytes") / 1048576.0;
  m["sim_cache.evictions"] =
      Metric(run.daemon_metrics, "alcop_sim_cache_evictions");
  m["sim.skeleton_mb"] =
      Metric(run.daemon_metrics, "alcop_sim_cache_program_skeleton_bytes") /
      1048576.0;
  sim::SkeletonPoolStats pool = sim::GetSkeletonPoolStats();
  m["sim.skeleton_share_rate"] =
      pool.interns == 0 ? 0.0
                        : static_cast<double>(pool.shared) /
                              static_cast<double>(pool.interns);
  int cold = cold_ids.empty() ? 0 : 1;
  m["pipeline.detect_us"] =
      LayerMedianUs(tracer.spans(), "pipeline.detect", cold_ids);
  m["schedule.lower_us"] =
      LayerMedianUs(tracer.spans(), "schedule.lower", cold_ids);
  m["pipeline.transform_us"] =
      LayerMedianUs(tracer.spans(), "pipeline.transform", cold_ids);
  m["sim.phase1_us"] = LayerMedianUs(tracer.spans(), "sim.phase1", cold_ids);
  m["sim.phase1_ns_per_kelem"] = Quantile(phase1_ns_per_kelem[cold], 0.5);
  m["sim.phase2_us"] = LayerMedianUs(tracer.spans(), "sim.phase2", cold_ids);
  m["sim.phase2_ns_per_kelem"] = Quantile(phase2_ns_per_kelem[cold], 0.5);
  m["sim.microops_per_program"] = Mean(microops[cold]);
  m["tuner.space_ms"] = Quantile(space_ms, 0.5);
  m["tuner.warmstart_ms"] = Quantile(warm_ms, 0.5);
  m["tuner.measure_s"] = Quantile(measure_s, 0.5);
  m["tuner.measure_calls"] = Mean(measure_calls);
  m["tuner.infeasible_frac"] = Mean(infeasible_frac);
  m["tuner.model_s"] = Quantile(model_s, 0.5);
  m["perfmodel.predict_us"] = Quantile(predict_us, 0.5);
  m["tuner.best_trial_frac"] = Mean(best_frac);
  m["trace.coverage"] = service == 0.0 ? 0.0 : covered / service;
  m["trace.overhead_frac"] =
      replay_s == 0.0 ? 0.0
                      : span_cost_s *
                            static_cast<double>(tracer.spans().size()) /
                            replay_s;

  // Spans stay in memory during the replay and are written out at the end.
  std::ofstream out(options.run_dir + "/spans-" + options.workload + "-" +
                    std::to_string(options.seed) + ".jsonl");
  for (const Span& span : tracer.spans()) {
    out << "{\"id\":" << span.id << ",\"layer\":\"" << span.layer
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return m;
}

}  // namespace perfbench
