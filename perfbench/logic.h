// The benchmark's own logic, kept free of sockets and clocks so that it
// can be unit-tested: seeded request generation, the input checksum,
// percentile choice, open-loop accounting from due times, and the
// max-rate-within-SLO rule.
#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "schedule/schedule.h"
#include "schedule/tensor.h"

namespace perfbench {

// SplitMix64: the same stream on every platform and standard library, so
// a seed names one request list everywhere.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();             // [0, 1)
  uint64_t Below(uint64_t n);   // [0, n)

 private:
  uint64_t state_;
};

enum class Kind { kHot, kCold, kTune };

// One request the load generator sends. `trials` = 0 leaves a tune at the
// daemon default.
struct Request {
  Kind kind = Kind::kHot;
  alcop::schedule::GemmOp op;
  alcop::schedule::ScheduleConfig config;
  int trials = 0;
};

// The request body for `alcopd` (socket frame or HTTP /v1/ body).
std::string RequestJson(const Request& request, uint64_t id);

// 100 (op, config) pairs over the 12 Fig. 10 operators, each a
// statically feasible point of the tuner's space: the hot set the daemon
// is warmed with before timing. The set is the same for every seed (the
// seed picks which pairs are probed when), so set-up cost and cold
// compile latency compare across seeds.
std::vector<Request> HotSet();

// Cold tunes: the 12 Fig. 10 operators in seeded order, then seeded
// neighbour shapes of them (so warm-start transfer runs), up to `count`
// (each operator has at most 12 neighbours, fewer where a scaled
// dimension repeats another shape).
std::vector<Request> TuneSequence(uint64_t seed, size_t count, int trials);

// `count` compiles of never-seen 512x512xK matmuls, K log-uniform over
// [4096, 262144] and stratified, so any seed covers the range evenly.
// Their K values never occur in a MixedSchedule.
std::vector<Request> ColdCompiles(uint64_t seed, size_t count);

// One request of the open loop. Its due time is fixed once the step's
// rate is: the step starts, and arrival i is due position x (the step's
// arrivals / its rate) later.
struct Arrival {
  size_t step = 0;        // 0: the measured step; 1..: capacity search
  double position = 0.0;  // [0, 1), sorted within a step
  Request request;
  size_t hot_index = 0;  // hot arrivals: index into the hot set
};

// The open loop: a measured step at a fixed moderate rate, whose latencies
// are the workload's hot and cold figures, then a capacity search whose
// steps each offer a fixed number of arrivals at the rate the search
// chooses (see RateSearch).
struct MixedPlan {
  double measure_rps = 200.0;
  double measure_seconds = 8.0;
  size_t search_steps = 6;
  size_t search_arrivals = 700;  // 105 colds: p90 keeps 10 beyond it
  double search_low_rps = 150.0;
  double search_high_rps = 2400.0;
  double hot_share = 0.85;  // the rest are cold compiles, but for the
  int tune_trials = 8;      // measured step's one short tune
};

// Seeded arrivals of every step, step by step: positions uniform over the
// step (a Poisson process given its count), `hot_share` of them hot
// (drawn from `hot_set`), the rest compiles of never-seen 512x512xK
// matmuls with K log-uniform over [4096, 262144] (stratified per step, so
// every seed covers the range evenly), except that one seeded non-hot
// arrival of the measured step is a short tune of a fixed neighbour shape.
// Which requests arrive in what order is fixed by the seed; only the
// search steps' durations depend on the search.
std::vector<Arrival> MixedSchedule(uint64_t seed, const MixedPlan& plan,
                                   const std::vector<Request>& hot_set);

// Geometric bisection for the highest rate within the limits: every step
// offers the geometric mean of the bracket, a step that meets the limits
// raises the bracket's low end and one that misses lowers its high end.
class RateSearch {
 public:
  RateSearch(double low_rps, double high_rps)
      : low_(low_rps), high_(high_rps) {}
  double Next() const;
  void Record(double rps, bool met);

 private:
  double low_, high_;
};

// FNV-1a over a list of strings (order matters): two runs with equal
// checksums sent identical inputs.
uint64_t Checksum(const std::vector<std::string>& items);

// Nearest-rank quantile; +inf entries (failures) sort last. 0 when empty.
double Quantile(std::vector<double> values, double q);

// Samples strictly above the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

// The highest of p99.9 / p99 / p90 / p50 that keeps at least 10 samples
// beyond it; 0 when n is too small for any.
double TailQuantile(size_t n);

// Open-loop accounting for one request: latency runs from when it was
// due, not from when the (possibly stalled) generator sent it.
struct OpenLoopRecord {
  int64_t due_ns = 0;
  int64_t sent_ns = -1;  // -1: never sent
  int64_t done_ns = -1;  // -1: never answered
  bool ok = false;       // answered, ok:true and equal to the oracle
};

// Latency from due time in ms; +inf for a request that failed or got no
// answer, so it misses every latency limit.
double LatencyFromDueMs(const OpenLoopRecord& record);

// How late the generator sent a request, in ms (0 if never sent).
double GeneratorLagMs(const OpenLoopRecord& record);

// The benchmark's latency limits, for latency from an open-loop request's
// due time. That includes waking an idle daemon and the host's scheduling
// tail: at light load on a shared 4-core host, hot p99 ran 0.9 to 8.8 ms
// and cold p90 at 200 req/s 40 to 110 ms. The limits stay clear of that,
// so a light step's verdict does not flip with the host, while a fast
// lane stuck behind compiles, or a slow lane past its capacity (cold p90
// in seconds), still misses them.
struct SloLimits {
  double hot_p99_ms = 20.0;
  double cold_p90_ms = 150.0;
};

// One step of the open loop, as the SLO rule sees it. Latency
// lists hold +inf for failures (see LatencyFromDueMs).
struct StepOutcome {
  double offered_rps = 0.0;
  std::vector<double> hot_ms;
  std::vector<double> cold_ms;
  uint64_t backlog_mid = 0;  // unanswered requests half way through
  uint64_t backlog_end = 0;  // unanswered requests when sending ends
  uint64_t requests = 0;
};

// Backlog growth beyond noise: the end-of-step backlog exceeds the
// mid-step one by more than max(8, 2% of the step's requests).
bool BacklogGrowing(const StepOutcome& step);

bool StepMeetsSlo(const StepOutcome& step, const SloLimits& limits);

// Highest offered rate whose step meets the limits with a backlog that is
// not growing; 0 if none does.
double MaxRpsWithinSlo(const std::vector<StepOutcome>& steps,
                       const SloLimits& limits);

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
