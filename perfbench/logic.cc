#include "logic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/resources.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "workloads/ops.h"

namespace perfbench {

using alcop::schedule::GemmOp;
using alcop::schedule::OpFamilyName;
using alcop::schedule::ScheduleConfig;

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SeededRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SeededRng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

std::string RequestJson(const Request& request, uint64_t id) {
  const GemmOp& op = request.op;
  std::ostringstream out;
  out << "{\"id\":" << id << ",\"method\":\""
      << (request.kind == Kind::kTune ? "tune" : "compile")
      << "\",\"family\":\"" << OpFamilyName(op.family)
      << "\",\"batch\":" << op.batch << ",\"m\":" << op.m << ",\"n\":" << op.n
      << ",\"k\":" << op.k;
  if (request.kind == Kind::kTune) {
    if (request.trials > 0) out << ",\"trials\":" << request.trials;
  } else {
    const ScheduleConfig& c = request.config;
    out << ",\"config\":{\"tb\":[" << c.tile.tb_m << "," << c.tile.tb_n << ","
        << c.tile.tb_k << "],\"warp\":[" << c.tile.warp_m << ","
        << c.tile.warp_n << "," << c.tile.warp_k
        << "],\"smem\":" << c.smem_stages << ",\"reg\":" << c.reg_stages
        << ",\"split_k\":" << c.split_k << ",\"raster\":" << c.raster_block
        << ",\"fusion\":" << (c.inner_fusion ? "true" : "false")
        << ",\"swizzle\":" << (c.swizzle ? "true" : "false")
        << ",\"async\":" << (c.async_copies ? "true" : "false") << "}";
  }
  out << "}";
  return out.str();
}

namespace {

// The daemon names ops "<family>_<m>x<n>x<k>"; the benchmark does the
// same so oracle and layer replays see the op the daemon parsed.
GemmOp WireOp(alcop::schedule::OpFamily family, int64_t batch, int64_t m,
              int64_t n, int64_t k) {
  GemmOp op;
  op.family = family;
  op.batch = batch;
  op.m = m;
  op.n = n;
  op.k = k;
  char name[96];
  std::snprintf(name, sizeof(name), "%s_%lldx%lldx%lld", OpFamilyName(family),
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k));
  op.name = name;
  return op;
}

GemmOp WireOp(const GemmOp& op) {
  return WireOp(op.family, op.batch, op.m, op.n, op.k);
}

template <typename T>
void Shuffle(std::vector<T>* items, SeededRng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Below(i)]);
  }
}

constexpr size_t kHotPairs = 100;

}  // namespace

std::vector<Request> HotSet() {
  SeededRng rng(0x686f74ull);
  const std::vector<GemmOp>& ops = alcop::workloads::BenchmarkOps();
  const alcop::target::GpuSpec spec = alcop::target::AmpereSpec();
  std::vector<size_t> extra(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) extra[i] = i;
  Shuffle(&extra, &rng);
  std::vector<Request> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t want = kHotPairs / ops.size();
    if (std::find(extra.begin(), extra.begin() + kHotPairs % ops.size(), i) !=
        extra.begin() + kHotPairs % ops.size()) {
      ++want;
    }
    std::vector<ScheduleConfig> space = alcop::tuner::EnumerateSpace(ops[i]);
    Shuffle(&space, &rng);
    size_t taken = 0;
    for (const ScheduleConfig& config : space) {
      if (taken == want) break;
      if (!alcop::analysis::CheckConfigFeasibility(ops[i], config, spec)
               .feasible) {
        continue;
      }
      Request request;
      request.kind = Kind::kHot;
      request.op = WireOp(ops[i]);
      request.config = config;
      out.push_back(request);
      ++taken;
    }
  }
  return out;
}

std::vector<Request> TuneSequence(uint64_t seed, size_t count, int trials) {
  SeededRng rng(seed ^ 0x74756e65ull);
  std::vector<GemmOp> ops = alcop::workloads::BenchmarkOps();
  Shuffle(&ops, &rng);
  std::set<std::tuple<int, int64_t, int64_t, int64_t, int64_t>> seen;
  std::vector<Request> out;
  auto add = [&](const GemmOp& op) {
    auto key = std::make_tuple(static_cast<int>(op.family), op.batch, op.m,
                               op.n, op.k);
    if (!seen.insert(key).second) return;
    Request request;
    request.kind = Kind::kTune;
    request.op = WireOp(op);
    request.trials = trials;
    out.push_back(request);
  };
  for (const GemmOp& op : ops) {
    if (out.size() == count) return out;
    add(op);
  }
  // Neighbours: one dimension of a Fig. 10 operator scaled, rounded to a
  // multiple of 64 so the space keeps valid tiles, in seeded order per
  // operator. The operators take turns, so every seed tunes each one's
  // neighbours about equally often and the seed moves tune_p50_s little.
  static const double kScales[] = {0.5, 0.75, 1.5, 2.0};
  std::vector<std::vector<GemmOp>> neighbours(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      for (double scale : kScales) {
        GemmOp op = ops[i];
        int64_t* dim = d == 0 ? &op.m : d == 1 ? &op.n : &op.k;
        *dim = std::max<int64_t>(
            64, static_cast<int64_t>(static_cast<double>(*dim) * scale / 64.0) *
                    64);
        neighbours[i].push_back(op);
      }
    }
    Shuffle(&neighbours[i], &rng);
  }
  for (size_t round = 0; round < 12; ++round) {
    for (size_t i = 0; i < ops.size(); ++i) {
      if (out.size() == count) return out;
      add(neighbours[i][round]);
    }
  }
  return out;
}

namespace {

// Appends `count` cold compiles whose K values are stratified over the
// log range, so any `count` draws cover it evenly; `used` keeps every K
// distinct (never-seen shapes). K is `residue` modulo 64, so lists made
// with different residues never share a shape.
void AppendColdCompiles(SeededRng* rng, size_t count, int64_t residue,
                        std::set<int64_t>* used, std::vector<Request>* out) {
  const double lo = std::log(4096.0);
  const double hi = std::log(262144.0);
  std::vector<size_t> strata(count);
  for (size_t i = 0; i < count; ++i) strata[i] = i;
  Shuffle(&strata, rng);
  for (size_t i = 0; i < count; ++i) {
    double u = (static_cast<double>(strata[i]) + rng->Uniform()) /
               static_cast<double>(count);
    int64_t k = static_cast<int64_t>(std::exp(lo + u * (hi - lo)) / 64.0) * 64;
    k = std::clamp<int64_t>(k, 4096, 262144 - 64) + residue;
    while (!used->insert(k).second) k += 64;
    Request request;
    request.kind = Kind::kCold;
    request.op = WireOp(alcop::schedule::OpFamily::kMatmul, 1, 512, 512, k);
    request.config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                           .warp_m = 64, .warp_n = 64, .warp_k = 16};
    request.config.smem_stages = 3;
    request.config.reg_stages = 2;
    out->push_back(request);
  }
}

}  // namespace

std::vector<Request> ColdCompiles(uint64_t seed, size_t count) {
  SeededRng rng(seed ^ 0x73696465ull);
  std::set<int64_t> used;
  std::vector<Request> out;
  AppendColdCompiles(&rng, count, /*residue=*/32, &used, &out);
  return out;
}

std::vector<Arrival> MixedSchedule(uint64_t seed, const MixedPlan& plan,
                                   const std::vector<Request>& hot_set) {
  SeededRng rng(seed ^ 0x6d6978ull);
  std::vector<Arrival> out;
  std::vector<size_t> counts = {static_cast<size_t>(
      plan.measure_rps * plan.measure_seconds + 0.5)};
  counts.resize(1 + plan.search_steps, plan.search_arrivals);
  std::vector<size_t> colds(counts.size(), 0);
  for (size_t step = 0; step < counts.size(); ++step) {
    // A Poisson process conditioned on its count: a fixed number of
    // arrivals, uniform over the step, so the number of cold compiles and
    // the realised rate barely vary from seed to seed.
    size_t n = counts[step];
    size_t hot = static_cast<size_t>(static_cast<double>(n) * plan.hot_share +
                                     0.5);
    std::vector<double> position(n);
    for (double& x : position) x = rng.Uniform();
    std::sort(position.begin(), position.end());
    std::vector<char> is_hot(n, 0);
    std::fill(is_hot.begin(), is_hot.begin() + hot, 1);
    Shuffle(&is_hot, &rng);
    std::vector<size_t> others;  // this step's non-hot arrivals
    for (size_t i = 0; i < n; ++i) {
      Arrival arrival;
      arrival.step = step;
      arrival.position = position[i];
      if (is_hot[i]) {
        arrival.hot_index = rng.Below(hot_set.size());
        arrival.request = hot_set[arrival.hot_index];
      } else {
        arrival.request.kind = Kind::kCold;
        others.push_back(out.size());
        ++colds[step];
      }
      out.push_back(arrival);
    }
    if (step == 0 && !others.empty()) {
      out[others[rng.Below(others.size())]].request.kind = Kind::kTune;
      --colds[step];
    }
  }
  // Cold shapes are stratified per step, so each step's K mix is even.
  SeededRng cold_rng(seed ^ 0x636f6c64ull);
  std::set<int64_t> used;
  std::vector<Request> cold;
  for (size_t n : colds) {
    AppendColdCompiles(&cold_rng, n, /*residue=*/0, &used, &cold);
  }
  // The tune skips the Fig. 10 operators themselves: a neighbour shape,
  // whose search can transfer from earlier tunes.
  std::vector<Request> tune = TuneSequence(0, 13, plan.tune_trials);
  size_t next_cold = 0;
  for (Arrival& a : out) {
    if (a.request.kind == Kind::kCold) a.request = cold[next_cold++];
    if (a.request.kind == Kind::kTune) a.request = tune[12];
  }
  return out;
}

double RateSearch::Next() const { return std::sqrt(low_ * high_); }

void RateSearch::Record(double rps, bool met) {
  if (met) {
    low_ = std::max(low_, rps);
  } else {
    high_ = std::min(high_, rps);
  }
}

uint64_t Checksum(const std::vector<std::string>& items) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::string& item : items) {
    for (unsigned char c : item) {
      hash ^= c;
      hash *= 0x100000001b3ull;
    }
    hash ^= 0xff;  // separator, so {"ab"} != {"a","b"}
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size()) - 1e-9));
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0) rank = 1;
  return rank >= n ? 0 : n - rank;
}

double TailQuantile(size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0.0;
}

double LatencyFromDueMs(const OpenLoopRecord& record) {
  if (!record.ok || record.done_ns < 0) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(record.done_ns - record.due_ns) / 1e6;
}

double GeneratorLagMs(const OpenLoopRecord& record) {
  if (record.sent_ns < 0) return 0.0;
  return static_cast<double>(std::max<int64_t>(0, record.sent_ns -
                                                      record.due_ns)) /
         1e6;
}

bool BacklogGrowing(const StepOutcome& step) {
  uint64_t slack = std::max<uint64_t>(8, step.requests / 50);
  return step.backlog_end > step.backlog_mid + slack;
}

bool StepMeetsSlo(const StepOutcome& step, const SloLimits& limits) {
  if (BacklogGrowing(step)) return false;
  if (!step.hot_ms.empty() && Quantile(step.hot_ms, 0.99) > limits.hot_p99_ms) {
    return false;
  }
  if (!step.cold_ms.empty() &&
      Quantile(step.cold_ms, 0.90) > limits.cold_p90_ms) {
    return false;
  }
  return true;
}

double MaxRpsWithinSlo(const std::vector<StepOutcome>& steps,
                       const SloLimits& limits) {
  double best = 0.0;
  for (const StepOutcome& step : steps) {
    if (StepMeetsSlo(step, limits)) best = std::max(best, step.offered_rps);
  }
  return best;
}

}  // namespace perfbench
