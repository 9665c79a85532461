// Tests of the benchmark's own logic: percentile choice, latency from due
// time under a generator stall, the max-rate-within-SLO rule, and seeded
// input generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "logic.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(Quantile(values, 0.5), 50);
  EXPECT_EQ(Quantile(values, 0.9), 90);
  EXPECT_EQ(Quantile(values, 0.99), 99);
  EXPECT_EQ(Quantile(values, 1.0), 100);
  EXPECT_EQ(Quantile({}, 0.5), 0);
  values.push_back(kInf);  // a failure sorts last
  EXPECT_EQ(Quantile(values, 1.0), kInf);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(TailQuantile(19), 0.0);
  EXPECT_EQ(TailQuantile(20), 0.5);
  EXPECT_EQ(TailQuantile(99), 0.5);
  EXPECT_EQ(TailQuantile(100), 0.9);
  EXPECT_EQ(TailQuantile(999), 0.9);
  EXPECT_EQ(TailQuantile(1000), 0.99);
  EXPECT_EQ(TailQuantile(10000), 0.999);
}

TEST(OpenLoop, LatencyRunsFromDueTimeThroughAStall) {
  // Due every 1 ms; the generator stalls and sends the last three at 5 ms.
  // Each answer takes 0.1 ms after its send.
  const int64_t ms = 1'000'000;
  std::vector<OpenLoopRecord> records(4);
  int64_t sent[] = {0, 5 * ms, 5 * ms, 5 * ms};
  for (int i = 0; i < 4; ++i) {
    records[i].due_ns = i * ms;
    records[i].sent_ns = sent[i];
    records[i].done_ns = sent[i] + ms / 10;
    records[i].ok = true;
  }
  EXPECT_NEAR(LatencyFromDueMs(records[0]), 0.1, 1e-9);
  EXPECT_NEAR(LatencyFromDueMs(records[1]), 4.1, 1e-9);
  EXPECT_NEAR(LatencyFromDueMs(records[2]), 3.1, 1e-9);
  EXPECT_NEAR(LatencyFromDueMs(records[3]), 2.1, 1e-9);
  EXPECT_NEAR(GeneratorLagMs(records[1]), 4.0, 1e-9);
  EXPECT_NEAR(GeneratorLagMs(records[3]), 2.0, 1e-9);
}

TEST(OpenLoop, UnansweredAndFailedRequestsMissEveryLimit) {
  OpenLoopRecord never;
  never.due_ns = 0;
  never.sent_ns = 10;
  EXPECT_EQ(LatencyFromDueMs(never), kInf);
  OpenLoopRecord refused = never;
  refused.done_ns = 20;
  refused.ok = false;
  EXPECT_EQ(LatencyFromDueMs(refused), kInf);
  OpenLoopRecord unsent;
  EXPECT_EQ(GeneratorLagMs(unsent), 0.0);
}

StepOutcome Step(double rps, size_t hot_failures, size_t cold_failures,
                 uint64_t backlog_mid = 0, uint64_t backlog_end = 0) {
  StepOutcome step;
  step.offered_rps = rps;
  step.hot_ms.assign(1000, 0.5);
  step.cold_ms.assign(100, 20.0);
  for (size_t i = 0; i < hot_failures; ++i) step.hot_ms[i] = kInf;
  for (size_t i = 0; i < cold_failures; ++i) step.cold_ms[i] = kInf;
  step.requests = 1100;
  step.backlog_mid = backlog_mid;
  step.backlog_end = backlog_end;
  return step;
}

TEST(Slo, HighestPassingRate) {
  SloLimits limits;
  std::vector<StepOutcome> steps = {Step(100, 0, 0), Step(200, 0, 0),
                                    Step(400, 0, 0, 10, 400)};
  EXPECT_FALSE(StepMeetsSlo(steps[2], limits));  // backlog growing
  EXPECT_EQ(MaxRpsWithinSlo(steps, limits), 200);
  EXPECT_EQ(MaxRpsWithinSlo({}, limits), 0);
}

TEST(Slo, FailuresCountAsMisses) {
  SloLimits limits;
  // 1% of hot requests failing keeps p99 finite; 1.1% does not.
  EXPECT_TRUE(StepMeetsSlo(Step(100, 10, 0), limits));
  EXPECT_FALSE(StepMeetsSlo(Step(100, 11, 0), limits));
  // Likewise 10% vs 11% of cold requests against the p90 limit.
  EXPECT_TRUE(StepMeetsSlo(Step(100, 0, 10), limits));
  EXPECT_FALSE(StepMeetsSlo(Step(100, 0, 11), limits));
  std::vector<StepOutcome> steps = {Step(100, 0, 0), Step(200, 0, 11)};
  EXPECT_EQ(MaxRpsWithinSlo(steps, limits), 100);
}

TEST(Slo, SlowStepsMiss) {
  SloLimits limits;
  StepOutcome slow_hot = Step(100, 0, 0);
  slow_hot.hot_ms.assign(1000, limits.hot_p99_ms * 2);
  StepOutcome slow_cold = Step(100, 0, 0);
  slow_cold.cold_ms.assign(100, limits.cold_p90_ms * 2);
  EXPECT_FALSE(StepMeetsSlo(slow_hot, limits));
  EXPECT_FALSE(StepMeetsSlo(slow_cold, limits));
  EXPECT_FALSE(BacklogGrowing(Step(100, 0, 0, 5, 13)));  // within slack
  EXPECT_TRUE(BacklogGrowing(Step(100, 0, 0, 5, 30)));
}

TEST(Slo, RateSearchConvergesBelowTheCapacity) {
  // A daemon that meets the limits up to 630 req/s and misses them above.
  const double capacity = 630;
  RateSearch search(150, 2400);
  std::vector<StepOutcome> steps;
  for (int i = 0; i < 6; ++i) {
    double rps = search.Next();
    bool met = rps <= capacity;
    steps.push_back(met ? Step(rps, 0, 0) : Step(rps, 0, 11));
    search.Record(rps, met);
  }
  EXPECT_EQ(steps[0].offered_rps, 600);  // the bracket's geometric mean
  double found = MaxRpsWithinSlo(steps, SloLimits{});
  EXPECT_LE(found, capacity);
  EXPECT_GT(found, capacity / std::pow(16.0, 1.0 / 64));  // one bracket step
  // A step that fails (here: every cold answer is a failure) lowers the
  // bracket just like a slow one.
  RateSearch failing(150, 2400);
  failing.Record(600, StepMeetsSlo(Step(600, 0, 100), SloLimits{}));
  EXPECT_EQ(failing.Next(), 300);
}

std::vector<std::string> Inputs(uint64_t seed) {
  std::vector<Request> hot = HotSet();
  MixedPlan plan;
  plan.measure_seconds = 1.0;
  plan.search_steps = 2;
  std::vector<std::string> out;
  for (const Arrival& a : MixedSchedule(seed, plan, hot)) {
    out.push_back(std::to_string(a.position) + RequestJson(a.request, 0));
  }
  for (const Request& r : TuneSequence(seed, 40, 0)) {
    out.push_back(RequestJson(r, 0));
  }
  return out;
}

TEST(Inputs, EqualSeedsGiveIdenticalInputs) {
  std::vector<std::string> a = Inputs(7);
  std::vector<std::string> b = Inputs(7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(Checksum(a), Checksum(b));
}

TEST(Inputs, DifferentSeedsGiveDifferentInputs) {
  std::vector<std::string> a = Inputs(7);
  std::vector<std::string> b = Inputs(8);
  EXPECT_NE(a, b);
  EXPECT_NE(Checksum(a), Checksum(b));
}

TEST(Inputs, ShapesOfTheMix) {
  std::vector<Request> hot = HotSet();
  EXPECT_EQ(hot.size(), 100u);
  MixedPlan plan;
  plan.measure_rps = 300;
  plan.measure_seconds = 4.0;
  plan.search_steps = 2;
  std::vector<Arrival> arrivals = MixedSchedule(3, plan, hot);
  EXPECT_EQ(arrivals.size(), 1200u + 2 * 700u);
  size_t hot_count = 0, tunes = 0;
  std::vector<int64_t> ks;
  for (const Arrival& a : arrivals) {
    if (a.request.kind == Kind::kHot) ++hot_count;
    if (a.request.kind == Kind::kTune) {
      ++tunes;
      EXPECT_EQ(a.step, 0u);  // the tune rides the measured step only
    }
    if (a.request.kind == Kind::kCold) {
      ks.push_back(a.request.op.k);
      EXPECT_GE(a.request.op.k, 4096);
      EXPECT_LE(a.request.op.k, 262144 + 64 * 1000);
      EXPECT_EQ(a.request.op.k % 64, 0);
    }
  }
  EXPECT_EQ(tunes, 1u);
  double share = static_cast<double>(hot_count) / arrivals.size();
  EXPECT_NEAR(share, 0.85, 0.03);
  std::sort(ks.begin(), ks.end());
  EXPECT_EQ(std::unique(ks.begin(), ks.end()), ks.end());  // never seen
  for (const Request& r : ColdCompiles(3, 120)) {
    EXPECT_EQ(r.op.k % 64, 32);  // never a shape of the schedule
  }
  // Cross-check the Fig. 10 tunes come first, in a seeded order.
  std::vector<Request> tunes_a = TuneSequence(1, 12, 0);
  std::vector<Request> tunes_b = TuneSequence(2, 12, 0);
  EXPECT_EQ(tunes_a.size(), 12u);
  // `tune` takes all of them: more than a run at 0.3 s per tune gets to.
  EXPECT_EQ(TuneSequence(1, 1000, 0).size(), 126u);
  EXPECT_NE(RequestJson(tunes_a[0], 0) + RequestJson(tunes_a[1], 0),
            RequestJson(tunes_b[0], 0) + RequestJson(tunes_b[1], 0));
}

}  // namespace
}  // namespace perfbench
