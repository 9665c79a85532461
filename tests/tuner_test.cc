// Tests of the tuning stack: space enumeration, feature extraction, the
// gradient-boosted-tree model, the simulated-annealing proposer, and the
// four search strategies' relative quality (Table II / Fig. 13 behavior).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>

#include "analysis/resources.h"
#include "obs/metrics.h"
#include "schedule/tensor.h"
#include "sim/sim_cache.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "target/gpu_spec.h"
#include "tuner/anneal.h"
#include "tuner/feature.h"
#include "tuner/gbt.h"
#include "tuner/space.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

using schedule::GemmOp;
using schedule::MakeMatmul;
using schedule::ScheduleConfig;

// FNV-1a over the bit patterns of `values`: a compact pin of a vector of
// doubles that changes with any bit of any value (barring collisions).
uint64_t Fingerprint(const std::vector<double>& values,
                     uint64_t hash = 14695981039346656037ull) {
  for (double value : values) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

// ---- Space ----

TEST(SpaceTest, AllEnumeratedConfigsAreValid) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  std::vector<ScheduleConfig> space = tuner::EnumerateSpace(op);
  ASSERT_FALSE(space.empty());
  for (const ScheduleConfig& config : space) {
    EXPECT_TRUE(schedule::ValidateConfig(op, config)) << config.ToString();
  }
}

TEST(SpaceTest, RespectsShapeDivisibility) {
  // N = 64 rules out tb_n in {128, 256}.
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  for (const ScheduleConfig& config : tuner::EnumerateSpace(op)) {
    EXPECT_LE(config.tile.tb_n, 64);
  }
}

TEST(SpaceTest, VariantSpacesAreSubsets) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  size_t full = tuner::EnumerateSpace(op).size();
  size_t tvm = tuner::EnumerateSpace(op, tuner::SpaceOptions::NoPipelining()).size();
  size_t shared_only =
      tuner::EnumerateSpace(op, tuner::SpaceOptions::SharedPipeliningOnly()).size();
  EXPECT_LT(tvm, shared_only);
  EXPECT_LT(shared_only, full);
}

TEST(SpaceTest, DeterministicOrder) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  std::vector<ScheduleConfig> a = tuner::EnumerateSpace(op);
  std::vector<ScheduleConfig> b = tuner::EnumerateSpace(op);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(), b[i].ToString());
  }
}

// ---- Features ----

TEST(FeatureTest, FixedLengthAndFinite) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  target::GpuSpec spec = target::AmpereSpec();
  for (const ScheduleConfig& config : tuner::EnumerateSpace(op)) {
    std::vector<double> f = tuner::ExtractFeatures(op, config, spec);
    ASSERT_EQ(static_cast<int>(f.size()), tuner::kNumFeatures);
    for (double v : f) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(static_cast<int>(tuner::FeatureNames().size()),
            tuner::kNumFeatures);
}

TEST(FeatureTest, DistinguishesStageCounts) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  target::GpuSpec spec = target::AmpereSpec();
  ScheduleConfig a, b;
  a.smem_stages = 1;
  b.smem_stages = 4;
  EXPECT_NE(tuner::ExtractFeatures(op, a, spec),
            tuner::ExtractFeatures(op, b, spec));
}

// ---- GBT ----

TEST(GbtTest, FitsSimpleFunction) {
  // y = 3*x0 - 2*x1 on a grid; the ensemble should reach low error.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      x.push_back({static_cast<double>(i), static_cast<double>(j)});
      y.push_back(3.0 * i - 2.0 * j);
    }
  }
  tuner::GbtModel model;
  model.Fit(x, y);
  double max_err = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    max_err = std::max(max_err, std::abs(model.Predict(x[i]) - y[i]));
  }
  EXPECT_LT(max_err, 6.0);  // range of y is 95
}

TEST(GbtTest, FitsNonlinearInteraction) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    double a = rng.Uniform(0, 4), b = rng.Uniform(0, 4);
    x.push_back({a, b});
    y.push_back((a > 2 && b > 2) ? 10.0 : 0.0);
  }
  tuner::GbtModel model;
  model.Fit(x, y);
  EXPECT_GT(model.Predict({3.5, 3.5}), 7.0);
  EXPECT_LT(model.Predict({0.5, 0.5}), 3.0);
}

TEST(GbtTest, WeightsBiasTheFit) {
  // Two clusters with conflicting labels; heavy weights must win.
  std::vector<std::vector<double>> x = {{0.0}, {0.0}, {1.0}, {1.0}};
  std::vector<double> y = {0.0, 10.0, 0.0, 10.0};
  tuner::GbtModel model;
  model.Fit(x, y, {100.0, 1.0, 1.0, 100.0});
  EXPECT_LT(model.Predict({0.0}), 3.0);
  EXPECT_GT(model.Predict({1.0}), 7.0);
}

TEST(GbtTest, PredictBeforeFitThrows) {
  tuner::GbtModel model;
  EXPECT_FALSE(model.IsFitted());
  EXPECT_THROW(model.Predict({1.0}), CheckError);
}

TEST(GbtTest, EmptyFitThrows) {
  tuner::GbtModel model;
  EXPECT_THROW(model.Fit({}, {}), CheckError);
}

// Golden pin of the fitted ensemble, recorded before the level-wise
// builder replaced the recursive one: ~1,000 weighted rows whose features
// take few distinct values (long runs of equal values, where splits may
// not fall) plus a duplicated column (exactly tied gains, broken toward
// the lower feature index). Predictions must match bit for bit.
TEST(GbtTest, FitMatchesGolden) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  std::vector<double> w;
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    double a = static_cast<double>(rng.UniformInt(0, 3));
    double b = 0.5 * static_cast<double>(rng.UniformInt(0, 7));
    double c = rng.Uniform(0, 1);
    double d = static_cast<double>(rng.UniformInt(1, 2));
    x.push_back({a, b, a, c, d, 1.0});
    y.push_back(1.5 * a - b + (d > 1 ? 2.0 : 0.0) + rng.Uniform(-0.1, 0.1));
    w.push_back(i % 3 == 0 ? 1.0 : 0.25);
  }
  tuner::GbtModel shallow;
  shallow.Fit(x, y, w);
  tuner::GbtParams deep_params;
  deep_params.num_trees = 30;
  deep_params.max_depth = 7;
  deep_params.min_samples_leaf = 5;
  tuner::GbtModel deep(deep_params);
  deep.Fit(x, y, w);
  uint64_t shallow_print = Fingerprint(shallow.PredictBatch(x));
  uint64_t deep_print = Fingerprint(deep.PredictBatch(x));
  EXPECT_EQ(shallow_print, 0x8444c40876da6458ull) << std::hex << shallow_print;
  EXPECT_EQ(deep_print, 0x554be9bdb8fd5b8dull) << std::hex << deep_print;
}

// ---- Annealing ----

TEST(AnnealTest, NeighborRelationIsSingleKnob) {
  ScheduleConfig a;
  ScheduleConfig b = a;
  EXPECT_FALSE(tuner::AreNeighbors(a, b));  // identical
  b.smem_stages = 3;
  EXPECT_TRUE(tuner::AreNeighbors(a, b));
  b.reg_stages = 2;
  EXPECT_FALSE(tuner::AreNeighbors(a, b));  // two knobs differ
}

// The grouped neighbor-list build must find exactly the pairs the
// pairwise AreNeighbors scan finds, in ascending order, on every Fig. 10
// space (and with split-K enabled, which adds a tenth varying knob).
TEST(AnnealTest, NeighborListsMatchPairwiseScan) {
  for (const tuner::SpaceOptions& options :
       {tuner::SpaceOptions(), tuner::SpaceOptions::WithSplitK()}) {
    for (const GemmOp& op : workloads::BenchmarkOps()) {
      std::vector<ScheduleConfig> space = tuner::EnumerateSpace(op, options);
      std::vector<std::vector<size_t>> lists =
          tuner::BuildNeighborLists(space);
      ASSERT_EQ(lists.size(), space.size());
      for (size_t i = 0; i < space.size(); ++i) {
        std::vector<size_t> expected;
        for (size_t j = 0; j < space.size(); ++j) {
          if (tuner::AreNeighbors(space[i], space[j])) expected.push_back(j);
        }
        ASSERT_EQ(lists[i], expected) << op.name << " config " << i;
      }
    }
  }
}

TEST(AnnealTest, FindsHighScoringConfigs) {
  GemmOp op = MakeMatmul("mm", 512, 512, 512);
  std::vector<ScheduleConfig> space = tuner::EnumerateSpace(op);
  // Score favors deep pipelines on big tiles.
  auto score = [&space](size_t i) {
    return static_cast<double>(space[i].smem_stages * space[i].tile.tb_m);
  };
  Rng rng(1);
  std::vector<size_t> batch = tuner::ProposeBatch(
      space, tuner::BuildNeighborLists(space), score, {}, 5, rng);
  ASSERT_EQ(batch.size(), 5u);
  double best_possible = 0.0;
  for (size_t i = 0; i < space.size(); ++i) {
    best_possible = std::max(best_possible, score(i));
  }
  EXPECT_GE(score(batch[0]), 0.9 * best_possible);
}

TEST(AnnealTest, ExcludesMeasuredConfigs) {
  GemmOp op = MakeMatmul("mm", 256, 256, 256);
  std::vector<ScheduleConfig> space = tuner::EnumerateSpace(op);
  std::unordered_set<size_t> exclude;
  for (size_t i = 0; i < space.size() / 2; ++i) exclude.insert(i);
  auto score = [](size_t) { return 1.0; };
  Rng rng(2);
  std::vector<size_t> batch =
      tuner::ProposeBatch(space, tuner::BuildNeighborLists(space), score,
                          exclude, 10, rng);
  for (size_t index : batch) {
    EXPECT_EQ(exclude.count(index), 0u);
  }
  // No duplicates.
  std::set<size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), batch.size());
}

// ---- Strategies ----

// A synthetic task with a known measurement function, so strategy tests do
// not depend on simulator runtime.
tuner::TuningTask SyntheticTask() {
  tuner::TuningTask task;
  task.op = MakeMatmul("mm", 1024, 256, 2048);
  task.spec = target::AmpereSpec();
  task.space = tuner::EnumerateSpace(task.op);
  task.measure = [&task](const ScheduleConfig& config) {
    // A smooth landscape with a known optimum at deep pipelines, large-ish
    // tiles; analytical-model-like shape.
    double cycles = 1e6;
    cycles /= static_cast<double>(config.tile.tb_m) / 64.0;
    cycles /= static_cast<double>(config.tile.tb_n) / 64.0;
    cycles *= 1.0 + 0.5 / config.smem_stages;
    cycles *= 1.0 + 0.2 / config.reg_stages;
    return cycles;
  };
  return task;
}

TEST(StrategyTest, ExhaustiveFindsTheTrueOptimum) {
  tuner::TuningTask task = SyntheticTask();
  tuner::TuningResult result = tuner::ExhaustiveSearch(task);
  ASSERT_EQ(result.trials.size(), task.space.size());
  double best = result.BestInFirstK(result.trials.size());
  for (const ScheduleConfig& config : task.space) {
    EXPECT_GE(task.measure(config), best);
  }
}

TEST(StrategyTest, BestInFirstKIsMonotone) {
  tuner::TuningTask task = SyntheticTask();
  tuner::TuningResult result = tuner::GridSearch(task, 50);
  for (size_t k = 2; k <= 50; ++k) {
    EXPECT_LE(result.BestInFirstK(k), result.BestInFirstK(k - 1));
  }
}

TEST(StrategyTest, XgbTunerMeasuresDistinctConfigs) {
  tuner::TuningTask task = SyntheticTask();
  tuner::TuningResult result = tuner::XgbTuner(task, 40, {});
  std::set<size_t> unique(result.trials.begin(), result.trials.end());
  EXPECT_EQ(unique.size(), result.trials.size());
  EXPECT_EQ(result.trials.size(), 40u);
}

TEST(StrategyTest, XgbBeatsGridAtSmallBudgets) {
  tuner::TuningTask task = SyntheticTask();
  double exhaustive_best =
      tuner::ExhaustiveSearch(task).BestInFirstK(task.space.size());
  double grid = tuner::GridSearch(task, 40).BestInFirstK(40);
  // Average XGB over seeds to keep the test robust.
  double xgb_sum = 0.0;
  for (uint64_t seed : {1, 2, 3}) {
    tuner::XgbOptions options;
    options.seed = seed;
    xgb_sum += tuner::XgbTuner(task, 40, options).BestInFirstK(40);
  }
  double xgb = xgb_sum / 3.0;
  EXPECT_LT(xgb, grid);
  EXPECT_LE(exhaustive_best, xgb);
}

// The PR 2 invariant: every strategy's TuningResult — trial order AND
// measured cycles — is bit-identical whatever ALCOP_THREADS is, because
// proposal/refit stay on the caller thread and measurement slots are
// owned per index. Runs the real simulator (cold cache each time) so
// concurrent compiles are exercised, not just cache lookups.
TEST(StrategyTest, ResultsAreThreadCountInvariant) {
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  tuner::SpaceOptions space_options;
  space_options.tb_m = {64, 128};
  space_options.tb_n = {32, 64};
  space_options.tb_k = {32, 64};
  space_options.warp_splits = {{2, 1}, {2, 2}};
  tuner::TuningTask task =
      tuner::MakeSimulatorTask(op, target::AmpereSpec(), space_options);
  ASSERT_GE(task.space.size(), 20u);

  auto run_all = [&]() {
    sim::ResetSimCache();  // force real concurrent compiles
    std::vector<tuner::TuningResult> results;
    results.push_back(tuner::ExhaustiveSearch(task));
    results.push_back(tuner::GridSearch(task, 12));
    results.push_back(tuner::AnalyticalRanking(task, 12));
    tuner::XgbOptions options;
    options.seed = 5;
    options.pretrain_with_analytical = true;
    results.push_back(tuner::XgbTuner(task, 24, options));
    options.pretrain_with_analytical = false;
    results.push_back(tuner::XgbTuner(task, 24, options));
    return results;
  };

  support::SetGlobalThreads(1);
  std::vector<tuner::TuningResult> serial = run_all();
  for (int threads : {2, 8}) {
    support::SetGlobalThreads(threads);
    std::vector<tuner::TuningResult> parallel = run_all();
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t s = 0; s < serial.size(); ++s) {
      EXPECT_EQ(serial[s].trials, parallel[s].trials)
          << "strategy " << s << " at " << threads << " threads";
      EXPECT_EQ(serial[s].measured, parallel[s].measured)
          << "strategy " << s << " at " << threads << " threads";
    }
  }
  support::SetGlobalThreads(support::ThreadsFromEnv());
}

TEST(GbtTest, PredictBatchMatchesPredict) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    double a = rng.Uniform(0, 4), b = rng.Uniform(0, 4);
    x.push_back({a, b});
    y.push_back(a * b - a);
  }
  tuner::GbtModel model;
  model.Fit(x, y);
  for (int threads : {1, 8}) {
    support::SetGlobalThreads(threads);
    std::vector<double> batch = model.PredictBatch(x);
    ASSERT_EQ(batch.size(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(batch[i], model.Predict(x[i]));
    }
  }
  support::SetGlobalThreads(support::ThreadsFromEnv());
}

TEST(GbtTest, FitIsThreadCountInvariant) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    std::vector<double> row;
    for (int f = 0; f < 6; ++f) row.push_back(rng.Uniform(0, 10));
    x.push_back(row);
    y.push_back(row[0] * 2.0 - row[3] + (row[1] > 5 ? 4.0 : 0.0));
  }
  support::SetGlobalThreads(1);
  tuner::GbtModel serial;
  serial.Fit(x, y);
  std::vector<double> serial_pred = serial.PredictBatch(x);
  support::SetGlobalThreads(8);
  tuner::GbtModel parallel;
  parallel.Fit(x, y);
  std::vector<double> parallel_pred = parallel.PredictBatch(x);
  EXPECT_EQ(serial_pred, parallel_pred);
  support::SetGlobalThreads(support::ThreadsFromEnv());
}

// The search log's contract: logging never changes the search; a
// model-guided round fits the model once, before its first proposal, on
// measurements it has not been fit on; nothing is fit after the final
// round; and the tuner.refits counter counts exactly the logged fits.
TEST(StrategyTest, TelemetryRefitsOnlyBeforeModelGuidedRounds) {
  tuner::TuningTask task = SyntheticTask();
  obs::Counter& refit_counter =
      obs::Registry::Global().GetCounter("tuner.refits");
  struct Case {
    bool pretrain;
    bool warm;
    size_t refits;  // 32 trials in batches of 8
  };
  for (const Case& c : {Case{true, true, 3}, Case{true, false, 4},
                        Case{false, true, 3}, Case{false, false, 3}}) {
    tuner::XgbOptions options;
    options.seed = 3;
    options.pretrain_with_analytical = c.pretrain;
    if (c.warm) options.warm_seeds = {0, 5, 10, 15, 20, 25, 30, 35};
    tuner::TuningResult quiet = tuner::XgbTuner(task, 32, options);

    std::vector<tuner::TrialEvent> events;
    options.logger = [&events](const tuner::TrialEvent& event) {
      events.push_back(event);
    };
    uint64_t refits_before = refit_counter.Value();
    tuner::TuningResult logged = tuner::XgbTuner(task, 32, options);
    EXPECT_EQ(logged.trials, quiet.trials);
    EXPECT_EQ(logged.measured, quiet.measured);

    using Kind = tuner::TrialEvent::Kind;
    size_t refits = 0;
    size_t measured = 0;
    size_t last_fit_trials = 0;
    int last_proposed_round = -1;  // warm seeds are proposed as round -1
    bool pending_refit = false;  // a kRefit not yet followed by a proposal
    for (const tuner::TrialEvent& event : events) {
      switch (event.kind) {
        case Kind::kRefit:
          EXPECT_FALSE(pending_refit) << "two fits before one round";
          EXPECT_EQ(event.round, last_proposed_round + 1);
          EXPECT_EQ(static_cast<size_t>(event.training_size), measured);
          if (refits > 0) {
            EXPECT_GT(measured, last_fit_trials);
          }
          last_fit_trials = measured;
          pending_refit = true;
          ++refits;
          break;
        case Kind::kProposed:
          if (event.round != last_proposed_round && event.round >= 0) {
            // First proposal of a round: model-guided exactly when a
            // fit precedes it.
            EXPECT_EQ(pending_refit, !std::isnan(event.predicted_score))
                << "round " << event.round;
          }
          pending_refit = false;
          last_proposed_round = event.round;
          break;
        case Kind::kMeasured:
          ++measured;
          break;
      }
    }
    EXPECT_FALSE(pending_refit) << "a fit follows the final round";
    EXPECT_EQ(events.back().kind, Kind::kMeasured);
    EXPECT_EQ(measured, 32u);
    EXPECT_EQ(refits, c.refits)
        << "pretrain=" << c.pretrain << " warm=" << c.warm;
    EXPECT_EQ(refit_counter.Value() - refits_before, refits);
  }
}

// Golden pin of XgbTuner on one Fig. 10 operator per space size (1,920,
// 960 and 1,440 configs), with and without analytical pretraining: a cold
// search, then a second search warm-seeded from the first through a
// TuningStore. Recorded before the lazy refit and the level-wise GBT
// builder; how fast the cost model fits may change, which configs the
// search measures (and what they measure) may not.
TEST(StrategyTest, XgbSearchesMatchGolden) {
  struct Golden {
    const char* op;
    bool pretrain;
    uint64_t cold;
    uint64_t warm;
  };
  const Golden goldens[] = {
      {"MM_BERT_FC2", false, 0x59311ed33e45754ull, 0xf825041bb13a20c1ull},
      {"MM_BERT_FC2", true, 0xe30898c918e32ff4ull, 0xe88452a436f297e5ull},
      {"MM_RN50_FC", false, 0x3da3f4652ab25b8full, 0xc1560e0b2013145dull},
      {"MM_RN50_FC", true, 0x7dabaca6aac1d01eull, 0xec4bc5cf13596aa8ull},
      {"Conv_RN50_3x3", false, 0x1a22490476bb026eull, 0xd667e04291477e78ull},
      {"Conv_RN50_3x3", true, 0x9448b751f1fe6b6bull, 0x4c8e59e8995766d3ull},
  };
  auto fingerprint = [](const tuner::TuningResult& result) {
    std::vector<double> trials(result.trials.begin(), result.trials.end());
    return Fingerprint(result.measured, Fingerprint(trials));
  };
  for (const Golden& golden : goldens) {
    tuner::TuningTask task = tuner::MakeSimulatorTask(
        workloads::FindOp(golden.op), target::AmpereSpec());
    tuner::XgbOptions options;
    options.seed = 7;
    options.pretrain_with_analytical = golden.pretrain;
    tuner::TuningResult cold = tuner::XgbTuner(task, 32, options);
    tuner::TuningStore store;
    tuner::StoreTuning(task, cold, store);
    options.warm_seeds = tuner::FindWarmStart(task, store).seeds;
    ASSERT_FALSE(options.warm_seeds.empty()) << golden.op;
    tuner::TuningResult warm = tuner::XgbTuner(task, 32, options);
    ASSERT_EQ(cold.trials.size(), 32u) << golden.op;
    ASSERT_EQ(warm.trials.size(), 32u) << golden.op;
    EXPECT_EQ(fingerprint(cold), golden.cold)
        << golden.op << " pretrain=" << golden.pretrain << " cold 0x"
        << std::hex << fingerprint(cold);
    EXPECT_EQ(fingerprint(warm), golden.warm)
        << golden.op << " pretrain=" << golden.pretrain << " warm 0x"
        << std::hex << fingerprint(warm);
  }
}

// ModelKeepSet ranks only the configs CheckConfigFeasibility admits, so
// the model-guided pre-filter is safe only while that static verdict
// agrees with the simulator's own. Check it over a space that straddles
// the occupancy cliff.
TEST(StrategyTest, StaticFeasibilityAgreesWithSimulator) {
  GemmOp op = MakeMatmul("mm", 512, 512, 1024);
  tuner::SpaceOptions options;
  // 64-wide tiles fit at any stage count; 256x256 tiles at 4 shared
  // stages want 256 KB of shared memory and cannot fit one SM.
  options.tb_m = {64, 256};
  options.tb_n = {64, 256};
  options.tb_k = {32, 64};
  options.warp_splits = {{2, 2}, {2, 4}};
  options.smem_stages = {2, 4};
  target::GpuSpec spec = target::AmpereSpec();
  std::vector<schedule::ScheduleConfig> space =
      tuner::EnumerateSpace(op, options);
  ASSERT_GE(space.size(), 8u);

  size_t infeasible = 0;
  for (const schedule::ScheduleConfig& config : space) {
    bool simulated = sim::CompileAndSimulate(op, config, spec).feasible;
    EXPECT_EQ(analysis::CheckConfigFeasibility(op, config, spec).feasible,
              simulated)
        << config.ToString();
    infeasible += !simulated;
  }
  EXPECT_GT(infeasible, 0u) << "space must contain infeasible configs";
  EXPECT_LT(infeasible, space.size());
}

TEST(StrategyTest, PretrainingHelpsEarlyTrials) {
  // Fig. 13's core claim: Analytical+XGB finds good schedules with very
  // few trials because the first batch is already model-guided. Use the
  // real simulator on a small space so the analytical prior is meaningful.
  GemmOp op = MakeMatmul("mm", 1024, 64, 2048);
  tuner::SpaceOptions options;
  options.tb_m = {64, 128};
  options.tb_n = {32, 64};
  options.tb_k = {32, 64};
  options.warp_splits = {{2, 1}, {2, 2}};
  tuner::TuningTask task =
      tuner::MakeSimulatorTask(op, target::AmpereSpec(), options);
  ASSERT_GE(task.space.size(), 20u);

  double plain_sum = 0.0, pretrained_sum = 0.0;
  for (uint64_t seed : {1, 2, 3, 4}) {
    tuner::XgbOptions plain;
    plain.seed = seed;
    tuner::XgbOptions pretrained;
    pretrained.seed = seed;
    pretrained.pretrain_with_analytical = true;
    plain_sum += tuner::XgbTuner(task, 8, plain).BestInFirstK(8);
    pretrained_sum += tuner::XgbTuner(task, 8, pretrained).BestInFirstK(8);
  }
  EXPECT_LE(pretrained_sum, plain_sum);
}

}  // namespace
}  // namespace alcop
