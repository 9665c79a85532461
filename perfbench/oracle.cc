// The correctness oracle, run after the timed section: every compile
// answer against sim::InterpretKernel (the AST interpreter the bytecode
// replay must match bit for bit), every tune's best_cycles against the
// interpreter on its best_config, and each distinct best config through
// the functional executor against the reference GEMM on a reduced shape.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <thread>

#include "bench.h"
#include "sim/executor.h"
#include "sim/launch.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"

namespace perfbench {

namespace {

using alcop::schedule::GemmOp;
using alcop::schedule::ScheduleConfig;
using alcop::sim::KernelTiming;

void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  size_t workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) body(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

KernelTiming OracleTiming(const GemmOp& op, const ScheduleConfig& config) {
  const alcop::target::GpuSpec spec = alcop::target::AmpereSpec();
  std::string why;
  if (!alcop::schedule::ValidateConfig(op, config, &why)) return KernelTiming{};
  return alcop::sim::InterpretKernel(alcop::sim::CompileKernel(op, config, spec),
                                     spec);
}

bool SameTiming(const Sent& sent, const KernelTiming& t) {
  if (sent.feasible != t.feasible) return false;
  if (!t.feasible) return true;
  return sent.cycles == t.cycles && sent.microseconds == t.microseconds &&
         sent.tflops == t.tflops && sent.tbs_per_sm == t.threadblocks_per_sm &&
         sent.batches == t.batches;
}

// Runs `config` on a reduced shape of the same family (one tile in M and
// N, several pipeline rounds in K) through the functional executor and
// compares with the reference GEMM. False on a mismatch or an
// asynchronous-visibility violation.
bool FunctionalCheck(const GemmOp& full, const ScheduleConfig& config) {
  GemmOp op = full;
  op.batch = 1;
  op.m = config.tile.tb_m;
  op.n = config.tile.tb_n;
  op.k = config.tile.tb_k * config.split_k * (config.smem_stages + 2);
  if (!alcop::schedule::ValidateConfig(op, config, nullptr)) return false;
  alcop::sim::CompiledKernel compiled =
      alcop::sim::CompileKernel(op, config, alcop::target::AmpereSpec());
  SeededRng rng(0x6f7261636c65ull);
  auto random = [&](int64_t count) {
    std::vector<float> data(static_cast<size_t>(count));
    for (float& v : data) v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    return data;
  };
  std::vector<float> a = random(op.m * op.k);
  std::vector<float> b = random(op.n * op.k);
  try {
    alcop::sim::Executor exec;
    exec.Bind(compiled.kernel.a, a);
    exec.Bind(compiled.kernel.b, b);
    exec.Run(compiled.transformed.stmt);
    std::vector<float> expected = alcop::sim::ReferenceGemm(
        a, b, 1, op.m, op.n, op.k, op.a_producer_op, op.a_producer_param,
        op.epilogue_op, op.epilogue_param);
    const std::vector<float>& got = exec.Data(compiled.kernel.c);
    if (got.size() != expected.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (std::fabs(got[i] - expected[i]) >
          1e-3f * std::max(1.0f, std::fabs(expected[i]))) {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

uint64_t CheckAnswers(Run* run) {
  // Oracle timing per distinct compile request that was answered.
  std::vector<size_t> compiles;
  std::vector<size_t> tunes;
  for (size_t i = 0; i < run->sent.size(); ++i) {
    const Sent& sent = run->sent[i];
    if (!sent.times.ok) continue;
    if (run->requests[sent.request].kind == Kind::kTune) {
      tunes.push_back(i);
    } else {
      compiles.push_back(sent.request);
    }
  }
  std::sort(compiles.begin(), compiles.end());
  compiles.erase(std::unique(compiles.begin(), compiles.end()), compiles.end());
  std::map<size_t, KernelTiming> expected;
  std::vector<KernelTiming> timings(compiles.size());
  ParallelFor(compiles.size(), [&](size_t i) {
    const Request& request = run->requests[compiles[i]];
    timings[i] = OracleTiming(request.op, request.config);
  });
  for (size_t i = 0; i < compiles.size(); ++i) {
    expected[compiles[i]] = timings[i];
  }

  // Tunes: locate best_config in the daemon's (default) space, then the
  // interpreter's cycles must equal best_cycles.
  std::vector<KernelTiming> tune_timings(tunes.size());
  std::vector<ScheduleConfig> tune_configs(tunes.size());
  std::vector<char> tune_found(tunes.size(), 0);
  ParallelFor(tunes.size(), [&](size_t i) {
    const Sent& sent = run->sent[tunes[i]];
    const GemmOp& op = run->requests[sent.request].op;
    for (const ScheduleConfig& config : alcop::tuner::EnumerateSpace(op)) {
      if (config.ToString() != sent.best_config) continue;
      tune_configs[i] = config;
      tune_found[i] = 1;
      tune_timings[i] = OracleTiming(op, config);
      break;
    }
  });
  // Functional check once per distinct (family, best config).
  std::map<std::string, size_t> distinct;
  for (size_t i = 0; i < tunes.size(); ++i) {
    if (!tune_found[i]) continue;
    const GemmOp& op = run->requests[run->sent[tunes[i]].request].op;
    distinct.emplace(std::string(alcop::schedule::OpFamilyName(op.family)) +
                         "|" + tune_configs[i].ToString(),
                     i);
  }
  std::vector<std::pair<std::string, size_t>> checks(distinct.begin(),
                                                     distinct.end());
  std::vector<char> functional_ok(checks.size(), 0);
  ParallelFor(checks.size(), [&](size_t i) {
    size_t t = checks[i].second;
    functional_ok[i] = FunctionalCheck(
        run->requests[run->sent[tunes[t]].request].op, tune_configs[t]);
  });
  std::map<std::string, bool> functional;
  for (size_t i = 0; i < checks.size(); ++i) {
    functional[checks[i].first] = functional_ok[i] != 0;
  }

  uint64_t mismatches = 0;
  for (Sent& sent : run->sent) {
    if (!sent.times.ok || run->requests[sent.request].kind == Kind::kTune) {
      continue;
    }
    if (!SameTiming(sent, expected[sent.request])) {
      sent.times.ok = false;
      ++mismatches;
    }
  }
  for (size_t i = 0; i < tunes.size(); ++i) {
    Sent& sent = run->sent[tunes[i]];
    const GemmOp& op = run->requests[sent.request].op;
    bool ok = tune_found[i] && tune_timings[i].feasible &&
              tune_timings[i].cycles == sent.cycles &&
              functional[std::string(alcop::schedule::OpFamilyName(op.family)) +
                         "|" + tune_configs[i].ToString()];
    // A tune answer carries no throughput; the oracle's is the simulated
    // TFLOPS of the schedule the tune returned.
    sent.tflops = tune_timings[i].tflops;
    if (!ok) {
      sent.times.ok = false;
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench
