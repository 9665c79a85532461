// Tests of the persistent on-disk schedule cache (serving/persist.h):
// bit-identical round trips through save/reset/load, whole-file rejection
// on version/spec/fitted-constants mismatch, tolerance of truncated and
// corrupted files, and concurrent readers/writers against one path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "schedule/tensor.h"
#include "serving/persist.h"
#include "sim/compile.h"
#include "sim/sim_cache.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"

namespace alcop {
namespace {

using schedule::MakeMatmul;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Fresh process-wide state and a unique file path per test.
class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ResetSimCache();
    sim::ResetSkeletonPool();
    tuner::TuningStore::Global().Clear();
    path_ = ::testing::TempDir() + "/alcop_persist_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".alcp";
    std::remove(path_.c_str());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    sim::ResetSimCache();
    sim::ResetSkeletonPool();
    tuner::TuningStore::Global().Clear();
  }

  // Populates both cache layers with real compiled entries: several
  // schedules of one operator (numerically-different configs share a
  // skeleton, so the save must write fewer skeleton records than
  // program records) plus a couple of shape variants.
  void Populate(const target::GpuSpec& spec) {
    schedule::GemmOp op = MakeMatmul("mm", 512, 512, 512);
    tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec);
    // Walk the space until the pool reports sharing so the save always
    // has at least one skeleton referenced by multiple programs.
    for (size_t c = 0; c < task.space.size(); ++c) {
      sim::CachedCompileAndSimulate(op, task.space[c], spec);
      if (sim::GetSkeletonPoolStats().shared > 0 && c >= 3) break;
    }
    schedule::ScheduleConfig config;  // defaults are feasible on Ampere
    for (int64_t k : {1024, 1536}) {
      sim::CachedCompileAndSimulate(MakeMatmul("mm", 512, 512, k), config,
                                    spec);
    }
  }

  std::string ReadFile() {
    std::ifstream in(path_, std::ios::binary);
    EXPECT_TRUE(in.good());
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return data;
  }

  void WriteFile(const std::string& data) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }

  std::string path_;
  uint64_t saved_records_ = 0;
};

// File layout constants (serving/persist.h): the header, and the offsets
// inside a skeleton record's payload.
constexpr size_t kHeaderBytes = 24;
constexpr size_t kSkeletonHashOffset = 14;  // u8 type, u64 id, i32, u8
constexpr size_t kSkeletonOpsOffset = 26;   // ... u64 hash, u32 op count

uint32_t Fnv32(const char* data, size_t size) {
  uint32_t hash = 2166136261u;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<uint8_t>(data[i]);
    hash *= 16777619u;
  }
  return hash;
}

TEST_F(PersistTest, TimingRoundTripIsBitIdentical) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  std::vector<std::pair<std::string, sim::KernelTiming>> before =
      sim::SnapshotCachedTimings();
  ASSERT_GE(before.size(), 4u);

  serving::PersistStats saved = serving::SaveCache(path_, spec);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.timings, before.size());
  EXPECT_GT(saved.bytes, 0u);

  sim::ResetSimCache();
  ASSERT_TRUE(sim::SnapshotCachedTimings().empty());

  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.timings, before.size());
  EXPECT_EQ(loaded.skipped, 0u);

  std::map<std::string, sim::KernelTiming> after;
  for (auto& [key, timing] : sim::SnapshotCachedTimings()) {
    after.emplace(key, timing);
  }
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [key, timing] : before) {
    auto it = after.find(key);
    ASSERT_NE(it, after.end()) << key;
    EXPECT_EQ(timing.feasible, it->second.feasible);
    EXPECT_EQ(timing.reason, it->second.reason);
    EXPECT_TRUE(BitEqual(timing.cycles, it->second.cycles));
    EXPECT_TRUE(BitEqual(timing.microseconds, it->second.microseconds));
    EXPECT_TRUE(BitEqual(timing.tflops, it->second.tflops));
    EXPECT_TRUE(BitEqual(timing.batch_cycles, it->second.batch_cycles));
    EXPECT_EQ(timing.threadblocks_per_sm, it->second.threadblocks_per_sm);
    EXPECT_EQ(timing.batches, it->second.batches);
  }
}

TEST_F(PersistTest, LoadedProgramsReplayBitIdentically) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  std::vector<std::pair<std::string, sim::KernelTiming>> before =
      sim::SnapshotCachedTimings();

  serving::PersistStats saved = serving::SaveCache(path_, spec);
  ASSERT_TRUE(saved.ok) << saved.error;
  ASSERT_GT(saved.programs, 0u);
  ASSERT_GT(saved.skeletons, 0u);
  // Structure sharing survives serialization: fewer skeleton records
  // than program records (same-op schedules share skeletons).
  EXPECT_LT(saved.skeletons, saved.programs);

  sim::ResetSimCache();
  sim::ResetSkeletonPool();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.programs, saved.programs);

  sim::ReplayArena arena;
  std::map<std::string, sim::KernelTiming> before_map(before.begin(),
                                                      before.end());
  for (auto& [key, program] : sim::SnapshotCachedPrograms()) {
    ASSERT_NE(program, nullptr);
    sim::KernelTiming replayed = sim::ReplaySimProgram(*program, &arena);
    auto it = before_map.find(key);
    ASSERT_NE(it, before_map.end()) << key;
    EXPECT_TRUE(BitEqual(replayed.cycles, it->second.cycles)) << key;
    EXPECT_TRUE(BitEqual(replayed.tflops, it->second.tflops)) << key;
  }
  // Loaded skeletons were re-interned, not duplicated.
  EXPECT_EQ(sim::GetSkeletonPoolStats().skeletons, loaded.skeletons);
}

TEST_F(PersistTest, TuningStoreRoundTrips) {
  target::GpuSpec spec = target::AmpereSpec();
  tuner::SpaceOptions options;
  options.tb_m = {64, 128};
  options.tb_n = {64};
  options.tb_k = {32};
  tuner::TuningTask task =
      tuner::MakeSimulatorTask(MakeMatmul("mm", 512, 768, 1024), spec, options);
  ASSERT_FALSE(task.space.empty());
  tuner::TuningResult result = tuner::XgbTuner(task, 6, {});
  tuner::StoreTuning(task, result, tuner::TuningStore::Global());
  ASSERT_EQ(tuner::TuningStore::Global().Size(), 1u);
  std::vector<tuner::StoredTuning> before =
      tuner::TuningStore::Global().Snapshot();

  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);
  tuner::TuningStore::Global().Clear();
  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.tunings, 1u);

  std::vector<tuner::StoredTuning> after =
      tuner::TuningStore::Global().Snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].op_key, before[0].op_key);
  ASSERT_EQ(after[0].trials.size(), before[0].trials.size());
  for (size_t i = 0; i < after[0].trials.size(); ++i) {
    EXPECT_EQ(after[0].trials[i].config.ToString(),
              before[0].trials[i].config.ToString());
    EXPECT_TRUE(BitEqual(after[0].trials[i].cycles, before[0].trials[i].cycles));
  }
  ASSERT_EQ(after[0].signature.size(), before[0].signature.size());
  for (size_t i = 0; i < after[0].signature.size(); ++i) {
    EXPECT_TRUE(BitEqual(after[0].signature[i], before[0].signature[i]));
  }

  // Warm restart, alcopd's way: the reloaded best is answered from the
  // timing layer without a compile, bit-equal to what the search found.
  std::optional<tuner::StoredTrial> best = after[0].Best();
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(
      BitEqual(best->cycles, result.BestInFirstK(result.trials.size())));
  uint64_t misses_before = sim::GetSimCacheStats().misses;
  sim::KernelTiming timing =
      sim::CachedCompileAndSimulate(task.op, best->config, spec);
  EXPECT_EQ(sim::GetSimCacheStats().misses, misses_before);
  EXPECT_TRUE(BitEqual(timing.cycles, best->cycles));
}

TEST_F(PersistTest, MissingFileFailsCleanly) {
  serving::PersistStats loaded =
      serving::LoadCache(path_, target::AmpereSpec());
  EXPECT_FALSE(loaded.ok);
  EXPECT_FALSE(loaded.error.empty());
  EXPECT_EQ(loaded.timings, 0u);
}

TEST_F(PersistTest, VersionMismatchRejectsWholeFile) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  // Header layout: u32 magic | u32 version | u64 spec fp | u64 fit fp.
  std::string data = ReadFile();
  ASSERT_GE(data.size(), 24u);
  uint32_t bumped = serving::kPersistVersion + 1;
  std::memcpy(data.data() + 4, &bumped, sizeof(bumped));
  WriteFile(data);

  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("version"), std::string::npos) << loaded.error;
  EXPECT_TRUE(sim::SnapshotCachedTimings().empty()) << "partial load";
}

TEST_F(PersistTest, BadMagicRejectsWholeFile) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);
  std::string data = ReadFile();
  data[0] ^= 0x5A;
  WriteFile(data);
  sim::ResetSimCache();
  EXPECT_FALSE(serving::LoadCache(path_, spec).ok);
}

TEST_F(PersistTest, SpecNumericsMismatchRejectsWholeFile) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  target::GpuSpec other = spec;
  other.num_sms += 4;  // different device geometry, same model fit
  ASSERT_NE(serving::SpecFingerprint(spec), serving::SpecFingerprint(other));
  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, other);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("Spec"), std::string::npos) << loaded.error;
}

TEST_F(PersistTest, FittedConstantsMismatchRejectsWholeFile) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  // A refit changes model_fit but not the cache-key numerics: the keys
  // would still match, so only the fitted-constants fingerprint stands
  // between a stale file and silent reuse.
  target::GpuSpec refit = spec;
  refit.model_fit.t_compute.scale *= 1.25;
  refit.model_fit.t_compute.fitted = true;
  ASSERT_EQ(serving::SpecFingerprint(spec), serving::SpecFingerprint(refit));
  ASSERT_NE(serving::FittedConstantsFingerprint(spec),
            serving::FittedConstantsFingerprint(refit));

  sim::ResetSimCache();
  serving::PersistStats loaded = serving::LoadCache(path_, refit);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("fitted"), std::string::npos) << loaded.error;
}

TEST_F(PersistTest, TruncatedTailIsTolerated) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  serving::PersistStats saved = serving::SaveCache(path_, spec);
  ASSERT_TRUE(saved.ok);
  saved_records_ = saved.timings + saved.programs;
  std::string data = ReadFile();

  // Chop the file mid-frame: everything before the tear loads, the torn
  // frame is skipped, and load still reports ok.
  const size_t cut = data.size() - data.size() / 3;
  WriteFile(data.substr(0, cut));
  uint64_t whole_frames = 0;
  for (size_t pos = kHeaderBytes; pos + 8 <= cut;) {
    uint32_t len = 0;
    std::memcpy(&len, data.data() + pos, sizeof(len));
    if (pos + 8 + len > cut) break;
    ++whole_frames;
    pos += 8 + len;
  }
  sim::ResetSimCache();
  sim::ResetSkeletonPool();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.skipped, 1u);
  EXPECT_EQ(loaded.skip_reason, "truncated frame");
  EXPECT_EQ(loaded.skeletons + loaded.programs + loaded.timings +
                loaded.tunings,
            whole_frames);
  EXPECT_LT(loaded.timings + loaded.programs, saved_records_);

  // Header-only (and shorter) files fail cleanly rather than crash.
  for (size_t keep : {0u, 7u, 23u}) {
    WriteFile(data.substr(0, keep));
    sim::ResetSimCache();
    EXPECT_FALSE(serving::LoadCache(path_, spec).ok) << keep;
  }
}

TEST_F(PersistTest, CorruptFrameIsSkippedNotFatal) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  serving::PersistStats saved = serving::SaveCache(path_, spec);
  ASSERT_TRUE(saved.ok);
  std::string data = ReadFile();

  // Flip one payload byte past the header and first frame prefix: that
  // frame's checksum no longer matches, the loader skips it and resyncs.
  data[data.size() / 2] ^= 0xFF;
  WriteFile(data);
  sim::ResetSimCache();
  sim::ResetSkeletonPool();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  EXPECT_TRUE(loaded.ok) << loaded.error;
  EXPECT_GE(loaded.skipped, 1u);
  uint64_t total_saved = saved.timings + saved.programs + saved.skeletons +
                         saved.tunings;
  uint64_t total_loaded = loaded.timings + loaded.programs +
                          loaded.skeletons + loaded.tunings;
  EXPECT_LT(total_loaded, total_saved);
  EXPECT_GT(total_loaded, 0u) << "corruption of one frame dropped everything";
}

// A skeleton frame whose trip count was rewritten — with its structural
// hash and frame checksum recomputed, so only the structural check can
// catch it — is refused with a reason, and so is every program that
// references it; everything else loads and replays.
TEST_F(PersistTest, CorruptTripCountIsRefusedWithReason) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  // The corruption target: a cached program whose skeleton rolls a loop
  // with commits in its body.
  std::shared_ptr<const sim::MicroOpSkeleton> victim;
  size_t begin_index = 0;
  for (const auto& [key, program] : sim::SnapshotCachedPrograms()) {
    const sim::MicroOpSkeleton* skeleton = program->program.skeleton.get();
    if (skeleton == nullptr || victim != nullptr) continue;
    size_t begin = 0;
    for (size_t i = 0; i < skeleton->ops.size(); ++i) {
      const sim::MicroOpKind kind = skeleton->ops[i].kind;
      if (kind == sim::MicroOpKind::kLoopBegin) begin = i;
      if (kind == sim::MicroOpKind::kCommit && begin > 0) {
        victim = program->program.skeleton;
        begin_index = begin;
        break;
      }
      if (kind == sim::MicroOpKind::kLoopEnd) begin = 0;
    }
  }
  ASSERT_NE(victim, nullptr) << "no rolled loop among the cached programs";
  sim::MicroOpSkeleton corrupt = *victim;
  corrupt.ops[begin_index].aux += 1;
  corrupt.hash = sim::SkeletonHash(corrupt);

  serving::PersistStats saved = serving::SaveCache(path_, spec);
  ASSERT_TRUE(saved.ok) << saved.error;
  std::string data = ReadFile();
  bool patched = false;
  for (size_t pos = kHeaderBytes; pos + 8 <= data.size();) {
    uint32_t len = 0;
    std::memcpy(&len, data.data() + pos, sizeof(len));
    char* payload = data.data() + pos + 8;
    uint64_t hash = 0;
    if (payload[0] == 1) {  // skeleton record
      std::memcpy(&hash, payload + kSkeletonHashOffset, sizeof(hash));
    }
    if (hash == victim->hash) {
      std::memcpy(payload + kSkeletonHashOffset, &corrupt.hash,
                  sizeof(corrupt.hash));
      std::memcpy(payload + kSkeletonOpsOffset +
                      begin_index * sizeof(sim::MicroOp),
                  &corrupt.ops[begin_index], sizeof(sim::MicroOp));
      const uint32_t checksum = Fnv32(payload, len);
      std::memcpy(data.data() + pos + 4, &checksum, sizeof(checksum));
      patched = true;
    }
    pos += 8 + len;
  }
  ASSERT_TRUE(patched);
  WriteFile(data);

  sim::ResetSimCache();
  sim::ResetSkeletonPool();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_GE(loaded.skipped, 2u);  // the skeleton and its program(s)
  EXPECT_EQ(loaded.skip_reason,
            "malformed skeleton: group max_commits disagrees with the "
            "commits its body issues");
  EXPECT_EQ(loaded.skeletons, saved.skeletons - 1);
  EXPECT_EQ(loaded.programs + loaded.skipped - 1, saved.programs);
  sim::ReplayArena arena;
  for (const auto& [key, program] : sim::SnapshotCachedPrograms()) {
    EXPECT_TRUE(sim::ReplaySimProgram(*program, &arena).feasible) << key;
  }
}

TEST_F(PersistTest, LoadNeverClobbersLiveEntries) {
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  // Live entries stay; loading on top only fills gaps.
  std::vector<std::pair<std::string, sim::KernelTiming>> live =
      sim::SnapshotCachedTimings();
  serving::PersistStats loaded = serving::LoadCache(path_, spec);
  ASSERT_TRUE(loaded.ok);
  std::vector<std::pair<std::string, sim::KernelTiming>> after =
      sim::SnapshotCachedTimings();
  EXPECT_EQ(after.size(), live.size());
}

TEST_F(PersistTest, ConcurrentReadersAndWritersAreSafe) {
  // Savers snapshot under the shard locks and rename() complete files
  // into place; loaders see either the old or the new file, never a torn
  // one. TSan runs this to check the snapshot/insert paths race-free.
  target::GpuSpec spec = target::AmpereSpec();
  Populate(spec);
  ASSERT_TRUE(serving::SaveCache(path_, spec).ok);

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      schedule::ScheduleConfig config;
      config.smem_stages = 2 + t;
      for (int i = 0; i < 3; ++i) {
        sim::CachedCompileAndSimulate(
            MakeMatmul("mm", 512, 512, 512 + 256 * i), config, spec);
        serving::SaveCache(path_, spec);
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        serving::PersistStats loaded = serving::LoadCache(path_, spec);
        EXPECT_TRUE(loaded.ok) << loaded.error;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  serving::PersistStats final_load = serving::LoadCache(path_, spec);
  EXPECT_TRUE(final_load.ok) << final_load.error;
}

TEST_F(PersistTest, DefaultCachePathFollowsEnv) {
  const char* saved = std::getenv("ALCOP_CACHE_DIR");
  std::string restore = saved == nullptr ? "" : saved;

  ::setenv("ALCOP_CACHE_DIR", "/tmp/alcop_cache_dir_test", 1);
  EXPECT_EQ(serving::DefaultCachePath(),
            "/tmp/alcop_cache_dir_test/sim_cache.alcp");
  ::unsetenv("ALCOP_CACHE_DIR");
  EXPECT_EQ(serving::DefaultCachePath(), "");

  if (saved != nullptr) ::setenv("ALCOP_CACHE_DIR", restore.c_str(), 1);
}

}  // namespace
}  // namespace alcop
