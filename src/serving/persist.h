// Persistent on-disk schedule cache: the serialization layer that lets
// everything a process learned — cached KernelTimings, trace-compiled
// SimPrograms, and completed tuning searches — survive a restart, so a
// serving deployment pays cold-compile cost once per fleet, not once per
// process (the amortization the ROADMAP's tuning-as-a-service axis is
// about; cf. TVM's tuning-record logs).
//
// File layout (host-endian; this is a local cache, not an interchange
// format — a foreign-endian file simply fails its checksums):
//
//   magic "ALCP" | u32 schema version | u64 spec fingerprint
//                | u64 fitted-constants fingerprint
//   then a sequence of independently framed records:
//   u32 payload_len | u32 FNV-1a checksum of payload | payload
//
// A header mismatch (magic, version, either fingerprint) rejects the
// whole file — entries computed under different device numerics or
// fitted model constants must never be silently reused. Within an
// accepted file each frame stands alone: a bad checksum, an unknown
// record type, a truncated tail, or a skeleton that fails
// sim::CheckSkeleton skips that frame (counted in PersistStats::skipped,
// the first reason kept in skip_reason) and the loader resyncs at the next
// frame — load never crashes on a corrupt or torn file, and nothing it
// loads can crash or hang replay.
//
// Records are skeleton-aware: each distinct interned MicroOpSkeleton is
// written once with a file-local id, and programs reference it by id.
// On load, skeletons are re-interned through the process-wide pool
// (InternSkeleton), so structure sharing — the bytes-per-config win —
// survives the round trip; a program whose skeleton frame was corrupt is
// itself skipped. Loaded entries enter the in-memory caches through
// InsertCachedTiming/InsertCachedProgram (an existing live entry always
// wins, and the LRU budget applies) and the TuningStore.
//
// Writes go to `path.tmp.<pid>` and rename() into place, so a crash
// mid-save leaves the previous file intact and concurrent savers
// last-writer-win a complete file.
#ifndef ALCOP_SERVING_PERSIST_H_
#define ALCOP_SERVING_PERSIST_H_

#include <cstdint>
#include <string>

#include "support/json.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace serving {

inline constexpr uint32_t kPersistMagic = 0x50434C41;  // "ALCP", little-endian
// Version 2: skeletons hold rolled loops (kLoopBegin/kLoopEnd micro-ops).
inline constexpr uint32_t kPersistVersion = 2;

// FNV-1a over every GpuSpec rate/limit that participates in the sim
// cache key (the device numerics the cached values were computed under).
uint64_t SpecFingerprint(const target::GpuSpec& spec);

// FNV-1a over the spec's fitted model constants (spec.model_fit) — the
// part of the device model the cache key does NOT carry, so a refit must
// invalidate the file even though the keys would still match.
uint64_t FittedConstantsFingerprint(const target::GpuSpec& spec);

// $ALCOP_CACHE_DIR/sim_cache.alcp; empty string when the variable is
// unset (callers treat that as "persistence disabled").
std::string DefaultCachePath();

struct PersistStats {
  bool ok = false;
  std::string error;   // why ok == false (empty otherwise)
  uint64_t bytes = 0;  // file bytes written (save) or parsed (load)
  uint64_t timings = 0;
  uint64_t programs = 0;
  uint64_t skeletons = 0;
  uint64_t tunings = 0;
  uint64_t skipped = 0;  // corrupt/unknown frames skipped on load
  std::string skip_reason;  // why the first skipped frame was refused
};

// The counts of `stats` as JSON members, in the order the daemon's
// persist/load reply and `alcop_cli cache persist|load --json` print
// them: bytes, timings, programs, skeletons, tunings, skipped.
support::JsonObject PersistStatsJson(const PersistStats& stats);

// Serializes the current sim-cache snapshot (both layers) and the global
// TuningStore. Creates the parent directory if needed.
PersistStats SaveCache(const std::string& path, const target::GpuSpec& spec);

// Loads a cache file into the in-memory caches and the TuningStore.
// Missing file / header mismatch => ok == false with an explanatory
// error and nothing loaded; per-frame corruption is skipped, never
// fatal. Updates the sim.cache.disk.* counters.
PersistStats LoadCache(const std::string& path, const target::GpuSpec& spec);

}  // namespace serving
}  // namespace alcop

#endif  // ALCOP_SERVING_PERSIST_H_
