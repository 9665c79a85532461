// Trace compiler: lowers a pipelined TIR kernel into a flat bytecode
// program of micro-ops, so the expensive IR walk is paid once per schedule
// and the event-pool simulator core (desim.h) can replay the flat form
// thousands of times.
//
// The compiler walks the transformed TIR like the per-warp trace builder
// (trace.h) — same warp-range broadcast, same byte splitting — but instead
// of AST-shaped events it emits contiguous MicroOp structs whose operands
// are *pre-resolved*:
//   - copy issue cycles, LDS service cycles, tensor-core cycles and fill
//     cycles are divided out against the device rates at compile time
//     (those rates do not depend on which threadblock wave is replayed);
//   - the DRAM fraction of each global tensor (from the launch-level
//     working-set analysis) is folded into per-op byte amounts and a
//     pre-blended round-trip latency, eliminating the per-event hash-map
//     lookup the interpreter pays;
//   - per-group commit counts are counted, so the replay arena can be
//     sized exactly with no growth during a run.
// Only the LLC/DRAM bandwidth divisions remain at replay time, because
// those rates depend on how many SMs the wave keeps active.
//
// Rolled loops. The trace builder unrolls every iteration of the main
// loop; the compiler does not, so a program is O(loop body), not O(K).
// Each outermost serial loop of two or more iterations is walked once per
// iteration *range* [lo, hi) with its variable bound to that interval
// (analysis::EvalInterval; every other variable stays a point, warp loops
// and nested loops are enumerated as usual). Every value the walk reads —
// each IfThenElse condition and nested loop extent — must be one point
// over the range, or the iterations of the range would not all emit the
// same ops. When a value is not, the walk is abandoned and retried on the
// longest prefix [lo, x) over which that value is a point (found by
// bisecting that one expression, not by re-walking the body); a range of
// one iteration binds the variable to a point and always succeeds. So a
// guard `if ko == 0` peels iteration 0 off in three walks whatever K is,
// and a guard at an arbitrary iteration splits the loop around it.
// Adjacent ranges whose per-warp bodies are byte-equal merge into one run,
// emitted per warp as kLoopBegin (aux = trips) + body + kLoopEnd
// (aux = body length); a run of one iteration is emitted bare.
//
// Every precomputed operand is produced by the *same* floating-point
// expression the interpreter evaluates per event, and replay executes a
// rolled body exactly as often as the interpreter meets its unrolled
// copies, which is what makes the replayed KernelTiming and Timeline
// bit-identical to the AST interpreter (asserted by
// tests/sim_replay_test.cc and the fuzz differential).
#ifndef ALCOP_SIM_COMPILE_H_
#define ALCOP_SIM_COMPILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/stmt.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace sim {

// Kind order is load-bearing: every kind >= kFill is *eagerly
// continuable* — executing it during the previous event's turn (ahead of
// queued events with earlier timestamps) provably cannot change any
// result, so the replay core runs it inline with zero event-queue
// traffic. kFill only touches its own stream; kCommit only monotonic
// per-slot max/count state (and a parked waiter woken by a commit
// resumes at max(park_time, complete) + sync — exactly the time it
// would have computed passing through); kWait's park-then-wake equals
// its pass-through for the same reason; kBarrier arrival order is
// absorbed by the max over arrival times; the loop markers touch only
// their own stream's pc and trip counter. kAcquire and kRelease are NOT
// in the set: an acquire that passes pays no max() against the release
// time, so acquire/release order against other streams is observable.
enum class MicroOpKind : uint8_t {
  kCopyAsyncGlobal,  // cp.async from global: issue now, transfer background
  kCopyAsyncShared,  // async shared->register stage copy
  kCopySyncGlobal,   // blocking global load
  kCopySyncShared,   // blocking shared->register load
  kStoreGlobal,      // epilogue write-back
  kMma,              // tensor-core work
  kAcquire,          // producer_acquire
  kRelease,          // consumer_release
  kFill,             // accumulator initialization
  kCommit,           // producer_commit
  kWait,             // consumer_wait
  kBarrier,          // threadblock barrier
  kLoopBegin,        // rolled loop entry (zero cost): aux = trip count >= 2
  kLoopEnd,          // rolled loop back-edge (zero cost): aux = body length
};

// First kind of the eagerly-continuable suffix of the enum (see above).
inline constexpr MicroOpKind kFirstEagerKind = MicroOpKind::kFill;

// MicroOp::flags bit: the op's source tensor pays a DRAM share (fraction
// above the interpreter's 1e-3 threshold), so replay serves op2 bytes on
// the DRAM pipe in addition to the LLC.
inline constexpr uint8_t kMicroOpHasDram = 1;

// One row of a program's operand pool. Kernels use a handful of distinct
// copy shapes and tile sizes, so the operand tuples of thousands of ops
// collapse to a few interned rows — the 8-byte instruction stream stays
// small enough to be L1-resident during replay. Meaning depends on the
// instruction kind:
//   kCopy*Global:  op0 issue cycles, op1 LLC bytes, op2 DRAM bytes,
//                  op3 pre-blended round-trip latency cycles
//   kCopy*Shared:  op0 issue cycles, op1 LDS service cycles,
//                  op2 shared-memory latency cycles
//   kStoreGlobal:  op0 issue cycles, op1 store bytes, op2 DRAM latency
//   kMma:          op0 tensor-core cycles (flops / per-partition rate)
//   kFill:         op0 register-write cycles
// `payload` is the PMU quantity of the op — raw bytes moved for copies
// and stores, FLOPs for kMma, 0 otherwise. It never feeds the timing
// expressions; the counter layer (sim/pmu.h) reads it so byte and FLOP
// totals survive the operand pre-division above.
struct MicroOpOperands {
  double op0 = 0.0;
  double op1 = 0.0;
  double op2 = 0.0;
  double op3 = 0.0;
  double payload = 0.0;
};

// One flat 8-byte instruction. `aux` is the operand-pool row for the
// pooled kinds listed above; for kAcquire it is the group's stages - 1,
// for kWait it packs (max_commits << 8) | wait_ahead, and for the loop
// markers it is the trip count (kLoopBegin) or the number of body ops
// between the pair (kLoopEnd) — everything the replay core needs without
// touching the group table.
struct MicroOp {
  MicroOpKind kind = MicroOpKind::kBarrier;
  uint8_t flags = 0;
  int16_t group = -1;
  int32_t aux = 0;
};
static_assert(sizeof(MicroOp) == 8, "replay footprint depends on packing");

// Pipeline-group metadata carried by the program: FIFO depth, scope, and
// the per-warp commit count — the max over warps of the commits a warp
// issues at replay, i.e. each rolled body's commits times its trips —
// which sizes the replay arena's group slots.
struct MicroOpGroup {
  int64_t stages = 1;
  bool tb_scope = true;  // shared scope: every warp of the tb participates
  int64_t max_commits = 0;
};

// The *structural* half of a compiled program: instruction kinds, sync
// structure, warp spans and group metadata — everything except the
// numeric operand values, which live in the per-config patch table
// (MicroOpProgram::pool; the instructions address it by row index).
// Schedules that differ only numerically (tile bytes, FLOP counts,
// latencies) walk identical instruction sequences, so their skeletons are
// byte-for-byte equal and the process-wide intern pool (InternSkeleton)
// stores each distinct skeleton exactly once. With rolled loops the
// instruction arena is a few hundred ops, comparable to the patch table,
// so sharing now saves less than 2x of a program's bytes.
struct MicroOpSkeleton {
  int num_warps = 1;
  std::vector<MicroOp> ops;          // warp w owns [warp_begin[w], warp_begin[w+1])
  std::vector<uint32_t> warp_begin;  // num_warps + 1 offsets into ops
  std::vector<MicroOpGroup> groups;
  bool blocking_async = false;  // TVM-DB modeling: async copies stall
  // Structural hash over every field above (the intern-pool bucket key;
  // equality is always confirmed field-by-field before sharing).
  uint64_t hash = 0;

  int64_t TotalOps() const { return static_cast<int64_t>(ops.size()); }
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(ops.capacity() * sizeof(MicroOp) +
                                warp_begin.capacity() * sizeof(uint32_t) +
                                groups.capacity() * sizeof(MicroOpGroup) +
                                sizeof(MicroOpSkeleton));
  }
};

// Computes the structural hash (FNV-1a over the skeleton's fields; does
// not read or write `hash` itself). Exposed for tests.
uint64_t SkeletonHash(const MicroOpSkeleton& skeleton);

// Returns why `skeleton` is unsafe to replay, or "" when it is sound:
// warp spans that do not tile the arena, unknown kinds, group ids out of
// range, loop markers that are unpaired, nested, below two trips or
// outside their warp's span, per-group commit counts or baked wait
// capacities that disagree with what the instructions issue, and warps
// that would meet different numbers of barriers. Every
// compiled skeleton passes; the persistence loader refuses any that does
// not (a skeleton read from disk is untrusted input).
std::string CheckSkeleton(const MicroOpSkeleton& skeleton);

// One past the largest operand-pool row the skeleton's instructions
// address: a program replaying it needs at least this many pool rows.
int64_t PoolRowsRead(const MicroOpSkeleton& skeleton);

// Process-wide structure-sharing pool: returns a shared skeleton equal to
// `skeleton`, inserting it if no equal one exists. Thread-safe; entries
// live until ResetSkeletonPool (callers hold shared_ptrs, so a reset
// never invalidates in-flight programs).
std::shared_ptr<const MicroOpSkeleton> InternSkeleton(
    MicroOpSkeleton&& skeleton);

struct SkeletonPoolStats {
  uint64_t skeletons = 0;  // distinct skeletons resident
  uint64_t bytes = 0;      // their total footprint
  uint64_t interns = 0;    // InternSkeleton calls
  uint64_t shared = 0;     // calls that found an existing equal skeleton
  uint64_t compactions = 0;  // CompactSkeletonPool calls
  uint64_t dropped = 0;      // orphan skeletons dropped by compaction
};
SkeletonPoolStats GetSkeletonPoolStats();
void ResetSkeletonPool();

// Arena compaction for the intern pool: drops every skeleton whose only
// remaining reference is the pool itself (its programs were evicted or
// destroyed), returning the number dropped. In-flight programs keep
// their skeletons alive through their shared_ptrs, so compaction can
// never invalidate a replay. The sim cache calls this after LRU
// eviction so orphaned instruction arenas do not count against the
// ALCOP_CACHE_BYTES budget forever.
uint64_t CompactSkeletonPool();

// The pool's resident bytes as a relaxed atomic (maintained by
// intern/compact/reset), so the sim cache's budget check on every insert
// does not take the pool mutex.
uint64_t ApproxSkeletonPoolBytes();

// The compiled program: a shared structural skeleton plus this config's
// numeric operands — the interned patch-table rows the skeleton's
// instructions address via MicroOp::aux — and the device's sync costs.
struct MicroOpProgram {
  std::shared_ptr<const MicroOpSkeleton> skeleton;  // null only if default-constructed
  std::vector<MicroOpOperands> pool;  // interned operand rows (the patch table)
  double sync_overhead_cycles = 0.0;
  double half_sync_overhead_cycles = 0.0;

  int64_t TotalOps() const {
    return skeleton == nullptr ? 0 : skeleton->TotalOps();
  }
  // Per-config footprint: the patch table only. The shared skeleton is
  // accounted once per distinct skeleton by the cache stats, not once
  // per program.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(pool.capacity() * sizeof(MicroOpOperands) +
                                sizeof(MicroOpProgram));
  }
};

struct TraceCompileOptions {
  bool swizzle = true;
  bool blocking_async = false;
  // Pipeline groups by dense id (max_commits is filled by the compiler).
  std::vector<MicroOpGroup> groups;
  // Fraction of each global tensor's loads that miss in LLC (default 1.0).
  std::unordered_map<const ir::BufferNode*, double> dram_fraction;
};

// Walks the lowered TIR (blockIdx loops pinned to 0, warp loops
// broadcast, trip counts evaluated, outermost serial loops rolled as
// described above) and emits the flat program.
MicroOpProgram CompileTraceProgram(const ir::Stmt& program, int num_warps,
                                   const target::GpuSpec& spec,
                                   const TraceCompileOptions& options);

}  // namespace sim
}  // namespace alcop

#endif  // ALCOP_SIM_COMPILE_H_
