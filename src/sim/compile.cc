#include "sim/compile.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "analysis/interval.h"
#include "support/check.h"

namespace alcop {
namespace sim {

using namespace alcop::ir;  // NOLINT(build/namespaces) - compiler

namespace {

// Mirrors the trace builder's walk (trace.cc): same warp-range broadcast,
// same byte splitting — but emits pre-resolved micro-ops instead of
// AST-shaped events, and rolls outermost serial loops (see compile.h).
class MicroOpCompiler {
 public:
  MicroOpCompiler(int num_warps, const target::GpuSpec& spec,
                  const TraceCompileOptions& options)
      : spec_(spec), options_(options) {
    skeleton_.num_warps = num_warps;
    skeleton_.groups = options.groups;
    skeleton_.blocking_async = options.blocking_async;
    program_.sync_overhead_cycles = spec.sync_overhead_cycles;
    program_.half_sync_overhead_cycles = spec.sync_overhead_cycles * 0.5;
    // The same rate expressions the interpreter's servers are built with.
    tc_rate_ = spec.tc_flops_per_sm_per_cycle / 4.0;
    lds_rate_ = spec.lds_bytes_per_cycle_per_sm /
                (options.swizzle ? 1.0 : spec.bank_conflict_factor);
    warps_.resize(static_cast<size_t>(num_warps));
    body_.resize(static_cast<size_t>(num_warps));
    runs_.resize(static_cast<size_t>(num_warps));
  }

  MicroOpProgram Compile(const Stmt& program) {
    Walk(program);
    // Flatten the per-warp streams into one contiguous arena.
    size_t total = 0;
    for (const std::vector<MicroOp>& warp : warps_) total += warp.size();
    skeleton_.ops.reserve(total);
    skeleton_.warp_begin.reserve(warps_.size() + 1);
    skeleton_.warp_begin.push_back(0);
    for (std::vector<MicroOp>& warp : warps_) {
      skeleton_.ops.insert(skeleton_.ops.end(), warp.begin(), warp.end());
      skeleton_.warp_begin.push_back(
          static_cast<uint32_t>(skeleton_.ops.size()));
    }
    // Per-group commit counts (max over warps, each rolled body's commits
    // times its trips) size the replay arena's group slots exactly, so a
    // run never grows them.
    for (size_t w = 0; w < warps_.size(); ++w) {
      std::vector<int64_t> commits(skeleton_.groups.size(), 0);
      int64_t trips = 1;
      for (const MicroOp& op : warps_[w]) {
        if (op.kind == MicroOpKind::kLoopBegin) trips = op.aux;
        if (op.kind == MicroOpKind::kLoopEnd) trips = 1;
        if (op.kind == MicroOpKind::kCommit) {
          commits[static_cast<size_t>(op.group)] += trips;
        }
      }
      for (size_t g = 0; g < commits.size(); ++g) {
        skeleton_.groups[g].max_commits =
            std::max(skeleton_.groups[g].max_commits, commits[g]);
      }
    }
    // Bake each wait's commit capacity next to its wait_ahead so the
    // replay core never touches the group table.
    for (MicroOp& op : skeleton_.ops) {
      if (op.kind != MicroOpKind::kWait) continue;
      const int64_t cap =
          skeleton_.groups[static_cast<size_t>(op.group)].max_commits;
      ALCOP_CHECK_LT(cap, int64_t{1} << 22) << "commit count overflows aux";
      op.aux = static_cast<int32_t>(cap << 8) | (op.aux & 0xff);
    }
    // Structure sharing: configs that walked an identical instruction
    // sequence (only the pool values differ) get the same skeleton object
    // from the process-wide pool.
    skeleton_.hash = SkeletonHash(skeleton_);
    program_.skeleton = InternSkeleton(std::move(skeleton_));
    return std::move(program_);
  }

 private:
  struct WarpRange {
    int begin;
    int end;  // exclusive
    int Count() const { return end - begin; }
  };

  WarpRange CurrentWarps() const {
    int prod = 1;
    int fold = 0;
    for (const auto& [extent, value] : warp_stack_) {
      prod *= static_cast<int>(extent);
      fold = fold * static_cast<int>(extent) + static_cast<int>(value);
    }
    ALCOP_CHECK_EQ(skeleton_.num_warps % prod, 0)
        << "warp loop nest does not evenly cover the threadblock's warps";
    int span = skeleton_.num_warps / prod;
    return {fold * span, (fold + 1) * span};
  }

  void Emit(const MicroOp& op) {
    WarpRange range = CurrentWarps();
    for (int w = range.begin; w < range.end; ++w) {
      (*out_)[static_cast<size_t>(w)].push_back(op);
    }
  }

  // Evaluates a value the walk reads (a loop extent or a condition). In a
  // range walk it must be one point over the whole range; when it is not,
  // `split_at_` records where the range has to end for it to be one, and
  // the caller abandons the walk (Abandoned()).
  int64_t Value(const Expr& e) {
    if (range_.var == nullptr) return Evaluate(e, env_);
    ranges_.clear();
    for (const VarBinding& b : env_) ranges_.push_back({b.var, 1, b.value});
    ranges_.push_back(range_);
    analysis::Interval iv;
    if (analysis::EvalInterval(e, ranges_, &iv) && iv.IsPoint()) return iv.lo;
    // Bisect for the longest prefix [lo, good) over which `e` is a point.
    // One iteration always is (it is walked with the variable bound to a
    // point); the search only ever accepts a length it evaluated.
    int64_t good = range_.lo + 1;
    int64_t bad = range_.lo + range_.extent;
    while (bad - good > 1) {
      const int64_t mid = good + (bad - good) / 2;
      ranges_.back().extent = mid - range_.lo;
      if (analysis::EvalInterval(e, ranges_, &iv) && iv.IsPoint()) {
        good = mid;
      } else {
        bad = mid;
      }
    }
    split_at_ = good;
    return 0;
  }

  bool Abandoned() const { return split_at_ >= 0; }

  // Rolls serial loop `op` of `extent` >= 2 iterations: walks it range by
  // range (each range as long as its values allow, see compile.h), merges
  // each warp's byte-equal adjacent bodies into runs and emits the runs.
  void WalkRolled(const ForNode* op, int64_t extent) {
    out_ = &body_;
    int64_t lo = 0;
    while (lo < extent) {
      int64_t hi = extent;
      while (!WalkRange(op, lo, hi)) hi = split_at_;
      for (size_t w = 0; w < runs_.size(); ++w) {
        Run& run = runs_[w];
        std::vector<MicroOp>& body = body_[w];
        if (run.trips > 0 && run.body.size() == body.size() &&
            (body.empty() ||
             std::memcmp(run.body.data(), body.data(),
                         body.size() * sizeof(MicroOp)) == 0)) {
          run.trips += hi - lo;
          continue;
        }
        FlushRun(w);
        run.body.swap(body);
        run.trips = hi - lo;
      }
      lo = hi;
    }
    for (size_t w = 0; w < runs_.size(); ++w) FlushRun(w);
    out_ = &warps_;
  }

  // Walks the body of `op` once for the iterations [lo, hi) into body_;
  // false (with split_at_ set) when some value is not a point over them.
  bool WalkRange(const ForNode* op, int64_t lo, int64_t hi) {
    for (std::vector<MicroOp>& body : body_) body.clear();
    const size_t pool_mark = program_.pool.size();
    split_at_ = -1;
    if (hi - lo == 1) {
      env_.push_back({op->var.get(), lo});
      Walk(op->body);
      env_.pop_back();
      return true;
    }
    range_ = {op->var.get(), hi - lo, lo};
    Walk(op->body);
    range_.var = nullptr;
    if (!Abandoned()) return true;
    // Drop the operand rows only the abandoned walk interned.
    for (size_t r = pool_mark; r < program_.pool.size(); ++r) {
      pool_index_.erase(PoolKey(program_.pool[r]));
    }
    program_.pool.resize(pool_mark);
    return false;
  }

  // Appends warp w's pending run to its stream: bare for one iteration,
  // between loop markers for more.
  void FlushRun(size_t w) {
    Run& run = runs_[w];
    std::vector<MicroOp>& out = warps_[w];
    if (run.trips == 1) {
      out.insert(out.end(), run.body.begin(), run.body.end());
    } else if (run.trips > 1 && !run.body.empty()) {
      ALCOP_CHECK_LE(run.trips, int64_t{INT32_MAX}) << "trip count overflows aux";
      MicroOp begin;
      begin.kind = MicroOpKind::kLoopBegin;
      begin.aux = static_cast<int32_t>(run.trips);
      MicroOp end;
      end.kind = MicroOpKind::kLoopEnd;
      end.aux = static_cast<int32_t>(run.body.size());
      out.push_back(begin);
      out.insert(out.end(), run.body.begin(), run.body.end());
      out.push_back(end);
    }
    run.body.clear();
    run.trips = 0;
  }

  // Splits the payload over the addressed warps exactly as the trace
  // builder does (integer division), returning the per-warp byte count.
  int64_t SplitBytes(int64_t bytes) const {
    int count = CurrentWarps().Count();
    return count > 1 ? bytes / count : bytes;
  }

  double DramFractionOf(const BufferNode* tensor) const {
    auto it = options_.dram_fraction.find(tensor);
    return it != options_.dram_fraction.end() ? it->second : 1.0;
  }

  // Interns an operand row, keyed by exact bit pattern (identical values
  // must share a row; nothing may be merged across rounding differences).
  static std::array<uint64_t, 5> PoolKey(const MicroOpOperands& v) {
    std::array<uint64_t, 5> key;
    static_assert(sizeof(key) == sizeof(v), "pool rows are five doubles");
    std::memcpy(key.data(), &v, sizeof(v));
    return key;
  }

  int32_t Intern(const MicroOpOperands& v) {
    auto [it, inserted] = pool_index_.emplace(
        PoolKey(v), static_cast<int32_t>(program_.pool.size()));
    if (inserted) program_.pool.push_back(v);
    return it->second;
  }

  void Walk(const Stmt& s) {
    switch (s->kind) {
      case StmtKind::kBlock:
        for (const Stmt& child : static_cast<const BlockNode*>(s.get())->seq) {
          Walk(child);
          if (Abandoned()) return;
        }
        return;
      case StmtKind::kPragma:
        Walk(static_cast<const PragmaNode*>(s.get())->body);
        return;
      case StmtKind::kAlloc:
        return;
      case StmtKind::kFor: {
        const auto* op = static_cast<const ForNode*>(s.get());
        int64_t extent = Value(op->extent);
        if (Abandoned()) return;
        if (op->for_kind == ForKind::kBlockIdx) {
          // One representative threadblock: all blocks run the same trace.
          env_.push_back({op->var.get(), 0});
          Walk(op->body);
          env_.pop_back();
          return;
        }
        if (op->for_kind == ForKind::kSerial && extent >= 2 &&
            out_ == &warps_) {
          WalkRolled(op, extent);  // outermost: not inside a rolled body
          return;
        }
        bool is_warp = op->for_kind == ForKind::kWarp;
        for (int64_t i = 0; i < extent; ++i) {
          env_.push_back({op->var.get(), i});
          if (is_warp) warp_stack_.emplace_back(extent, i);
          Walk(op->body);
          if (is_warp) warp_stack_.pop_back();
          env_.pop_back();
          if (Abandoned()) return;
        }
        return;
      }
      case StmtKind::kIfThenElse: {
        const auto* op = static_cast<const IfThenElseNode*>(s.get());
        const int64_t cond = Value(op->cond);
        if (Abandoned()) return;
        if (cond != 0) {
          Walk(op->then_case);
        } else if (op->else_case != nullptr) {
          Walk(op->else_case);
        }
        return;
      }
      case StmtKind::kCopy:
        WalkCopy(static_cast<const CopyNode*>(s.get()));
        return;
      case StmtKind::kFill: {
        const auto* op = static_cast<const FillNode*>(s.get());
        MicroOp out;
        out.kind = MicroOpKind::kFill;
        MicroOpOperands v;
        v.op0 = static_cast<double>(op->dst.NumBytes()) / 256.0;
        out.aux = Intern(v);
        Emit(out);
        return;
      }
      case StmtKind::kMma: {
        const auto* op = static_cast<const MmaNode*>(s.get());
        MicroOp out;
        out.kind = MicroOpKind::kMma;
        MicroOpOperands v;
        v.op0 = static_cast<double>(op->Flops()) / tc_rate_;
        v.payload = static_cast<double>(op->Flops());
        out.aux = Intern(v);
        Emit(out);
        return;
      }
      case StmtKind::kSync: {
        const auto* op = static_cast<const SyncNode*>(s.get());
        MicroOp out;
        out.group = static_cast<int16_t>(op->group);
        switch (op->sync_kind) {
          case SyncKind::kBarrier:
            out.kind = MicroOpKind::kBarrier;
            break;
          case SyncKind::kProducerAcquire:
            out.kind = MicroOpKind::kAcquire;
            out.aux = static_cast<int32_t>(
                          skeleton_.groups[static_cast<size_t>(op->group)]
                              .stages) -
                      1;
            break;
          case SyncKind::kProducerCommit:
            out.kind = MicroOpKind::kCommit;
            break;
          case SyncKind::kConsumerWait:
            out.kind = MicroOpKind::kWait;
            ALCOP_CHECK_GE(op->wait_ahead, 0);
            ALCOP_CHECK_LT(op->wait_ahead, 256)
                << "wait_ahead must fit the packed aux byte";
            out.aux = op->wait_ahead;
            break;
          case SyncKind::kConsumerRelease:
            out.kind = MicroOpKind::kRelease;
            break;
        }
        if (out.kind != MicroOpKind::kBarrier) {
          ALCOP_CHECK_GE(op->group, 0) << "pipeline sync without a group";
          ALCOP_CHECK_LT(static_cast<size_t>(op->group),
                         skeleton_.groups.size())
              << "pipeline group ids must be dense";
        }
        Emit(out);
        return;
      }
    }
    ALCOP_CHECK(false) << "unhandled statement in micro-op compiler";
  }

  void WalkCopy(const CopyNode* op) {
    MemScope src = op->src.buffer->scope;
    MemScope dst = op->dst.buffer->scope;
    if (src == MemScope::kGlobal && dst == MemScope::kGlobal) {
      return;  // standalone elementwise pass, charged at launch level
    }
    MicroOp out;
    MicroOpOperands v;
    if (dst == MemScope::kGlobal) {
      int64_t bytes = SplitBytes(op->dst.NumBytes());
      out.kind = MicroOpKind::kStoreGlobal;
      v.op0 = static_cast<double>(bytes) / spec_.copy_issue_bytes_per_cycle;
      v.op1 = static_cast<double>(bytes);
      v.op2 = spec_.dram_latency_cycles;
      v.payload = static_cast<double>(bytes);
      out.aux = Intern(v);
      Emit(out);
      return;
    }
    int64_t bytes =
        SplitBytes(op->src.NumElements() * op->dst.buffer->elem_bytes);
    if (op->is_async) {
      ALCOP_CHECK_GE(op->pipeline_group, 0)
          << "async copy without a pipeline group";
      ALCOP_CHECK_LT(static_cast<size_t>(op->pipeline_group),
                     skeleton_.groups.size())
          << "pipeline group ids must be dense";
    }
    out.group = static_cast<int16_t>(op->pipeline_group);
    v.op0 = static_cast<double>(bytes) / spec_.copy_issue_bytes_per_cycle;
    v.payload = static_cast<double>(bytes);
    if (src == MemScope::kGlobal) {
      out.kind = op->is_async ? MicroOpKind::kCopyAsyncGlobal
                              : MicroOpKind::kCopySyncGlobal;
      double fraction = DramFractionOf(op->src.buffer.get());
      v.op1 = static_cast<double>(bytes);
      v.op2 = static_cast<double>(bytes) * fraction;
      if (fraction > 1e-3) out.flags |= kMicroOpHasDram;
      // The interpreter's expected-value latency blend, folded per op.
      v.op3 = spec_.llc_latency_cycles +
              std::min(fraction, 1.0) *
                  (spec_.dram_latency_cycles - spec_.llc_latency_cycles);
    } else {
      out.kind = op->is_async ? MicroOpKind::kCopyAsyncShared
                              : MicroOpKind::kCopySyncShared;
      v.op1 = static_cast<double>(bytes) / lds_rate_;
      v.op2 = spec_.smem_latency_cycles;
    }
    out.aux = Intern(v);
    Emit(out);
  }

  const target::GpuSpec& spec_;
  const TraceCompileOptions& options_;
  MicroOpProgram program_;
  MicroOpSkeleton skeleton_;
  std::map<std::array<uint64_t, 5>, int32_t> pool_index_;
  std::vector<std::vector<MicroOp>> warps_;  // the per-warp streams
  // Rolling state: the body one range walk emits per warp, and per warp
  // the run of byte-equal bodies not yet appended to its stream.
  struct Run {
    std::vector<MicroOp> body;
    int64_t trips = 0;
  };
  std::vector<std::vector<MicroOp>> body_;
  std::vector<Run> runs_;
  std::vector<std::vector<MicroOp>>* out_ = &warps_;  // where Emit appends
  double tc_rate_ = 1.0;
  double lds_rate_ = 1.0;
  std::vector<VarBinding> env_;
  // The rolled loop's variable over the range being walked (var == null
  // outside range walks), the scratch ranges handed to EvalInterval, and
  // where an abandoned walk must split (-1 while the walk is valid).
  analysis::VarRange range_;
  std::vector<analysis::VarRange> ranges_;
  int64_t split_at_ = -1;
  std::vector<std::pair<int64_t, int64_t>> warp_stack_;  // (extent, value)
};

// ---- Skeleton intern pool ----

bool SkeletonEqual(const MicroOpSkeleton& a, const MicroOpSkeleton& b) {
  if (a.num_warps != b.num_warps || a.blocking_async != b.blocking_async ||
      a.ops.size() != b.ops.size() ||
      a.warp_begin.size() != b.warp_begin.size() ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  if (!a.ops.empty() &&
      std::memcmp(a.ops.data(), b.ops.data(),
                  a.ops.size() * sizeof(MicroOp)) != 0) {
    return false;
  }
  if (a.warp_begin != b.warp_begin) return false;
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].stages != b.groups[g].stages ||
        a.groups[g].tb_scope != b.groups[g].tb_scope ||
        a.groups[g].max_commits != b.groups[g].max_commits) {
      return false;
    }
  }
  return true;
}

struct SkeletonPool {
  std::mutex mu;
  // Bucketed by structural hash; equality confirmed before sharing, so a
  // hash collision costs a bucket scan, never a wrong skeleton.
  std::unordered_map<uint64_t,
                     std::vector<std::shared_ptr<const MicroOpSkeleton>>>
      buckets;
  uint64_t interns = 0;
  uint64_t shared = 0;
  uint64_t compactions = 0;
  uint64_t dropped = 0;
  // Resident bytes mirrored outside the lock for the sim cache's budget
  // check (exact under the lock, relaxed for readers).
  std::atomic<uint64_t> approx_bytes{0};
};

SkeletonPool& GlobalSkeletonPool() {
  static SkeletonPool* pool = new SkeletonPool();  // leaked: outlives threads
  return *pool;
}

}  // namespace

uint64_t SkeletonHash(const MicroOpSkeleton& skeleton) {
  // FNV-1a over the structural fields, bytewise for the POD instruction
  // arena.
  uint64_t h = 1469598103934665603ull;
  auto mix_bytes = [&h](const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto mix_u64 = [&mix_bytes](uint64_t v) { mix_bytes(&v, sizeof(v)); };
  mix_u64(static_cast<uint64_t>(skeleton.num_warps));
  mix_u64(skeleton.blocking_async ? 1 : 0);
  mix_bytes(skeleton.ops.data(), skeleton.ops.size() * sizeof(MicroOp));
  mix_bytes(skeleton.warp_begin.data(),
            skeleton.warp_begin.size() * sizeof(uint32_t));
  for (const MicroOpGroup& g : skeleton.groups) {
    mix_u64(static_cast<uint64_t>(g.stages));
    mix_u64(g.tb_scope ? 1 : 0);
    mix_u64(static_cast<uint64_t>(g.max_commits));
  }
  return h;
}

namespace {

bool IsPooled(MicroOpKind kind) {
  return kind < MicroOpKind::kAcquire || kind == MicroOpKind::kFill;
}

// Kinds whose replay addresses the per-(stream, group) state.
bool UsesGroup(MicroOpKind kind) {
  switch (kind) {
    case MicroOpKind::kCopyAsyncGlobal:
    case MicroOpKind::kCopyAsyncShared:
    case MicroOpKind::kAcquire:
    case MicroOpKind::kRelease:
    case MicroOpKind::kCommit:
    case MicroOpKind::kWait:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string CheckSkeleton(const MicroOpSkeleton& s) {
  if (s.num_warps < 1) return "no warps";
  if (s.warp_begin.size() != static_cast<size_t>(s.num_warps) + 1 ||
      s.warp_begin.front() != 0 || s.warp_begin.back() != s.ops.size()) {
    return "warp spans do not tile the instruction arena";
  }
  for (size_t w = 0; w < static_cast<size_t>(s.num_warps); ++w) {
    if (s.warp_begin[w] > s.warp_begin[w + 1]) return "warp spans overlap";
  }
  for (const MicroOpGroup& g : s.groups) {
    if (g.stages < 1 || g.max_commits < 0 ||
        g.max_commits >= (int64_t{1} << 22)) {
      return "group stages or commit count out of range";
    }
  }
  const int64_t num_groups = static_cast<int64_t>(s.groups.size());
  std::vector<int64_t> max_commits(s.groups.size(), 0);
  std::vector<int64_t> commits(s.groups.size());
  int64_t first_warp_barriers = 0;
  for (size_t w = 0; w < static_cast<size_t>(s.num_warps); ++w) {
    std::fill(commits.begin(), commits.end(), 0);
    int64_t barriers = 0;  // every warp must meet every barrier
    int64_t trips = 1;
    int64_t loop_begin = -1;  // index of the open kLoopBegin, if any
    for (uint32_t i = s.warp_begin[w]; i < s.warp_begin[w + 1]; ++i) {
      const MicroOp& op = s.ops[i];
      if (op.kind > MicroOpKind::kLoopEnd) return "unknown micro-op kind";
      if (UsesGroup(op.kind) && (op.group < 0 || op.group >= num_groups)) {
        return "group id out of range";
      }
      if (IsPooled(op.kind) && op.aux < 0) return "negative operand row";
      if (op.kind == MicroOpKind::kLoopBegin) {
        if (loop_begin >= 0) return "nested loop markers";
        if (op.aux < 2) return "loop trip count below 2";
        loop_begin = i;
        trips = op.aux;
      } else if (op.kind == MicroOpKind::kLoopEnd) {
        if (loop_begin < 0) return "loop end without a loop begin";
        if (op.aux < 1 || op.aux != static_cast<int64_t>(i) - loop_begin - 1) {
          return "loop end body length disagrees with its loop begin";
        }
        loop_begin = -1;
        trips = 1;
      } else if (op.kind == MicroOpKind::kCommit) {
        commits[static_cast<size_t>(op.group)] += trips;
      } else if (op.kind == MicroOpKind::kBarrier) {
        barriers += trips;
      }
    }
    if (loop_begin >= 0) return "loop body runs past its warp's span";
    if (w == 0) first_warp_barriers = barriers;
    if (barriers != first_warp_barriers) {
      return "warps disagree on their barrier count";
    }
    for (size_t g = 0; g < commits.size(); ++g) {
      max_commits[g] = std::max(max_commits[g], commits[g]);
    }
  }
  for (size_t g = 0; g < s.groups.size(); ++g) {
    if (s.groups[g].max_commits != max_commits[g]) {
      return "group max_commits disagrees with the commits its body issues";
    }
  }
  for (const MicroOp& op : s.ops) {
    if (op.kind == MicroOpKind::kWait &&
        (op.aux >> 8) != s.groups[static_cast<size_t>(op.group)].max_commits) {
      return "wait capacity disagrees with its group's max_commits";
    }
  }
  return "";
}

int64_t PoolRowsRead(const MicroOpSkeleton& skeleton) {
  int64_t rows = 0;
  for (const MicroOp& op : skeleton.ops) {
    if (IsPooled(op.kind)) rows = std::max<int64_t>(rows, op.aux + 1);
  }
  return rows;
}

std::shared_ptr<const MicroOpSkeleton> InternSkeleton(
    MicroOpSkeleton&& skeleton) {
  SkeletonPool& pool = GlobalSkeletonPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  ++pool.interns;
  std::vector<std::shared_ptr<const MicroOpSkeleton>>& bucket =
      pool.buckets[skeleton.hash];
  for (const std::shared_ptr<const MicroOpSkeleton>& existing : bucket) {
    if (SkeletonEqual(*existing, skeleton)) {
      ++pool.shared;
      return existing;
    }
  }
  bucket.push_back(
      std::make_shared<const MicroOpSkeleton>(std::move(skeleton)));
  pool.approx_bytes.fetch_add(
      static_cast<uint64_t>(bucket.back()->MemoryBytes()),
      std::memory_order_relaxed);
  return bucket.back();
}

SkeletonPoolStats GetSkeletonPoolStats() {
  SkeletonPool& pool = GlobalSkeletonPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  SkeletonPoolStats stats;
  stats.interns = pool.interns;
  stats.shared = pool.shared;
  stats.compactions = pool.compactions;
  stats.dropped = pool.dropped;
  for (const auto& [hash, bucket] : pool.buckets) {
    stats.skeletons += bucket.size();
    for (const std::shared_ptr<const MicroOpSkeleton>& s : bucket) {
      stats.bytes += static_cast<uint64_t>(s->MemoryBytes());
    }
  }
  return stats;
}

void ResetSkeletonPool() {
  SkeletonPool& pool = GlobalSkeletonPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  pool.buckets.clear();
  pool.interns = 0;
  pool.shared = 0;
  pool.compactions = 0;
  pool.dropped = 0;
  pool.approx_bytes.store(0, std::memory_order_relaxed);
}

uint64_t CompactSkeletonPool() {
  SkeletonPool& pool = GlobalSkeletonPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  ++pool.compactions;
  uint64_t dropped = 0;
  uint64_t dropped_bytes = 0;
  for (auto it = pool.buckets.begin(); it != pool.buckets.end();) {
    std::vector<std::shared_ptr<const MicroOpSkeleton>>& bucket = it->second;
    for (size_t i = bucket.size(); i > 0; --i) {
      // use_count() == 1 means the pool holds the only reference: no
      // cached program and no in-flight replay can reach this skeleton.
      // (A racing CachedSimProgram cannot resurrect it — interning
      // happens under this same mutex.)
      if (bucket[i - 1].use_count() == 1) {
        dropped_bytes += static_cast<uint64_t>(bucket[i - 1]->MemoryBytes());
        bucket.erase(bucket.begin() + static_cast<ptrdiff_t>(i - 1));
        ++dropped;
      }
    }
    it = bucket.empty() ? pool.buckets.erase(it) : std::next(it);
  }
  pool.dropped += dropped;
  pool.approx_bytes.fetch_sub(dropped_bytes, std::memory_order_relaxed);
  return dropped;
}

uint64_t ApproxSkeletonPoolBytes() {
  return GlobalSkeletonPool().approx_bytes.load(std::memory_order_relaxed);
}

MicroOpProgram CompileTraceProgram(const ir::Stmt& program, int num_warps,
                                   const target::GpuSpec& spec,
                                   const TraceCompileOptions& options) {
  ALCOP_CHECK_GT(num_warps, 0);
  return MicroOpCompiler(num_warps, spec, options).Compile(program);
}

}  // namespace sim
}  // namespace alcop
