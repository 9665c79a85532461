// Resource estimator and static feasibility verdict (code L006).
//
// Two entry points share the occupancy math of target/occupancy:
//
//  - ResourceEstimatorPass walks the *IR*: shared-memory footprint from
//    shared allocations (stage expansion included, since the pipeline
//    transformation reallocates the buffers with the stage dimension),
//    register footprint from register/accumulator allocations plus the
//    fixed per-thread overhead, warp count from the warp loop extents.
//    For lowered kernels the estimate reproduces
//    schedule::ComputeResources exactly (asserted in tests); for
//    hand-written IR it is the only estimate available. The verdict is
//    published on the AnalysisContext and L006 is emitted when one
//    threadblock does not fit the device.
//
//  - CheckConfigFeasibility is the tuner-facing fast path: pure config
//    arithmetic (ValidateConfig + ComputeResources + ComputeOccupancy),
//    no IR built. Its `reason` strings mirror the simulator's
//    ("invalid schedule: ...", "threadblock does not fit: ...")
//    because it must agree with CompileSimProgram verdict-for-verdict -
//    the model-guided pre-filter (tuner ModelKeepSet) ranks only the
//    configs it admits, and lint L006 reports its verdict.
#ifndef ALCOP_ANALYSIS_RESOURCES_H_
#define ALCOP_ANALYSIS_RESOURCES_H_

#include "analysis/pass.h"
#include "schedule/schedule.h"

namespace alcop {
namespace analysis {

// The fixed per-thread register overhead schedule::ComputeResources
// charges (32 registers x 32 threads x 4 bytes per warp).
constexpr int64_t kPerWarpOverheadBytes = 32 * 32 * 4;

class ResourceEstimatorPass : public AnalysisPass {
 public:
  const char* name() const override { return "resource-estimator"; }
  void Run(AnalysisContext& ctx, verify::DiagnosticEngine& diags) override;
};

// Config-arithmetic feasibility check (the model-guided pre-filter's
// feasible set, lint L006). Agrees with sim::CompileSimProgram's feasibility verdict by
// construction (same ValidateConfig and occupancy calls, same reason
// strings).
StaticFeasibility CheckConfigFeasibility(const schedule::GemmOp& op,
                                         const schedule::ScheduleConfig& config,
                                         const target::GpuSpec& spec);

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_RESOURCES_H_
