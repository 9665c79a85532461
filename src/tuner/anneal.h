// Simulated-annealing proposal over the enumerated schedule space — the
// sampling method of TVM's XGBoost tuner (Table II). The walk mutates one
// schedule knob at a time, accepts by the cost model's predicted score,
// and returns the best-scored unvisited configurations it encountered.
#ifndef ALCOP_TUNER_ANNEAL_H_
#define ALCOP_TUNER_ANNEAL_H_

#include <functional>
#include <unordered_set>
#include <vector>

#include "schedule/schedule.h"
#include "support/rng.h"

namespace alcop {
namespace tuner {

struct AnnealOptions {
  int walk_steps = 300;
  double start_temperature = 1.0;
  double end_temperature = 0.05;
  int restarts = 4;
};

// Single-knob adjacency lists for the whole space, each sorted ascending:
// the pairs AreNeighbors accepts, found with one hash pass per knob over
// the other nine. Callers that propose repeatedly over the same space
// (XgbTuner's per-batch loop) build this once.
std::vector<std::vector<size_t>> BuildNeighborLists(
    const std::vector<schedule::ScheduleConfig>& space);

// Proposes up to `batch` distinct indices into `space`, maximizing
// `score(index)` (higher is better), skipping indices in `exclude`.
// `neighbors` must be BuildNeighborLists(space).
std::vector<size_t> ProposeBatch(
    const std::vector<schedule::ScheduleConfig>& space,
    const std::vector<std::vector<size_t>>& neighbors,
    const std::function<double(size_t)>& score,
    const std::unordered_set<size_t>& exclude, size_t batch, Rng& rng,
    const AnnealOptions& options = {});

// Neighbor relation used by the walk: configs differing in exactly one
// knob (one tile dimension, one warp split, or one stage count). Exposed
// for tests.
bool AreNeighbors(const schedule::ScheduleConfig& a,
                  const schedule::ScheduleConfig& b);

}  // namespace tuner
}  // namespace alcop

#endif  // ALCOP_TUNER_ANNEAL_H_
