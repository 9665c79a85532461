// Interval (value-range) analysis over index expressions.
//
// The static analyses of src/analysis reason about the range a region
// offset can take over a loop nest without enumerating the nest. An
// Interval is a sound over-approximation of the attained value set: the
// set is always contained in [lo, hi]. When `exact` is true the analysis
// additionally proved that the attained set is *exactly* the arithmetic
// progression {lo, lo + stride, ..., hi} — which is what lets the bounds
// checker turn "the interval exceeds the buffer extent" into a *provable*
// out-of-bounds verdict instead of a may-alarm.
//
// The rules mirror how the lowering composes offsets: affine sums of
// loop variables (each variable appearing once), scaled by constants and
// wrapped with floordiv/floormod by the stage count. Exactness is only
// claimed where a small amount of number theory guarantees it (see the
// per-operator comments in interval.cc); everything else degrades to an
// inexact bound, and the bounds checker falls back to enumeration.
#ifndef ALCOP_ANALYSIS_INTERVAL_H_
#define ALCOP_ANALYSIS_INTERVAL_H_

#include <cstdint>
#include <vector>

#include "ir/expr.h"

namespace alcop {
namespace analysis {

// Value range of one loop variable: the values {lo, lo + 1, ...,
// lo + extent - 1} (a whole loop when lo is 0, one iteration when extent
// is 1).
struct VarRange {
  const ir::VarNode* var = nullptr;
  int64_t extent = 0;
  int64_t lo = 0;
};

struct Interval {
  int64_t lo = 0;
  int64_t hi = 0;
  // Step of the attained arithmetic progression; meaningful when `exact`.
  int64_t stride = 1;
  // True when the attained set is exactly {lo, lo+stride, ..., hi}.
  bool exact = true;

  bool IsPoint() const { return lo == hi; }
};

// Computes the interval of `e` with every variable ranging over its
// VarRange. Returns false (and leaves `out` untouched) when the range
// cannot be bounded at all: an unbound variable, a non-constant or
// non-positive divisor/modulus. On success `out` always satisfies the
// containment guarantee; `out->exact` may still be false.
bool EvalInterval(const ir::Expr& e, const std::vector<VarRange>& ranges,
                  Interval* out);

}  // namespace analysis
}  // namespace alcop

#endif  // ALCOP_ANALYSIS_INTERVAL_H_
