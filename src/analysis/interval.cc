#include "analysis/interval.h"

#include <algorithm>
#include <cstdlib>

namespace alcop {
namespace analysis {

using ir::BinaryNode;
using ir::Expr;
using ir::ExprKind;
using ir::IntImmNode;
using ir::VarNode;

namespace {

// Floor division/modulo matching ir::Evaluate semantics.
int64_t FDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}
int64_t FMod(int64_t a, int64_t b) { return a - FDiv(a, b) * b; }

int64_t Gcd(int64_t a, int64_t b) {
  a = std::abs(a);
  b = std::abs(b);
  while (b != 0) {
    int64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

// Interval plus the set of variables the sub-expression reads. Exactness
// of a sum is only sound when the operands range independently, i.e. use
// disjoint variables; correlated operands (x - x) degrade to inexact.
struct Info {
  Interval iv;
  std::vector<const VarNode*> vars;
};

bool DisjointVars(const Info& a, const Info& b) {
  for (const VarNode* v : a.vars) {
    for (const VarNode* w : b.vars) {
      if (v == w) return false;
    }
  }
  return true;
}

void MergeVars(Info* out, const Info& a, const Info& b) {
  out->vars = a.vars;
  for (const VarNode* v : b.vars) {
    if (std::find(out->vars.begin(), out->vars.end(), v) == out->vars.end()) {
      out->vars.push_back(v);
    }
  }
}

Interval PointIv(int64_t v) { return Interval{v, v, 1, true}; }

Interval Negate(const Interval& a) {
  return Interval{-a.hi, -a.lo, a.stride, a.exact};
}

// Sum of two attained sets. Exact when one operand is a point, or when
// the two progressions tile: with strides s_a >= s_b, the sums stay the
// full progression of stride s_b iff s_b divides s_a and b spans at least
// one s_a period (span_b + s_b >= s_a) — each shifted copy of b then
// meets the next one with no gap in the stride-s_b lattice.
Interval AddIv(const Interval& a, const Interval& b, bool disjoint) {
  Interval out;
  out.lo = a.lo + b.lo;
  out.hi = a.hi + b.hi;
  out.exact = false;
  out.stride = 1;
  if (!disjoint || !a.exact || !b.exact) return out;
  if (a.IsPoint()) {
    out.stride = b.stride;
    out.exact = true;
    return out;
  }
  if (b.IsPoint()) {
    out.stride = a.stride;
    out.exact = true;
    return out;
  }
  const Interval& big = a.stride >= b.stride ? a : b;
  const Interval& small = a.stride >= b.stride ? b : a;
  if (small.stride > 0 && big.stride % small.stride == 0 &&
      (small.hi - small.lo) + small.stride >= big.stride) {
    out.stride = small.stride;
    out.exact = true;
  }
  return out;
}

Interval MulIv(const Interval& a, const Interval& b) {
  if (a.IsPoint() && a.lo == 0) return PointIv(0);
  if (b.IsPoint() && b.lo == 0) return PointIv(0);
  if (b.IsPoint()) {
    int64_t c = b.lo;
    Interval out;
    if (c > 0) {
      out = Interval{a.lo * c, a.hi * c, a.stride * c, a.exact};
    } else {
      out = Interval{a.hi * c, a.lo * c, a.stride * -c, a.exact};
    }
    return out;
  }
  if (a.IsPoint()) return MulIv(b, a);
  // Variable * variable: corner products bound the range; the attained
  // set has no progression structure worth tracking.
  int64_t c[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
  Interval out;
  out.lo = *std::min_element(c, c + 4);
  out.hi = *std::max_element(c, c + 4);
  out.stride = 1;
  out.exact = a.IsPoint() && b.IsPoint();
  return out;
}

// floor(x / c) for constant c > 0. Floor is monotone, so the endpoint
// images are the true extremes. The image stays a full progression when
// c divides the stride (the quotient steps by stride/c) or when the
// input is consecutive (stride 1: consecutive floors skip nothing).
bool DivIv(const Interval& a, const Interval& c_iv, Interval* out) {
  if (!c_iv.IsPoint() || c_iv.lo <= 0) return false;
  int64_t c = c_iv.lo;
  out->lo = FDiv(a.lo, c);
  out->hi = FDiv(a.hi, c);
  out->exact = false;
  out->stride = 1;
  if (a.exact && a.stride % c == 0) {
    out->stride = std::max<int64_t>(a.stride / c, 1);
    out->exact = true;
  } else if (a.exact && a.stride == 1) {
    out->stride = 1;
    out->exact = true;
  }
  return true;
}

// x mod c (floor convention, result in [0, c)) for constant c > 0.
bool ModIv(const Interval& a, const Interval& c_iv, Interval* out) {
  if (!c_iv.IsPoint() || c_iv.lo <= 0) return false;
  int64_t c = c_iv.lo;
  // Whole input inside one period: mod is a shift, structure preserved.
  if (FDiv(a.lo, c) == FDiv(a.hi, c)) {
    out->lo = FMod(a.lo, c);
    out->hi = FMod(a.hi, c);
    out->stride = a.stride;
    out->exact = a.exact;
    return true;
  }
  if (a.exact) {
    // Residues of the progression lo + i*stride cycle with period
    // c / gcd(stride, c); once the progression is at least that long,
    // every residue congruent to lo (mod g) in [0, c) is attained.
    int64_t g = Gcd(std::max<int64_t>(a.stride, 1), c);
    int64_t period = c / g;
    int64_t count = (a.hi - a.lo) / std::max<int64_t>(a.stride, 1) + 1;
    if (count >= period) {
      int64_t r0 = FMod(a.lo, g);
      out->lo = r0;
      out->hi = r0 + (period - 1) * g;
      out->stride = g;
      out->exact = true;
      return true;
    }
  }
  out->lo = 0;
  out->hi = c - 1;
  out->stride = 1;
  out->exact = false;
  return true;
}

Interval MinMaxIv(const Interval& a, const Interval& b, bool is_min) {
  Interval out;
  if (is_min) {
    out.lo = std::min(a.lo, b.lo);
    out.hi = std::min(a.hi, b.hi);
  } else {
    out.lo = std::max(a.lo, b.lo);
    out.hi = std::max(a.hi, b.hi);
  }
  out.stride = 1;
  // Correlated extremes: only point operands stay exact.
  out.exact = a.IsPoint() && b.IsPoint();
  return out;
}

// Comparisons/logical operators evaluate to 0/1; when the operand ranges
// decide the outcome the result is a point, otherwise {0, 1}.
Interval BoolIv(int decided) {
  if (decided < 0) return Interval{0, 1, 1, true};  // both attained? unknown
  return PointIv(decided);
}

bool Eval(const Expr& e, const std::vector<VarRange>& ranges, Info* out);

bool EvalBinary(const BinaryNode* op, const std::vector<VarRange>& ranges,
                Info* out) {
  Info a, b;
  if (!Eval(op->a, ranges, &a) || !Eval(op->b, ranges, &b)) return false;
  MergeVars(out, a, b);
  bool disjoint = DisjointVars(a, b);
  switch (op->kind) {
    case ExprKind::kAdd:
      out->iv = AddIv(a.iv, b.iv, disjoint);
      return true;
    case ExprKind::kSub:
      out->iv = AddIv(a.iv, Negate(b.iv), disjoint);
      return true;
    case ExprKind::kMul:
      out->iv = MulIv(a.iv, b.iv);
      if (!disjoint && !(a.iv.IsPoint() || b.iv.IsPoint())) {
        out->iv.exact = false;
      }
      return true;
    case ExprKind::kFloorDiv:
      return DivIv(a.iv, b.iv, &out->iv);
    case ExprKind::kFloorMod:
      return ModIv(a.iv, b.iv, &out->iv);
    case ExprKind::kMin:
      out->iv = MinMaxIv(a.iv, b.iv, /*is_min=*/true);
      return true;
    case ExprKind::kMax:
      out->iv = MinMaxIv(a.iv, b.iv, /*is_min=*/false);
      return true;
    case ExprKind::kLT:
      out->iv = BoolIv(a.iv.hi < b.iv.lo ? 1 : (a.iv.lo >= b.iv.hi ? 0 : -1));
      out->iv.exact = out->iv.IsPoint();
      return true;
    case ExprKind::kLE:
      out->iv = BoolIv(a.iv.hi <= b.iv.lo ? 1 : (a.iv.lo > b.iv.hi ? 0 : -1));
      out->iv.exact = out->iv.IsPoint();
      return true;
    case ExprKind::kGT:
      out->iv = BoolIv(a.iv.lo > b.iv.hi ? 1 : (a.iv.hi <= b.iv.lo ? 0 : -1));
      out->iv.exact = out->iv.IsPoint();
      return true;
    case ExprKind::kGE:
      out->iv = BoolIv(a.iv.lo >= b.iv.hi ? 1 : (a.iv.hi < b.iv.lo ? 0 : -1));
      out->iv.exact = out->iv.IsPoint();
      return true;
    case ExprKind::kEQ:
      out->iv = BoolIv(a.iv.IsPoint() && b.iv.IsPoint()
                           ? (a.iv.lo == b.iv.lo ? 1 : 0)
                           : (a.iv.hi < b.iv.lo || b.iv.hi < a.iv.lo ? 0
                                                                     : -1));
      out->iv.exact = out->iv.IsPoint();
      return true;
    case ExprKind::kNE:
      out->iv = BoolIv(a.iv.IsPoint() && b.iv.IsPoint()
                           ? (a.iv.lo != b.iv.lo ? 1 : 0)
                           : (a.iv.hi < b.iv.lo || b.iv.hi < a.iv.lo ? 1
                                                                     : -1));
      out->iv.exact = out->iv.IsPoint();
      return true;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      // Truthiness is decided only when zero is provably (un)attainable.
      auto always_true = [](const Interval& x) { return x.lo > 0 || x.hi < 0; };
      auto always_false = [](const Interval& x) {
        return x.IsPoint() && x.lo == 0;
      };
      int decided = -1;
      if (op->kind == ExprKind::kAnd) {
        if (always_false(a.iv) || always_false(b.iv)) decided = 0;
        if (always_true(a.iv) && always_true(b.iv)) decided = 1;
      } else {
        if (always_true(a.iv) || always_true(b.iv)) decided = 1;
        if (always_false(a.iv) && always_false(b.iv)) decided = 0;
      }
      out->iv = BoolIv(decided);
      out->iv.exact = out->iv.IsPoint();
      return true;
    }
    default:
      return false;
  }
}

bool Eval(const Expr& e, const std::vector<VarRange>& ranges, Info* out) {
  switch (e->kind) {
    case ExprKind::kIntImm:
      out->iv = PointIv(static_cast<const IntImmNode*>(e.get())->value);
      out->vars.clear();
      return true;
    case ExprKind::kVar: {
      const auto* var = static_cast<const VarNode*>(e.get());
      for (const VarRange& r : ranges) {
        if (r.var == var) {
          if (r.extent <= 0) return false;
          out->iv = Interval{r.lo, r.lo + r.extent - 1, 1, true};
          out->vars = {var};
          return true;
        }
      }
      return false;  // unbound variable
    }
    default:
      return EvalBinary(static_cast<const BinaryNode*>(e.get()), ranges, out);
  }
}

}  // namespace

bool EvalInterval(const ir::Expr& e, const std::vector<VarRange>& ranges,
                  Interval* out) {
  Info info;
  if (!Eval(e, ranges, &info)) return false;
  *out = info.iv;
  return true;
}

}  // namespace analysis
}  // namespace alcop
