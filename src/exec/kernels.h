#ifndef SCIBORQ_EXEC_KERNELS_H_
#define SCIBORQ_EXEC_KERNELS_H_

#include <cstdint>

#include "exec/expr.h"

namespace sciborq {

// ---------------------------------------------------------------------------
// Vectorized filter kernels — the tight loops behind predicate evaluation
// over null-free dense row ranges. Each kernel writes the matching row ids
// of [begin, end) into `out` (which must have room for end - begin entries)
// and returns the match count. Rows are emitted in ascending order, so the
// output is a valid SelectionVector segment.
//
// The scalar bodies are branchless (`out[k] = row; k += matched`) so the
// compiler can keep the loop free of unpredictable branches; the double
// kernels additionally carry an explicit AVX2 path selected once per process
// via __builtin_cpu_supports. Both paths implement exactly the semantics of
// the row-at-a-time oracle (Predicate::Matches): IEEE comparisons, so NaN
// fails every ordered comparison and matches kNe. int64 values compare
// through the same double cast Column::NumericAt applies.
// ---------------------------------------------------------------------------

int64_t FilterDoubleCompare(const double* vals, int64_t begin, int64_t end,
                            CompareOp op, double want, int64_t* out);
int64_t FilterInt64Compare(const int64_t* vals, int64_t begin, int64_t end,
                           CompareOp op, double want, int64_t* out);

/// lo <= v <= hi (inclusive both ends, NaN never matches).
int64_t FilterDoubleBetween(const double* vals, int64_t begin, int64_t end,
                            double lo, double hi, int64_t* out);
int64_t FilterInt64Between(const int64_t* vals, int64_t begin, int64_t end,
                           double lo, double hi, int64_t* out);

/// (xs[r] - x0)^2 + (ys[r] - y0)^2 <= r2 for each candidate row r of
/// rows[0, n): the cone test over null-free double columns, gathered through
/// a selection. Writes the matching row ids into `out` (room for n entries)
/// and returns the count. The expression is ConePredicate::Matches's, so
/// NaN coordinates never match.
int64_t FilterDoubleCone(const double* xs, const double* ys,
                         const int64_t* rows, int64_t n, double x0, double y0,
                         double r2, int64_t* out);

/// The same cone test over the contiguous rows [begin, end): no candidate
/// list to build or gather through. Has an AVX2 path; both paths evaluate
/// the expression with the scalar's IEEE operations and order (no fused
/// multiply-add), so they select exactly the rows FilterDoubleCone does.
int64_t FilterDoubleConeRange(const double* xs, const double* ys,
                              int64_t begin, int64_t end, double x0, double y0,
                              double r2, int64_t* out);

/// True when this process dispatches the double kernels to the AVX2 path
/// (x86-64 with AVX2 detected at runtime). Exposed for tests and benches.
bool KernelsUseAvx2();

}  // namespace sciborq

#endif  // SCIBORQ_EXEC_KERNELS_H_
