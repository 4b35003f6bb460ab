#include "exec/kernels.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sciborq {

namespace {

template <CompareOp op>
inline bool CmpDouble(double v, double want) {
  if constexpr (op == CompareOp::kEq) return v == want;
  if constexpr (op == CompareOp::kNe) return v != want;
  if constexpr (op == CompareOp::kLt) return v < want;
  if constexpr (op == CompareOp::kLe) return v <= want;
  if constexpr (op == CompareOp::kGt) return v > want;
  if constexpr (op == CompareOp::kGe) return v >= want;
  return false;
}

template <CompareOp op>
int64_t ScalarFilterDouble(const double* vals, int64_t begin, int64_t end,
                           double want, int64_t* out) {
  int64_t k = 0;
  for (int64_t row = begin; row < end; ++row) {
    out[k] = row;
    k += CmpDouble<op>(vals[row], want) ? 1 : 0;
  }
  return k;
}

template <CompareOp op>
int64_t ScalarFilterInt64(const int64_t* vals, int64_t begin, int64_t end,
                          double want, int64_t* out) {
  int64_t k = 0;
  for (int64_t row = begin; row < end; ++row) {
    out[k] = row;
    k += CmpDouble<op>(static_cast<double>(vals[row]), want) ? 1 : 0;
  }
  return k;
}

int64_t ScalarFilterDoubleConeRange(const double* xs, const double* ys,
                                    int64_t begin, int64_t end, double x0,
                                    double y0, double r2, int64_t* out) {
  int64_t k = 0;
  for (int64_t row = begin; row < end; ++row) {
    const double dx = xs[row] - x0;
    const double dy = ys[row] - y0;
    out[k] = row;
    k += (dx * dx + dy * dy <= r2) ? 1 : 0;
  }
  return k;
}

#if defined(__x86_64__)

bool DetectAvx2() { return __builtin_cpu_supports("avx2") != 0; }

/// The _mm256_cmp_pd immediate matching CmpDouble<op> under IEEE semantics:
/// ordered-quiet for every op except kNe, which must be unordered so NaN
/// values match `v != want` exactly like the scalar path.
template <CompareOp op>
constexpr int CmpImm() {
  if constexpr (op == CompareOp::kEq) return _CMP_EQ_OQ;
  if constexpr (op == CompareOp::kNe) return _CMP_NEQ_UQ;
  if constexpr (op == CompareOp::kLt) return _CMP_LT_OQ;
  if constexpr (op == CompareOp::kLe) return _CMP_LE_OQ;
  if constexpr (op == CompareOp::kGt) return _CMP_GT_OQ;
  return _CMP_GE_OQ;
}

template <CompareOp op>
__attribute__((target("avx2"))) int64_t Avx2FilterDouble(
    const double* vals, int64_t begin, int64_t end, double want,
    int64_t* out) {
  int64_t k = 0;
  int64_t row = begin;
  const __m256d w = _mm256_set1_pd(want);
  for (; row + 4 <= end; row += 4) {
    const __m256d v = _mm256_loadu_pd(vals + row);
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(v, w, CmpImm<op>()));
    for (int b = 0; b < 4; ++b) {
      out[k] = row + b;
      k += (mask >> b) & 1;
    }
  }
  for (; row < end; ++row) {
    out[k] = row;
    k += CmpDouble<op>(vals[row], want) ? 1 : 0;
  }
  return k;
}

__attribute__((target("avx2"))) int64_t Avx2FilterDoubleBetween(
    const double* vals, int64_t begin, int64_t end, double lo, double hi,
    int64_t* out) {
  int64_t k = 0;
  int64_t row = begin;
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  for (; row + 4 <= end; row += 4) {
    const __m256d v = _mm256_loadu_pd(vals + row);
    const __m256d in = _mm256_and_pd(_mm256_cmp_pd(v, vlo, _CMP_GE_OQ),
                                     _mm256_cmp_pd(v, vhi, _CMP_LE_OQ));
    const int mask = _mm256_movemask_pd(in);
    for (int b = 0; b < 4; ++b) {
      out[k] = row + b;
      k += (mask >> b) & 1;
    }
  }
  for (; row < end; ++row) {
    const double v = vals[row];
    out[k] = row;
    k += (v >= lo && v <= hi) ? 1 : 0;
  }
  return k;
}

/// The cone expression four rows at a time: subtract, square, add, compare,
/// each lane the scalar expression's IEEE operations in the same order. The
/// target enables AVX2 only, so no multiply-add is fused.
__attribute__((target("avx2"))) int64_t Avx2FilterDoubleConeRange(
    const double* xs, const double* ys, int64_t begin, int64_t end, double x0,
    double y0, double r2, int64_t* out) {
  int64_t k = 0;
  int64_t row = begin;
  const __m256d vx0 = _mm256_set1_pd(x0);
  const __m256d vy0 = _mm256_set1_pd(y0);
  const __m256d vr2 = _mm256_set1_pd(r2);
  for (; row + 4 <= end; row += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + row), vx0);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + row), vy0);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    const int mask = _mm256_movemask_pd(_mm256_cmp_pd(d2, vr2, _CMP_LE_OQ));
    for (int b = 0; b < 4; ++b) {
      out[k] = row + b;
      k += (mask >> b) & 1;
    }
  }
  return k + ScalarFilterDoubleConeRange(xs, ys, row, end, x0, y0, r2,
                                         out + k);
}

#endif  // defined(__x86_64__)

template <CompareOp op>
int64_t FilterDoubleDispatch(const double* vals, int64_t begin, int64_t end,
                             double want, int64_t* out) {
#if defined(__x86_64__)
  if (KernelsUseAvx2()) {
    return Avx2FilterDouble<op>(vals, begin, end, want, out);
  }
#endif
  return ScalarFilterDouble<op>(vals, begin, end, want, out);
}

}  // namespace

bool KernelsUseAvx2() {
#if defined(__x86_64__)
  static const bool have = DetectAvx2();
  return have;
#else
  return false;
#endif
}

int64_t FilterDoubleCompare(const double* vals, int64_t begin, int64_t end,
                            CompareOp op, double want, int64_t* out) {
  switch (op) {
    case CompareOp::kEq:
      return FilterDoubleDispatch<CompareOp::kEq>(vals, begin, end, want, out);
    case CompareOp::kNe:
      return FilterDoubleDispatch<CompareOp::kNe>(vals, begin, end, want, out);
    case CompareOp::kLt:
      return FilterDoubleDispatch<CompareOp::kLt>(vals, begin, end, want, out);
    case CompareOp::kLe:
      return FilterDoubleDispatch<CompareOp::kLe>(vals, begin, end, want, out);
    case CompareOp::kGt:
      return FilterDoubleDispatch<CompareOp::kGt>(vals, begin, end, want, out);
    case CompareOp::kGe:
      return FilterDoubleDispatch<CompareOp::kGe>(vals, begin, end, want, out);
  }
  return 0;
}

int64_t FilterInt64Compare(const int64_t* vals, int64_t begin, int64_t end,
                           CompareOp op, double want, int64_t* out) {
  switch (op) {
    case CompareOp::kEq:
      return ScalarFilterInt64<CompareOp::kEq>(vals, begin, end, want, out);
    case CompareOp::kNe:
      return ScalarFilterInt64<CompareOp::kNe>(vals, begin, end, want, out);
    case CompareOp::kLt:
      return ScalarFilterInt64<CompareOp::kLt>(vals, begin, end, want, out);
    case CompareOp::kLe:
      return ScalarFilterInt64<CompareOp::kLe>(vals, begin, end, want, out);
    case CompareOp::kGt:
      return ScalarFilterInt64<CompareOp::kGt>(vals, begin, end, want, out);
    case CompareOp::kGe:
      return ScalarFilterInt64<CompareOp::kGe>(vals, begin, end, want, out);
  }
  return 0;
}

int64_t FilterDoubleBetween(const double* vals, int64_t begin, int64_t end,
                            double lo, double hi, int64_t* out) {
#if defined(__x86_64__)
  if (KernelsUseAvx2()) {
    return Avx2FilterDoubleBetween(vals, begin, end, lo, hi, out);
  }
#endif
  int64_t k = 0;
  for (int64_t row = begin; row < end; ++row) {
    const double v = vals[row];
    out[k] = row;
    k += (v >= lo && v <= hi) ? 1 : 0;
  }
  return k;
}

int64_t FilterDoubleCone(const double* xs, const double* ys,
                         const int64_t* rows, int64_t n, double x0, double y0,
                         double r2, int64_t* out) {
  int64_t k = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t row = rows[i];
    const double dx = xs[row] - x0;
    const double dy = ys[row] - y0;
    out[k] = row;
    k += (dx * dx + dy * dy <= r2) ? 1 : 0;
  }
  return k;
}

int64_t FilterDoubleConeRange(const double* xs, const double* ys,
                              int64_t begin, int64_t end, double x0, double y0,
                              double r2, int64_t* out) {
#if defined(__x86_64__)
  if (KernelsUseAvx2()) {
    return Avx2FilterDoubleConeRange(xs, ys, begin, end, x0, y0, r2, out);
  }
#endif
  return ScalarFilterDoubleConeRange(xs, ys, begin, end, x0, y0, r2, out);
}

int64_t FilterInt64Between(const int64_t* vals, int64_t begin, int64_t end,
                           double lo, double hi, int64_t* out) {
  int64_t k = 0;
  for (int64_t row = begin; row < end; ++row) {
    const double v = static_cast<double>(vals[row]);
    out[k] = row;
    k += (v >= lo && v <= hi) ? 1 : 0;
  }
  return k;
}

}  // namespace sciborq
