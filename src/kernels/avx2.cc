/**
 * @file
 * AVX2/FMA backend. This translation unit is the only one compiled
 * with -mavx2 -mfma (see src/kernels/CMakeLists.txt); nothing here
 * runs unless dispatch.cc verified the CPU reports both features.
 *
 * Numeric design (docs/KERNELS.md): every vectorized loop keeps the
 * SCALAR ACCUMULATION ORDER per output element — vector lanes run
 * across output columns, never across the reduction axis, so each
 * element sees its contributions in exactly the scalar sequence.
 * The only differences from the reference are (a) FMA fusing the
 * multiply-add in gemm/gemmTransA/aggregate sums, and (b) gemmTransB
 * accumulating in two double lanes instead of one. Elementwise ops
 * and Max reductions use the same per-element operations as scalar
 * and are bit-exact.
 */
#include "kernels/kernels_internal.h"

#ifdef BETTY_KERNELS_HAVE_AVX2

#include <immintrin.h>

#include <cstdint>
#include <limits>

#include "util/logging.h"

namespace betty::kernels::detail {

namespace {

/** Source row of edge @p e (mirror of the scalar backend's helper). */
inline int64_t
sourceRow(const int64_t* sources, int64_t e)
{
    return sources ? sources[e] : e;
}

/** Horizontal sum of a 4-lane double vector. */
inline double
hsum(__m256d v)
{
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const __m128d swapped = _mm_unpackhi_pd(pair, pair);
    return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

} // namespace

void
gemmAvx2(const float* a, const float* b, float* c, int64_t m,
         int64_t k, int64_t n)
{
    // Register-blocked i-k-j: a 32-column C tile stays in four ymm
    // accumulators across the whole k reduction, so each C element is
    // written once instead of k times and B streams through cache
    // row-by-row. The aval == 0 skip (ReLU sparsity) is preserved.
    for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        int64_t j = 0;
        for (; j + 32 <= n; j += 32) {
            float* ctile = crow + j;
            __m256 c0 = _mm256_loadu_ps(ctile);
            __m256 c1 = _mm256_loadu_ps(ctile + 8);
            __m256 c2 = _mm256_loadu_ps(ctile + 16);
            __m256 c3 = _mm256_loadu_ps(ctile + 24);
            for (int64_t kk = 0; kk < k; ++kk) {
                const float aval = arow[kk];
                if (aval == 0.0f)
                    continue;
                const __m256 av = _mm256_set1_ps(aval);
                const float* btile = b + kk * n + j;
                c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(btile), c0);
                c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(btile + 8),
                                     c1);
                c2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(btile + 16),
                                     c2);
                c3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(btile + 24),
                                     c3);
            }
            _mm256_storeu_ps(ctile, c0);
            _mm256_storeu_ps(ctile + 8, c1);
            _mm256_storeu_ps(ctile + 16, c2);
            _mm256_storeu_ps(ctile + 24, c3);
        }
        for (; j + 8 <= n; j += 8) {
            __m256 c0 = _mm256_loadu_ps(crow + j);
            for (int64_t kk = 0; kk < k; ++kk) {
                const float aval = arow[kk];
                if (aval == 0.0f)
                    continue;
                c0 = _mm256_fmadd_ps(_mm256_set1_ps(aval),
                                     _mm256_loadu_ps(b + kk * n + j),
                                     c0);
            }
            _mm256_storeu_ps(crow + j, c0);
        }
        if (j < n) {
            for (int64_t kk = 0; kk < k; ++kk) {
                const float aval = arow[kk];
                if (aval == 0.0f)
                    continue;
                const float* brow = b + kk * n;
                for (int64_t jj = j; jj < n; ++jj)
                    crow[jj] += aval * brow[jj];
            }
        }
    }
}

void
gemmTransAAvx2(const float* a, const float* b, float* c, int64_t m,
               int64_t k, int64_t n, int64_t lda)
{
    // k-outer like the scalar reference (C rows accumulate in memory
    // across the k loop — per-element k order preserved).
    for (int64_t kk = 0; kk < k; ++kk) {
        const float* arow = a + kk * lda;
        const float* brow = b + kk * n;
        for (int64_t i = 0; i < m; ++i) {
            const float aval = arow[i];
            if (aval == 0.0f)
                continue;
            const __m256 av = _mm256_set1_ps(aval);
            float* crow = c + i * n;
            int64_t j = 0;
            for (; j + 8 <= n; j += 8)
                _mm256_storeu_ps(
                    crow + j,
                    _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j),
                                    _mm256_loadu_ps(crow + j)));
            for (; j < n; ++j)
                crow[j] += aval * brow[j];
        }
    }
}

void
gemmTransBAvx2(const float* a, const float* b, float* c, int64_t m,
               int64_t k, int64_t n)
{
    // Dot products accumulate in two 4-lane DOUBLE vectors to stay
    // within rounding noise of the scalar reference's single double
    // accumulator (the lane split reassociates, but in double the
    // residual is far below float resolution).
    for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const float* brow = b + j * k;
            __m256d acc_lo = _mm256_setzero_pd();
            __m256d acc_hi = _mm256_setzero_pd();
            int64_t kk = 0;
            for (; kk + 8 <= k; kk += 8) {
                const __m256 av = _mm256_loadu_ps(arow + kk);
                const __m256 bv = _mm256_loadu_ps(brow + kk);
                acc_lo = _mm256_fmadd_pd(
                    _mm256_cvtps_pd(_mm256_castps256_ps128(av)),
                    _mm256_cvtps_pd(_mm256_castps256_ps128(bv)),
                    acc_lo);
                acc_hi = _mm256_fmadd_pd(
                    _mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)),
                    _mm256_cvtps_pd(_mm256_extractf128_ps(bv, 1)),
                    acc_hi);
            }
            double acc = hsum(_mm256_add_pd(acc_lo, acc_hi));
            for (; kk < k; ++kk)
                acc += double(arow[kk]) * double(brow[kk]);
            crow[j] += static_cast<float>(acc);
        }
    }
}

void
gatherAggregateAvx2(const float* x, int64_t rows, int64_t cols,
                    const int64_t* sources, const int64_t* offsets,
                    int64_t segments, Reduce reduce, float* out,
                    int64_t* argmax)
{
    if (reduce == Reduce::Max) {
        BETTY_ASSERT(rows <= std::numeric_limits<int32_t>::max(),
                     "Max aggregation row index exceeds 32-bit lane");
        for (int64_t s = 0; s < segments; ++s) {
            const int64_t begin = offsets[s], end = offsets[s + 1];
            float* orow = out + s * cols;
            int64_t* arow = argmax ? argmax + s * cols : nullptr;
            int64_t j = 0;
            for (; j + 8 <= cols; j += 8) {
                // Lane semantics mirror the scalar chain exactly:
                // take the first edge unconditionally (idx still -1),
                // then strict v > best — so a leading NaN sticks and
                // later NaNs lose, matching the reference bit-for-bit.
                __m256 best = _mm256_setzero_ps();
                __m256i idx = _mm256_set1_epi32(-1);
                for (int64_t e = begin; e < end; ++e) {
                    const int64_t src = sourceRow(sources, e);
                    BETTY_ASSERT(src >= 0 && src < rows,
                                 "source index out of range");
                    const __m256 v =
                        _mm256_loadu_ps(x + src * cols + j);
                    const __m256 first = _mm256_castsi256_ps(
                        _mm256_cmpeq_epi32(idx,
                                           _mm256_set1_epi32(-1)));
                    const __m256 gt =
                        _mm256_cmp_ps(v, best, _CMP_GT_OQ);
                    const __m256 take = _mm256_or_ps(first, gt);
                    best = _mm256_blendv_ps(best, v, take);
                    idx = _mm256_blendv_epi8(
                        idx, _mm256_set1_epi32(int32_t(src)),
                        _mm256_castps_si256(take));
                }
                // Empty segments: idx lanes stay -1 and best stays 0,
                // so the masked store below writes the zero row.
                const __m256 valid = _mm256_castsi256_ps(
                    _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(-1)));
                _mm256_storeu_ps(
                    orow + j,
                    _mm256_and_ps(best, valid));
                if (arow) {
                    const __m128i lo = _mm256_castsi256_si128(idx);
                    const __m128i hi =
                        _mm256_extracti128_si256(idx, 1);
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i*>(arow + j),
                        _mm256_cvtepi32_epi64(lo));
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i*>(arow + j + 4),
                        _mm256_cvtepi32_epi64(hi));
                }
            }
            for (; j < cols; ++j) {
                float best = 0.0f;
                int64_t best_row = -1;
                for (int64_t e = begin; e < end; ++e) {
                    const int64_t src = sourceRow(sources, e);
                    const float v = x[src * cols + j];
                    if (best_row < 0 || v > best) {
                        best = v;
                        best_row = src;
                    }
                }
                orow[j] = best_row >= 0 ? best : 0.0f;
                if (arow)
                    arow[j] = best_row;
            }
        }
        return;
    }

    const bool mean = reduce == Reduce::Mean;
    for (int64_t s = 0; s < segments; ++s) {
        const int64_t begin = offsets[s], end = offsets[s + 1];
        const int64_t deg = end - begin;
        const float scale =
            mean && deg > 0 ? 1.0f / float(deg) : 1.0f;
        const __m256 sv = _mm256_set1_ps(scale);
        float* orow = out + s * cols;
        int64_t j = 0;
        // A 32-column tile accumulates in registers across all of the
        // segment's edges — the fused gather never materializes the
        // [edges, cols] matrix, and per-element edge order is the
        // scalar order.
        for (; j + 32 <= cols; j += 32) {
            __m256 a0 = _mm256_setzero_ps();
            __m256 a1 = _mm256_setzero_ps();
            __m256 a2 = _mm256_setzero_ps();
            __m256 a3 = _mm256_setzero_ps();
            for (int64_t e = begin; e < end; ++e) {
                const int64_t src = sourceRow(sources, e);
                BETTY_ASSERT(src >= 0 && src < rows,
                             "source index out of range");
                const float* xtile = x + src * cols + j;
                a0 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(xtile), a0);
                a1 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(xtile + 8),
                                     a1);
                a2 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(xtile + 16),
                                     a2);
                a3 = _mm256_fmadd_ps(sv, _mm256_loadu_ps(xtile + 24),
                                     a3);
            }
            _mm256_storeu_ps(orow + j, a0);
            _mm256_storeu_ps(orow + j + 8, a1);
            _mm256_storeu_ps(orow + j + 16, a2);
            _mm256_storeu_ps(orow + j + 24, a3);
        }
        for (; j + 8 <= cols; j += 8) {
            __m256 acc = _mm256_setzero_ps();
            for (int64_t e = begin; e < end; ++e) {
                const int64_t src = sourceRow(sources, e);
                acc = _mm256_fmadd_ps(
                    sv, _mm256_loadu_ps(x + src * cols + j), acc);
            }
            _mm256_storeu_ps(orow + j, acc);
        }
        if (j < cols) {
            for (int64_t jj = j; jj < cols; ++jj)
                orow[jj] = 0.0f;
            for (int64_t e = begin; e < end; ++e) {
                const float* xrow = x + sourceRow(sources, e) * cols;
                for (int64_t jj = j; jj < cols; ++jj)
                    orow[jj] += scale * xrow[jj];
            }
        }
    }
}

void
gatherAggregateBackwardAvx2(const float* grad_out, int64_t cols,
                            const int64_t* sources,
                            const int64_t* offsets, int64_t segments,
                            bool mean, float* grad_x)
{
    for (int64_t s = 0; s < segments; ++s) {
        const int64_t begin = offsets[s], end = offsets[s + 1];
        const int64_t deg = end - begin;
        if (deg == 0)
            continue;
        const float scale = mean ? 1.0f / float(deg) : 1.0f;
        const __m256 sv = _mm256_set1_ps(scale);
        const float* grow = grad_out + s * cols;
        for (int64_t e = begin; e < end; ++e) {
            float* xrow = grad_x + sourceRow(sources, e) * cols;
            int64_t j = 0;
            for (; j + 8 <= cols; j += 8)
                _mm256_storeu_ps(
                    xrow + j,
                    _mm256_fmadd_ps(sv, _mm256_loadu_ps(grow + j),
                                    _mm256_loadu_ps(xrow + j)));
            for (; j < cols; ++j)
                xrow[j] += scale * grow[j];
        }
    }
}

void
addInPlaceAvx2(float* y, const float* x, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i,
                         _mm256_add_ps(_mm256_loadu_ps(y + i),
                                       _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        y[i] += x[i];
}

void
addScaledInPlaceAvx2(float* y, const float* x, float alpha, int64_t n)
{
    // mul then add, NOT fmadd: each element must round identically to
    // the scalar `y[i] += alpha * x[i]` (optimizer updates feed the
    // checkpoint-resume determinism tier).
    const __m256 av = _mm256_set1_ps(alpha);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            y + i,
            _mm256_add_ps(_mm256_loadu_ps(y + i),
                          _mm256_mul_ps(av, _mm256_loadu_ps(x + i))));
    for (; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scaleInPlaceAvx2(float* y, float alpha, int64_t n)
{
    const __m256 av = _mm256_set1_ps(alpha);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            y + i, _mm256_mul_ps(av, _mm256_loadu_ps(y + i)));
    for (; i < n; ++i)
        y[i] *= alpha;
}

} // namespace betty::kernels::detail

#endif // BETTY_KERNELS_HAVE_AVX2
