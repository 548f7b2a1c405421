/**
 * @file
 * Kernel dispatch wrappers plus the scalar reference backend.
 *
 * The scalar loops are the pre-kernel tensor.cc / autograd.cc bodies
 * moved here verbatim — including the zero-skip in gemm/gemmTransA
 * and the double accumulator in gemmTransB — so the scalar path stays
 * bit-identical to every recorded golden hash. Do not "clean up"
 * these loops; numeric equivalence is load-bearing.
 */
#include "kernels/kernels.h"

#include <algorithm>

#include "kernels/dispatch.h"
#include "kernels/kernels_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace betty::kernels {

namespace detail {

void
gemmScalar(const float* a, const float* b, float* c, int64_t m,
           int64_t k, int64_t n)
{
    // i-k-j loop order streams B and C rows; good cache behaviour for
    // the tall-skinny shapes (many nodes x small hidden) GNN training
    // produces. The aval == 0 skip exploits ReLU sparsity.
    for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t kk = 0; kk < k; ++kk) {
            const float aval = arow[kk];
            if (aval == 0.0f)
                continue;
            const float* brow = b + kk * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += aval * brow[j];
        }
    }
}

void
gemmTransAScalar(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, int64_t lda)
{
    for (int64_t kk = 0; kk < k; ++kk) {
        const float* arow = a + kk * lda;
        const float* brow = b + kk * n;
        for (int64_t i = 0; i < m; ++i) {
            const float aval = arow[i];
            if (aval == 0.0f)
                continue;
            float* crow = c + i * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += aval * brow[j];
        }
    }
}

void
gemmTransBScalar(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n)
{
    for (int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) {
            const float* brow = b + j * k;
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += double(arow[kk]) * double(brow[kk]);
            crow[j] += static_cast<float>(acc);
        }
    }
}

namespace {

/** Source row of edge @p e: indirect through sources when present,
 * else the contiguous-segment identity (segmentSum/Mean/Max). */
inline int64_t
sourceRow(const int64_t* sources, int64_t e)
{
    return sources ? sources[e] : e;
}

} // namespace

void
gatherAggregateScalar(const float* x, int64_t rows, int64_t cols,
                      const int64_t* sources, const int64_t* offsets,
                      int64_t segments, Reduce reduce, float* out,
                      int64_t* argmax)
{
    if (reduce == Reduce::Max) {
        for (int64_t s = 0; s < segments; ++s) {
            for (int64_t j = 0; j < cols; ++j) {
                float best = 0.0f;
                int64_t best_row = -1;
                for (int64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
                    const int64_t src = sourceRow(sources, e);
                    BETTY_ASSERT(src >= 0 && src < rows,
                                 "source index out of range");
                    const float v = x[src * cols + j];
                    if (best_row < 0 || v > best) {
                        best = v;
                        best_row = src;
                    }
                }
                out[s * cols + j] = best_row >= 0 ? best : 0.0f;
                if (argmax)
                    argmax[s * cols + j] = best_row;
            }
        }
        return;
    }
    const bool mean = reduce == Reduce::Mean;
    for (int64_t s = 0; s < segments; ++s) {
        float* orow = out + s * cols;
        for (int64_t j = 0; j < cols; ++j)
            orow[j] = 0.0f;
        const int64_t deg = offsets[s + 1] - offsets[s];
        if (deg == 0)
            continue;
        const float scale = mean ? 1.0f / float(deg) : 1.0f;
        for (int64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
            const int64_t src = sourceRow(sources, e);
            BETTY_ASSERT(src >= 0 && src < rows,
                         "source index out of range");
            const float* xrow = x + src * cols;
            for (int64_t j = 0; j < cols; ++j)
                orow[j] += scale * xrow[j];
        }
    }
}

void
gatherAggregateBackwardScalar(const float* grad_out, int64_t cols,
                              const int64_t* sources,
                              const int64_t* offsets, int64_t segments,
                              bool mean, float* grad_x)
{
    for (int64_t s = 0; s < segments; ++s) {
        const int64_t deg = offsets[s + 1] - offsets[s];
        if (deg == 0)
            continue;
        const float scale = mean ? 1.0f / float(deg) : 1.0f;
        const float* grow = grad_out + s * cols;
        for (int64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
            float* xrow = grad_x + sourceRow(sources, e) * cols;
            for (int64_t j = 0; j < cols; ++j)
                xrow[j] += scale * grow[j];
        }
    }
}

void
addInPlaceScalar(float* y, const float* x, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] += x[i];
}

void
addScaledInPlaceScalar(float* y, const float* x, float alpha,
                       int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scaleInPlaceScalar(float* y, float alpha, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] *= alpha;
}

} // namespace detail

namespace {

/** Shared dispatch predicate: one cached-atomic load per call. */
inline bool
useAvx2()
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    return activeBackend() == Backend::Avx2;
#else
    return false;
#endif
}

/** Target work per chunk of a parallel call... */
constexpr int64_t kChunkWork = int64_t(1) << 19;
/** ...with at most this many chunks. */
constexpr int64_t kMaxChunks = 32;
/** Smallest gemmTransA block: every block streams all of B, so thin
 * blocks re-read B more often than they compute. */
constexpr int64_t kTransAMinRows = 32;

/**
 * Run body(lo, hi) over the output rows [0, rows). Below
 * kParallelMinWork, or on a one-lane pool, that is a single call over
 * every row. Otherwise the global pool runs blocks of at least
 * @p min_rows rows, whose boundaries depend only on (rows, work,
 * min_rows). @p body writes only rows [lo, hi) of its output, each
 * with the same instructions whatever the block, so every lane count
 * gives the same bytes.
 */
template <typename Body>
void
forRowBlocks(int64_t rows, int64_t work, int64_t min_rows,
             const Body& body)
{
    // Decided before touching the pool: ThreadPool::global() locks.
    ThreadPool* pool = work >= kParallelMinWork && rows > min_rows
                           ? &ThreadPool::global()
                           : nullptr;
    if (!pool || pool->numThreads() == 1) {
        body(int64_t(0), rows);
        return;
    }
    const int64_t chunks =
        std::clamp<int64_t>(work / kChunkWork, 1, kMaxChunks);
    pool->parallelFor(0, rows,
                      std::max(min_rows, (rows + chunks - 1) / chunks),
                      body);
}

} // namespace

void
gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
     int64_t n)
{
    BETTY_TRACE_SPAN_CAT("kernel/gemm", "compute");
    static obs::Counter& calls = obs::Metrics::counter("kernel.gemm.calls");
    static obs::Counter& flops = obs::Metrics::counter("kernel.gemm.flops");
    calls.add(1);
    flops.add(2 * m * k * n);
    [[maybe_unused]] const bool avx2 = useAvx2();
    forRowBlocks(m, m * k * n, 1, [=](int64_t lo, int64_t hi) {
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (avx2)
            return detail::gemmAvx2(a + lo * k, b, c + lo * n, hi - lo,
                                    k, n);
#endif
        detail::gemmScalar(a + lo * k, b, c + lo * n, hi - lo, k, n);
    });
}

void
gemmTransA(const float* a, const float* b, float* c, int64_t m,
           int64_t k, int64_t n)
{
    BETTY_TRACE_SPAN_CAT("kernel/gemm_ta", "compute");
    static obs::Counter& calls = obs::Metrics::counter("kernel.gemm.calls");
    static obs::Counter& flops = obs::Metrics::counter("kernel.gemm.flops");
    calls.add(1);
    flops.add(2 * m * k * n);
    // C's rows are the columns of the stored A, so a block keeps the
    // k-outer loop over its own column slice (row stride m).
    [[maybe_unused]] const bool avx2 = useAvx2();
    forRowBlocks(m, m * k * n, kTransAMinRows, [=](int64_t lo,
                                                   int64_t hi) {
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (avx2)
            return detail::gemmTransAAvx2(a + lo, b, c + lo * n,
                                          hi - lo, k, n, m);
#endif
        detail::gemmTransAScalar(a + lo, b, c + lo * n, hi - lo, k, n,
                                 m);
    });
}

void
gemmTransB(const float* a, const float* b, float* c, int64_t m,
           int64_t k, int64_t n)
{
    BETTY_TRACE_SPAN_CAT("kernel/gemm_tb", "compute");
    static obs::Counter& calls = obs::Metrics::counter("kernel.gemm.calls");
    static obs::Counter& flops = obs::Metrics::counter("kernel.gemm.flops");
    calls.add(1);
    flops.add(2 * m * k * n);
    [[maybe_unused]] const bool avx2 = useAvx2();
    forRowBlocks(m, m * k * n, 1, [=](int64_t lo, int64_t hi) {
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (avx2)
            return detail::gemmTransBAvx2(a + lo * k, b, c + lo * n,
                                          hi - lo, k, n);
#endif
        detail::gemmTransBScalar(a + lo * k, b, c + lo * n, hi - lo, k,
                                 n);
    });
}

void
gatherAggregate(const float* x, int64_t rows, int64_t cols,
                const int64_t* sources, const int64_t* offsets,
                int64_t segments, Reduce reduce, float* out,
                int64_t* argmax)
{
    BETTY_ASSERT(reduce != Reduce::Max || argmax != nullptr,
                 "Max aggregation needs an argmax buffer");
    BETTY_TRACE_SPAN_CAT("kernel/gather_aggregate", "compute");
    static obs::Counter& calls = obs::Metrics::counter("kernel.agg.calls");
    static obs::Counter& edges = obs::Metrics::counter("kernel.agg.edges");
    const int64_t num_edges = segments > 0 ? offsets[segments] : 0;
    calls.add(1);
    edges.add(num_edges);
    // Offsets index the edge arrays absolutely, so a block of
    // segments only shifts offsets, out and argmax.
    [[maybe_unused]] const bool avx2 = useAvx2();
    forRowBlocks(segments, num_edges * cols, 1, [=](int64_t lo,
                                                    int64_t hi) {
        int64_t* block_argmax = argmax ? argmax + lo * cols : nullptr;
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (avx2)
            return detail::gatherAggregateAvx2(
                x, rows, cols, sources, offsets + lo, hi - lo, reduce,
                out + lo * cols, block_argmax);
#endif
        detail::gatherAggregateScalar(x, rows, cols, sources,
                                      offsets + lo, hi - lo, reduce,
                                      out + lo * cols, block_argmax);
    });
}

void
gatherAggregateBackward(const float* grad_out, int64_t cols,
                        const int64_t* sources, const int64_t* offsets,
                        int64_t segments, bool mean, float* grad_x)
{
    BETTY_TRACE_SPAN_CAT("kernel/gather_aggregate_bwd", "compute");
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2())
        return detail::gatherAggregateBackwardAvx2(
            grad_out, cols, sources, offsets, segments, mean, grad_x);
#endif
    detail::gatherAggregateBackwardScalar(grad_out, cols, sources,
                                          offsets, segments, mean,
                                          grad_x);
}

void
gatherRows(const float* x, int64_t rows, int64_t cols,
           const int64_t* indices, int64_t count, float* out)
{
    BETTY_TRACE_SPAN_CAT("kernel/gather_rows", "gather");
    static obs::Counter& gathered =
        obs::Metrics::counter("kernel.gather.rows");
    gathered.add(count);
    // Row copies are pure bandwidth, so both backends share this
    // memcpy path (bit-exact by construction); splitting the rows
    // draws on more than one core's share of that bandwidth.
    forRowBlocks(count, count * cols, 1, [=](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            const int64_t src = indices[i];
            BETTY_ASSERT(src >= 0 && src < rows, "gatherRows index ",
                         src, " out of range");
            __builtin_memcpy(out + i * cols, x + src * cols,
                             size_t(cols) * sizeof(float));
        }
    });
}

void
scatterAddRows(const float* grad, int64_t cols, const int64_t* indices,
               int64_t count, float* grad_x)
{
    for (int64_t i = 0; i < count; ++i) {
        const float* grow = grad + i * cols;
        float* xrow = grad_x + indices[i] * cols;
#ifdef BETTY_KERNELS_HAVE_AVX2
        if (useAvx2()) {
            detail::addInPlaceAvx2(xrow, grow, cols);
            continue;
        }
#endif
        detail::addInPlaceScalar(xrow, grow, cols);
    }
}

void
addInPlace(float* y, const float* x, int64_t n)
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2())
        return detail::addInPlaceAvx2(y, x, n);
#endif
    detail::addInPlaceScalar(y, x, n);
}

void
addScaledInPlace(float* y, const float* x, float alpha, int64_t n)
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2())
        return detail::addScaledInPlaceAvx2(y, x, alpha, n);
#endif
    detail::addScaledInPlaceScalar(y, x, alpha, n);
}

void
scaleInPlace(float* y, float alpha, int64_t n)
{
#ifdef BETTY_KERNELS_HAVE_AVX2
    if (useAvx2())
        return detail::scaleInPlaceAvx2(y, alpha, n);
#endif
    detail::scaleInPlaceScalar(y, alpha, n);
}

} // namespace betty::kernels
