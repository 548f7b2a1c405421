/**
 * @file
 * The compute hot-path kernels behind tensor/tensor.cc and
 * tensor/autograd.cc, dispatched at runtime between the scalar
 * reference backend and the AVX2/FMA backend (kernels/dispatch.h).
 *
 * Everything here works on raw row-major float32 buffers so both the
 * Tensor layer and the trainer's host-side staging gather
 * (train/trainer.cc) can call in without materializing wrappers.
 *
 * Numeric contract (docs/KERNELS.md "ULP policy"):
 *  - The scalar backend is bit-identical to the pre-kernel code.
 *  - gatherRows / scatterAddRows / addInPlace / addScaledInPlace /
 *    scaleInPlace / gatherAggregate Max are bit-identical across
 *    backends (no reassociation; max uses the same `v > best`
 *    comparison chain in both).
 *  - gemm* and gatherAggregate Sum/Mean keep the scalar accumulation
 *    ORDER on the AVX2 path but fuse multiply+add (FMA) and, for
 *    gemmTransB, accumulate in float lanes instead of one double —
 *    results agree within the BLAS-style forward error bound
 *    |avx2 - scalar| <= C * depth * eps * ||inputs|| that
 *    tests/test_kernels.cc enforces over randomized shapes.
 */
#ifndef BETTY_KERNELS_KERNELS_H
#define BETTY_KERNELS_KERNELS_H

#include <cstdint>

namespace betty::kernels {

/**
 * Intra-op parallelism (docs/KERNELS.md): gemm, gemmTransA,
 * gemmTransB, gatherAggregate and gatherRows split their output rows
 * over ThreadPool::global() once a call's work — in multiply-adds:
 * m·k·n, edges·cols or rows·cols — reaches this size; smaller calls
 * run on the calling thread. Each output element is computed by the
 * same instructions whatever the split, so results are bit-identical
 * at every pool size. The scatter kernels (gatherAggregateBackward,
 * scatterAddRows) stay serial: their output rows collide.
 */
constexpr int64_t kParallelMinWork = int64_t(1) << 22;

/** Reduction of a fused gather-aggregate (nn Mean/Sum/Pool paths). */
enum class Reduce { Sum, Mean, Max };

/** @name Cache-blocked GEMM
 * All variants ACCUMULATE into @p c — callers zero it first when
 * overwrite semantics are wanted (that is what the tensor.cc
 * matmul* entry points do). Shapes use the non-transposed logical
 * dimensions: c is m x n.
 */
/** @{ */

/** c[m,n] += a[m,k] * b[k,n]. */
void gemm(const float* a, const float* b, float* c, int64_t m,
          int64_t k, int64_t n);

/** c[m,n] += aT[k,m]ᵀ * b[k,n] (a stored k x m). */
void gemmTransA(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);

/** c[m,n] += a[m,k] * bT[n,k]ᵀ (b stored n x k). */
void gemmTransB(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);

/** @} */

/** @name Fused gather-aggregate over CSR blocks
 * out[s,:] = reduce over edges e in [offsets[s], offsets[s+1]) of
 * x[sources[e],:] — the DGL-style fused message-passing kernel: the
 * [edges, cols] gather is never materialized. offsets has
 * segments + 1 entries; empty segments produce zero rows. Mean
 * scales every contribution by 1/degree as it accumulates (matching
 * the historical autograd op bit-for-bit on the scalar path). Max
 * records the winning source row per (segment, column) in
 * @p argmax (segments * cols entries, -1 for empty segments) for
 * the backward pass.
 */
/** @{ */

void gatherAggregate(const float* x, int64_t rows, int64_t cols,
                     const int64_t* sources,
                     const int64_t* offsets, int64_t segments,
                     Reduce reduce, float* out,
                     int64_t* argmax = nullptr);

/** Backward of Sum/Mean: grad_x[sources[e],:] += scale * grad_out[s,:]. */
void gatherAggregateBackward(const float* grad_out, int64_t cols,
                             const int64_t* sources,
                             const int64_t* offsets,
                             int64_t segments, bool mean,
                             float* grad_x);

/** @} */

/** @name Row movement */
/** @{ */

/** out[i,:] = x[indices[i],:]; indices are asserted in [0, rows). */
void gatherRows(const float* x, int64_t rows, int64_t cols,
                const int64_t* indices, int64_t count, float* out);

/** grad_x[indices[i],:] += grad[i,:] (gatherRows backward). */
void scatterAddRows(const float* grad, int64_t cols,
                    const int64_t* indices, int64_t count,
                    float* grad_x);

/** @} */

/** @name Elementwise (bit-exact across backends) */
/** @{ */

/** y[i] += x[i]. */
void addInPlace(float* y, const float* x, int64_t n);

/** y[i] += alpha * x[i] (mul then add — no FMA, to stay bit-exact
 * with the scalar reference). */
void addScaledInPlace(float* y, const float* x, float alpha,
                      int64_t n);

/** y[i] *= alpha. */
void scaleInPlace(float* y, float alpha, int64_t n);

/** @} */

} // namespace betty::kernels

#endif // BETTY_KERNELS_KERNELS_H
