/**
 * @file
 * Backend entry points shared between kernels.cc (dispatch + scalar
 * reference) and avx2.cc (vectorized). Not installed — include only
 * from within src/kernels/.
 */
#ifndef BETTY_KERNELS_KERNELS_INTERNAL_H
#define BETTY_KERNELS_KERNELS_INTERNAL_H

#include <cstdint>

#include "kernels/kernels.h"

namespace betty::kernels::detail {

/** @name Scalar reference backend (kernels.cc)
 * Loop-for-loop identical to the pre-kernel tensor.cc / autograd.cc
 * code; the golden-hash tiers and differential tests anchor on it.
 */
/** @{ */
void gemmScalar(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);
/** @p lda is the row stride of the stored k x m matrix @p a: a block
 * of C rows [i0, i1) is computed from a + i0 with m = i1 - i0. */
void gemmTransAScalar(const float* a, const float* b, float* c,
                      int64_t m, int64_t k, int64_t n, int64_t lda);
void gemmTransBScalar(const float* a, const float* b, float* c,
                      int64_t m, int64_t k, int64_t n);
void gatherAggregateScalar(const float* x, int64_t rows, int64_t cols,
                           const int64_t* sources,
                           const int64_t* offsets, int64_t segments,
                           Reduce reduce, float* out, int64_t* argmax);
void gatherAggregateBackwardScalar(const float* grad_out, int64_t cols,
                                   const int64_t* sources,
                                   const int64_t* offsets,
                                   int64_t segments, bool mean,
                                   float* grad_x);
void addInPlaceScalar(float* y, const float* x, int64_t n);
void addScaledInPlaceScalar(float* y, const float* x, float alpha,
                            int64_t n);
void scaleInPlaceScalar(float* y, float alpha, int64_t n);
/** @} */

#ifdef BETTY_KERNELS_HAVE_AVX2
/** @name AVX2/FMA backend (avx2.cc, compiled with -mavx2 -mfma)
 * Numerics per the kernels.h contract: elementwise and Max reductions
 * bit-exact with scalar, accumulating kernels within the documented
 * forward error bound.
 */
/** @{ */
void gemmAvx2(const float* a, const float* b, float* c, int64_t m,
              int64_t k, int64_t n);
void gemmTransAAvx2(const float* a, const float* b, float* c,
                    int64_t m, int64_t k, int64_t n, int64_t lda);
void gemmTransBAvx2(const float* a, const float* b, float* c,
                    int64_t m, int64_t k, int64_t n);
void gatherAggregateAvx2(const float* x, int64_t rows, int64_t cols,
                         const int64_t* sources,
                         const int64_t* offsets, int64_t segments,
                         Reduce reduce, float* out, int64_t* argmax);
void gatherAggregateBackwardAvx2(const float* grad_out, int64_t cols,
                                 const int64_t* sources,
                                 const int64_t* offsets,
                                 int64_t segments, bool mean,
                                 float* grad_x);
void addInPlaceAvx2(float* y, const float* x, int64_t n);
void addScaledInPlaceAvx2(float* y, const float* x, float alpha,
                          int64_t n);
void scaleInPlaceAvx2(float* y, float alpha, int64_t n);
/** @} */
#endif // BETTY_KERNELS_HAVE_AVX2

} // namespace betty::kernels::detail

#endif // BETTY_KERNELS_KERNELS_INTERNAL_H
