/**
 * @file
 * Versioned checkpoint/resume of a training run.
 *
 * A checkpoint captures everything a resumed run needs to continue
 * bit-identically to an uninterrupted one (docs/ROBUSTNESS.md):
 *
 *   - model parameter tensors (the weights themselves),
 *   - Adam optimizer state (step count + both moment tensors —
 *     the update rule depends on all three),
 *   - the RNG cursor (sampler seed + call index, since a sample is a
 *     pure function of (seed, call index) — util/rng.h streams),
 *   - the training cursor (epochs completed, last planned K),
 *   - the partitioner's warm-start state (core/betty.h
 *     WarmStartState: its last K and assignment, and the cut of its
 *     last cold solve), without which a resumed run would partition
 *     its next batch cold where an uninterrupted run warm-starts.
 *
 * Format: little-endian, "BETTY_CK" magic + version, the fields
 * above, and a trailing FNV-1a checksum over the payload so a
 * truncated or bit-flipped checkpoint is rejected as a typed IoError
 * instead of silently resuming garbage. tests/test_checkpoint.cc
 * proves the kill-and-resume contract (identical param hash and loss
 * trajectory).
 */
#ifndef BETTY_ROBUSTNESS_CHECKPOINT_H
#define BETTY_ROBUSTNESS_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/betty.h"
#include "data/io.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "tensor/tensor.h"

namespace betty {

/** The serializable training state (see file comment). */
struct TrainCheckpoint
{
    /** Epochs fully finished; a resumed run starts at the next one. */
    int64_t epochsCompleted = 0;

    /** K of the last executed plan (warm-starts the K search). */
    int64_t lastK = 1;

    /** Sampler RNG cursor. */
    uint64_t samplerSeed = 0;
    uint64_t samplerCallIndex = 0;

    /** Model parameters, in Module::parameters() order. */
    std::vector<Tensor> params;

    /** Adam state (step count + first/second moments, same order). */
    int64_t adamStepCount = 0;
    std::vector<Tensor> adamM;
    std::vector<Tensor> adamV;

    /** BettyPartitioner::warmState() of the run's partitioner; the
     * caller fills it (captureCheckpoint leaves it empty) and hands
     * it back to BettyPartitioner::setWarmState() on resume. */
    WarmStartState warmStart;
};

/** Write @p checkpoint to @p path (atomic content: checksummed). */
IoStatus saveCheckpoint(const TrainCheckpoint& checkpoint,
                        const std::string& path);

/**
 * Read a checkpoint written by saveCheckpoint. Typed errors for a
 * missing file, wrong magic/version, truncation, or a checksum
 * mismatch; @p checkpoint is untouched on failure.
 */
IoStatus loadCheckpoint(TrainCheckpoint& checkpoint,
                        const std::string& path);

/** Snapshot @p model + @p adam (+ cursors) into a TrainCheckpoint. */
TrainCheckpoint captureCheckpoint(const GnnModel& model,
                                  const Adam& adam,
                                  int64_t epochs_completed,
                                  int64_t last_k,
                                  uint64_t sampler_seed,
                                  uint64_t sampler_call_index);

/**
 * Restore @p checkpoint's weights and optimizer state into @p model /
 * @p adam. Every tensor shape is validated against the live model
 * first; on any mismatch nothing is modified and ShapeMismatch is
 * returned (resuming a checkpoint into a differently-configured model
 * must fail loudly, not corrupt the weights).
 */
IoStatus restoreCheckpoint(const TrainCheckpoint& checkpoint,
                           GnnModel& model, Adam& adam);

} // namespace betty

#endif // BETTY_ROBUSTNESS_CHECKPOINT_H
