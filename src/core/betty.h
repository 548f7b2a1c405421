/**
 * @file
 * Betty's public API: REG-based batch-level partitioning plus the
 * memory-aware planner that sizes the number of micro-batches.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   NeighborSampler sampler(ds.graph, {10, 25});
 *   auto full = sampler.sample(ds.trainNodes);
 *   Betty betty(model.memorySpec(), {.deviceCapacityBytes = gib(2)});
 *   auto plan = betty.plan(full);
 *   trainer.trainMicroBatches(plan.microBatches);
 */
#ifndef BETTY_CORE_BETTY_H
#define BETTY_CORE_BETTY_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/micro_batch.h"
#include "memory/estimator.h"
#include "partition/kway_partitioner.h"
#include "partition/partitioner.h"
#include "partition/reg.h"
#include "sampling/block.h"

namespace betty {

/** Knobs of Betty's partitioning stage. */
struct BettyOptions
{
    /** REG construction parameters (hub guard, vertex weights). */
    RegOptions reg;

    /** Multilevel min-cut solver parameters (k is set per call). */
    KwayOptions kway;
};

/**
 * What a BettyPartitioner carries from one partition() call to the
 * next: the call's assignment, which seeds a warm start, and the cut
 * of the last cold solve, which the drift guard measures warm cuts
 * against. A checkpoint stores it (robustness/checkpoint.h), so a
 * resumed run partitions its next batch exactly as an uninterrupted
 * run does.
 */
struct WarmStartState
{
    /** K of the last partition() call; 0 before the first one. */
    int32_t k = 0;

    /** That call's output nodes (raw-graph ids, in batch order) and
     * the part of each; both empty when k <= 1. */
    std::vector<int64_t> outputs;
    std::vector<int32_t> parts;

    /** Cut of the last cold solve and the total edge weight of the
     * REG it ran on. */
    int64_t coldCut = 0;
    int64_t coldEdgeWeight = 0;
};

/**
 * Betty's redundancy-aware output partitioner (paper §4.3.2,
 * Algorithm 1): build the REG over the batch's output layer and
 * min-cut it K ways, so output nodes sharing many in-neighbors stay
 * in the same micro-batch.
 *
 * The REG depends only on the output block, not on K, so the
 * partitioner keeps the last one it built and reuses it while the
 * planner probes K values on the same batch. Next to it, it keeps
 * every K-way restart's coarsening hierarchy of that REG
 * (CoarseHierarchy), so a probe at a new K coarsens only past the
 * deepest level an earlier probe built; endSearch() frees them. The
 * cache is keyed by the block's contents (its CSR offsets and
 * sources, compared element by element), never by its address: a
 * batch resampled into the same object gets a fresh REG and fresh
 * hierarchies.
 *
 * Warm start (docs/ALGORITHMS.md §2b; the paper's future-work item
 * on partitioning overhead, §7): a call at the same K as the
 * previous call, on a batch that keeps at least half of that call's
 * output nodes, seeds the solver with the previous parts and only
 * rebalances and refines (kwayPartitionWarm). A full-batch epoch
 * keeps every output node, so every later epoch's plan at an
 * unchanged K is warm. If the warm cut, as a share of the REG's
 * total edge weight, exceeds the last cold solve's share by more
 * than kMaxCutDrift, the same call also runs the cold V-cycle and
 * keeps the lower cut. A fresh partitioner, or any change of K, is
 * cold.
 */
class BettyPartitioner : public OutputPartitioner
{
  public:
    /** Relative growth of the cut share over the last cold solve's
     * that makes a warm run also solve cold (the drift guard). */
    static constexpr double kMaxCutDrift = 0.05;

    explicit BettyPartitioner(BettyOptions options = {})
        : options_(std::move(options))
    {
    }

    std::vector<std::vector<int64_t>> partition(
        const MultiLayerBatch& batch, int32_t k) override;

    std::string name() const override { return "betty"; }

    /** Frees the coarsening hierarchies; the REG stays cached. */
    void endSearch() override { hierarchies_.clear(); }

    /** True if the last partition() call returned a warm-started
     * assignment (false when the drift guard's cold solve won). */
    bool lastRunWasWarm() const { return last_run_was_warm_; }

    /** The state the next call warm-starts from (checkpointing). */
    const WarmStartState& warmState() const { return state_; }

    /** Replace that state, e.g. with a checkpoint's. Aborts unless
     * outputs and parts have equal sizes and every part is in
     * [0, k). */
    void setWarmState(WarmStartState state);

  private:
    /** The REG of @p last_block: the cached one when the block's
     * adjacency equals the one it was built from, else a new build
     * (the old REG and its hierarchies are freed first). */
    const WeightedGraph& regFor(const Block& last_block);

    /** The previous parts carried onto @p outputs, or empty when the
     * K differs or fewer than half of the nodes carry over. */
    std::vector<int32_t> carriedParts(std::span<const int64_t> outputs,
                                      bool same_outputs, int32_t k);

    BettyOptions options_;
    // REG reuse: the last REG built, its restarts' coarsening
    // hierarchies and the adjacency it came from.
    WeightedGraph reg_;
    std::vector<CoarseHierarchy> hierarchies_;
    std::vector<int64_t> reg_offsets_;
    std::vector<int64_t> reg_sources_;
    bool has_reg_ = false;
    WarmStartState state_;
    bool last_run_was_warm_ = false;
};

/** Output of memory-aware planning. */
struct PlanResult
{
    /** Chosen number of micro-batches. */
    int32_t k = 0;

    /** The extracted micro-batches, ready for the trainer. */
    std::vector<MultiLayerBatch> microBatches;

    /** Per-micro-batch memory estimates (same order). */
    std::vector<MemoryEstimate> estimates;

    /** Largest estimated micro-batch peak, bytes. */
    int64_t maxEstimatedPeak = 0;

    /** How many K values were probed, counting from the first one the
     * search tried (the larger of initial_k and the lower bound). */
    int32_t attempts = 0;

    /** False if even maxK micro-batches exceed the capacity. */
    bool fits = false;
};

/**
 * Memory-aware batch re-partitioning (paper §4.4.3): partition,
 * extract, estimate every micro-batch's peak memory analytically, and
 * re-partition with K+1 until every micro-batch fits the device
 * budget — no on-device trial and error.
 *
 * The search returns the K a linear search from initial_k returns, at
 * lower cost (docs/ALGORITHMS.md §2a):
 *   - it starts at the Table-3 lower bound
 *     ceil((full − fixed) / (capacity − reserved − fixed)), where full
 *     is the whole batch's estimate and fixed its parameters,
 *     gradients and optimizer state, because no smaller K can fit;
 *   - a probe that is not the last one stops extracting at its first
 *     micro-batch over the budget, which already proves that K fails.
 */
class MemoryAwarePlanner
{
  public:
    /**
     * @param spec Model description used by the estimator.
     * @param capacity_bytes Device memory budget each micro-batch's
     * estimated peak must stay under.
     */
    MemoryAwarePlanner(GnnSpec spec, int64_t capacity_bytes)
        : spec_(std::move(spec)), capacity_(capacity_bytes)
    {
    }

    /**
     * Retarget the planner at a new budget mid-run. The resilient
     * runtime calls this when the device capacity changes under it
     * (robustness/resilient_trainer.h) so re-planning fits the
     * capacity that actually exists now, not the one configured at
     * startup.
     */
    void setCapacity(int64_t capacity_bytes)
    {
        capacity_ = capacity_bytes;
    }

    int64_t capacity() const { return capacity_; }

    /**
     * Bytes carved out of the device by standing reservations — the
     * feature cache (cache/feature_cache.h) — that training tensors
     * can never use. The fit check becomes
     * `worst_peak + reserved <= capacity`, so planning with a cache
     * installed picks a K whose micro-batches fit the memory that is
     * actually available, not the nameplate capacity.
     */
    void setReservedBytes(int64_t reserved_bytes)
    {
        reserved_ = reserved_bytes;
    }

    int64_t reservedBytes() const { return reserved_; }

    /**
     * Size K and produce the micro-batches using @p partitioner, then
     * call its endSearch().
     * @param max_k Safety bound on the search.
     */
    PlanResult plan(const MultiLayerBatch& full,
                    OutputPartitioner& partitioner,
                    int32_t initial_k = 1, int32_t max_k = 4096) const;

  private:
    /** The smallest K the Table-3 bound allows; 1 when the budget is
     * unlimited or the fixed costs alone leave no room. */
    int64_t lowerBoundK(const MultiLayerBatch& full) const;

    /** Partition at exactly @p k and estimate each micro-batch as it
     * is extracted. With @p stop_early, stop at the first one that
     * does not fit (the result then holds the micro-batches up to it
     * and reports fits = false). */
    PlanResult evaluateK(const MultiLayerBatch& full,
                         const MicroBatchExtractor& extractor,
                         OutputPartitioner& partitioner, int32_t k,
                         bool stop_early) const;

    GnnSpec spec_;
    int64_t capacity_;
    int64_t reserved_ = 0;
};

/** Top-level configuration of the Betty facade. */
struct BettyConfig
{
    /** Device budget the planner targets. */
    int64_t deviceCapacityBytes = 0;

    /** Partitioning knobs. */
    BettyOptions partition;

    /** First K the planner tries. */
    int32_t initialK = 1;

    /** Safety bound on the K search. */
    int32_t maxK = 4096;
};

/** One-stop facade: REG partitioning + memory-aware planning. */
class Betty
{
  public:
    Betty(GnnSpec spec, BettyConfig config)
        : partitioner_(config.partition),
          planner_(std::move(spec), config.deviceCapacityBytes),
          config_(std::move(config))
    {
    }

    /** Partition @p full into the fewest micro-batches that fit. */
    PlanResult
    plan(const MultiLayerBatch& full)
    {
        return planner_.plan(full, partitioner_, config_.initialK,
                             config_.maxK);
    }

    /** Partition @p full into exactly @p k micro-batches (no planner). */
    std::vector<MultiLayerBatch>
    partition(const MultiLayerBatch& full, int32_t k)
    {
        return extractMicroBatches(full, partitioner_.partition(full, k));
    }

    BettyPartitioner& partitioner() { return partitioner_; }

  private:
    BettyPartitioner partitioner_;
    MemoryAwarePlanner planner_;
    BettyConfig config_;
};

} // namespace betty

#endif // BETTY_CORE_BETTY_H
