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
#include <string>
#include <unordered_map>
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

    /**
     * Warm-start repeated partitioning (our implementation of the
     * paper's future-work item on reducing partitioning overhead,
     * §7): when the same partitioner object repartitions a resampled
     * batch at the same K, seed the solver from the previous epoch's
     * assignment and only refine, instead of running full multilevel
     * V-cycles. Falls back to a cold start whenever K changes or too
     * few output nodes carry over.
     */
    bool warmStart = false;
};

/**
 * Betty's redundancy-aware output partitioner (paper §4.3.2,
 * Algorithm 1): build the REG over the batch's output layer and
 * min-cut it K ways, so output nodes sharing many in-neighbors stay
 * in the same micro-batch.
 *
 * The REG depends only on the output block, not on K, so the
 * partitioner keeps the last one it built and reuses it while the
 * planner probes K values on the same batch. The cache is keyed by
 * the block's contents (its CSR offsets and sources, compared element
 * by element), never by its address: a batch resampled into the same
 * object gets a fresh REG.
 */
class BettyPartitioner : public OutputPartitioner
{
  public:
    explicit BettyPartitioner(BettyOptions options = {})
        : options_(std::move(options))
    {
    }

    std::vector<std::vector<int64_t>> partition(
        const MultiLayerBatch& batch, int32_t k) override;

    std::string name() const override { return "betty"; }

    /** True if the last partition() call reused the previous epoch's
     * assignment (warm start). */
    bool lastRunWasWarm() const { return last_run_was_warm_; }

  private:
    /** The REG of @p last_block: the cached one when the block's
     * adjacency equals the one it was built from, else a new build
     * (the old REG is freed first). */
    const WeightedGraph& regFor(const Block& last_block);

    BettyOptions options_;
    // REG reuse: the last REG built and the adjacency it came from.
    WeightedGraph reg_;
    std::vector<int64_t> reg_offsets_;
    std::vector<int64_t> reg_sources_;
    bool has_reg_ = false;
    // Warm-start memory: the previous assignment, by raw-graph id.
    std::unordered_map<int64_t, int32_t> previous_assignment_;
    int32_t previous_k_ = 0;
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

    /** How many K values were tried before fitting. */
    int32_t attempts = 0;

    /** False if even maxK micro-batches exceed the capacity. */
    bool fits = false;
};

/**
 * Memory-aware batch re-partitioning (paper §4.4.3): starting from
 * K = initial_k, partition, extract, estimate every micro-batch's
 * peak memory analytically, and re-partition with K+1 until every
 * micro-batch fits the device budget — no on-device trial and error.
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
     * Size K and produce the micro-batches using @p partitioner.
     * @param max_k Safety bound on the search.
     */
    PlanResult plan(const MultiLayerBatch& full,
                    OutputPartitioner& partitioner,
                    int32_t initial_k = 1, int32_t max_k = 4096) const;

    /**
     * Fast search variant (our extension; the paper's loop is the
     * strict K -> K+1 of plan()): double K until every micro-batch
     * fits, then binary-search the gap for the smallest fitting K.
     * O(log K) partition+estimate rounds instead of O(K). Because the
     * worst micro-batch's memory is not perfectly monotone in K, the
     * result can occasionally sit one step above plan()'s minimum; it
     * always fits (or reports fits=false like plan()).
     */
    PlanResult planGeometric(const MultiLayerBatch& full,
                             OutputPartitioner& partitioner,
                             int32_t max_k = 4096) const;

  private:
    /** Partition at exactly @p k and estimate every micro-batch. */
    PlanResult evaluateK(const MultiLayerBatch& full,
                         OutputPartitioner& partitioner,
                         int32_t k) const;

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

    /** Like plan() but with the O(log K) geometric search. */
    PlanResult
    planFast(const MultiLayerBatch& full)
    {
        return planner_.planGeometric(full, partitioner_,
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
