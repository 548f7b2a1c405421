#include "core/betty.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace betty {

namespace {

/** Planner telemetry: the chosen K, search attempts, worst estimate. */
void
recordPlanMetrics(const PlanResult& result)
{
    if (!obs::Metrics::enabled())
        return;
    static obs::Gauge& plan_k = obs::Metrics::gauge("plan.k");
    static obs::Counter& attempts =
        obs::Metrics::counter("plan.attempts");
    static obs::Gauge& estimated_peak =
        obs::Metrics::gauge("plan.max_estimated_peak_bytes");
    plan_k.set(result.k);
    attempts.add(result.attempts);
    estimated_peak.set(result.maxEstimatedPeak);
}

} // namespace

const WeightedGraph&
BettyPartitioner::regFor(const Block& last_block)
{
    if (has_reg_ && last_block.edgeOffsets() == reg_offsets_ &&
        last_block.edgeSources() == reg_sources_)
        return reg_;
    // Free the old REG first, so two large REGs never coexist.
    has_reg_ = false;
    hierarchies_.clear();
    reg_ = WeightedGraph();
    reg_ = buildReg(last_block, options_.reg);
    reg_offsets_ = last_block.edgeOffsets();
    reg_sources_ = last_block.edgeSources();
    has_reg_ = true;
    return reg_;
}

std::vector<std::vector<int64_t>>
BettyPartitioner::partition(const MultiLayerBatch& batch, int32_t k)
{
    BETTY_ASSERT(k >= 1, "k must be >= 1");
    BETTY_TRACE_SPAN_CAT("partition/betty", "partition");
    const auto outputs = batch.outputNodes();
    last_run_was_warm_ = false;
    if (k == 1)
        return {std::vector<int64_t>(outputs.begin(), outputs.end())};

    // Algorithm 1: REG over the output layer, then K-way min cut.
    const WeightedGraph& reg = regFor(batch.blocks.back());
    KwayOptions kway = options_.kway;
    kway.k = k;

    std::vector<int32_t> parts;
    if (options_.warmStart && previous_k_ == k) {
        // Seed from the previous assignment; nodes not seen before
        // take part 0 and let rebalance/refinement place them.
        std::vector<int32_t> initial(outputs.size(), 0);
        size_t carried = 0;
        for (size_t i = 0; i < outputs.size(); ++i) {
            const auto it = previous_assignment_.find(outputs[i]);
            if (it != previous_assignment_.end()) {
                initial[i] = it->second;
                ++carried;
            }
        }
        // Warm starting from a mostly-unseen batch would just be a
        // bad cold start; require half the nodes to carry over.
        if (carried * 2 >= outputs.size()) {
            parts = kwayPartitionWarm(reg, kway, std::move(initial));
            last_run_was_warm_ = true;
        }
    }
    if (parts.empty())
        parts = kwayPartition(reg, kway, hierarchies_);

    if (obs::Metrics::enabled()) {
        // Partition quality: REG edge weight crossing micro-batch
        // boundaries — the redundancy Betty's min-cut minimizes.
        static obs::Gauge& edge_cut =
            obs::Metrics::gauge("partition.edge_cut");
        static obs::Counter& runs =
            obs::Metrics::counter("partition.runs");
        static obs::Counter& warm_runs =
            obs::Metrics::counter("partition.warm_runs");
        edge_cut.set(reg.cutCost(parts));
        runs.increment();
        if (last_run_was_warm_)
            warm_runs.increment();
    }

    if (options_.warmStart) {
        previous_assignment_.clear();
        previous_assignment_.reserve(outputs.size() * 2);
        for (size_t i = 0; i < outputs.size(); ++i)
            previous_assignment_.emplace(outputs[i], parts[i]);
        previous_k_ = k;
    }
    return groupByPart(outputs, parts, k);
}

int64_t
MemoryAwarePlanner::lowerBoundK(const MultiLayerBatch& full) const
{
    if (capacity_ <= 0)
        return 1;
    // Every term of an estimate but the fixed ones is a non-negative
    // combination of per-block counts, and K micro-batches' counts sum
    // to at least the full batch's, so sum_i (est_i − fixed) >=
    // full − fixed. A fitting K has est_i − fixed <= room for every i.
    const MemoryEstimate est = estimateBatchMemory(full, spec_);
    const int64_t fixed =
        est.parameters + est.gradients + est.optimizerStates;
    const int64_t room = capacity_ - reserved_ - fixed;
    const int64_t need = est.peak - fixed;
    if (room <= 0 || need <= 0)
        return 1;
    return (need + room - 1) / room;
}

PlanResult
MemoryAwarePlanner::evaluateK(const MultiLayerBatch& full,
                              const MicroBatchExtractor& extractor,
                              OutputPartitioner& partitioner, int32_t k,
                              bool stop_early) const
{
    BETTY_TRACE_SPAN_CAT("plan/evaluate_k", "partition");
    PlanResult result;
    result.k = k;
    result.attempts = 1;
    const auto groups = partitioner.partition(full, k);
    // Standing reservations (the feature cache) shrink the memory a
    // micro-batch may actually use below the nameplate capacity.
    auto fits = [&](int64_t peak) {
        return capacity_ <= 0 || peak + reserved_ <= capacity_;
    };
    result.microBatches.reserve(groups.size());
    result.estimates.reserve(groups.size());
    for (const auto& group : groups) {
        {
            BETTY_TRACE_SPAN_CAT("partition/extract_micro_batches",
                                 "partition");
            result.microBatches.push_back(extractor.extract(group));
        }
        result.estimates.push_back(
            estimateBatchMemory(result.microBatches.back(), spec_));
        const int64_t peak = result.estimates.back().peak;
        result.maxEstimatedPeak = std::max(result.maxEstimatedPeak, peak);
        if (stop_early && !fits(peak))
            break;
    }
    result.fits = fits(result.maxEstimatedPeak);
    return result;
}

PlanResult
MemoryAwarePlanner::plan(const MultiLayerBatch& full,
                         OutputPartitioner& partitioner,
                         int32_t initial_k, int32_t max_k) const
{
    BETTY_ASSERT(initial_k >= 1 && max_k >= initial_k,
                 "bad K search range");
    BETTY_TRACE_SPAN_CAT("plan/search", "partition");
    const int64_t num_outputs = int64_t(full.outputNodes().size());
    const MicroBatchExtractor extractor(full);

    // A linear search from initial_k stops at its first fitting K, or
    // at the first K >= num_outputs, or at max_k. No K below the bound
    // fits, so starting at the bound, capped by those stops, returns
    // the same K.
    const int32_t start = int32_t(std::max<int64_t>(
        initial_k, std::min({lowerBoundK(full), int64_t(max_k),
                             num_outputs})));
    int32_t attempts = 0;
    for (int32_t k = start;; ++k) {
        ++attempts;
        // Splitting beyond one output node per micro-batch can't help.
        const bool last = int64_t(k) >= num_outputs || k == max_k;
        PlanResult result =
            evaluateK(full, extractor, partitioner, k, !last);
        result.attempts = attempts;
        if (result.fits || last) {
            partitioner.endSearch();
            if (result.fits)
                recordPlanMetrics(result);
            return result;
        }
    }
}

} // namespace betty
