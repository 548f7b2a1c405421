#include "core/betty.h"

#include <algorithm>
#include <utility>

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

/** @p cut as a share of @p edge_weight (0 for an edgeless REG). */
double
cutShare(int64_t cut, int64_t edge_weight)
{
    return edge_weight > 0 ? double(cut) / double(edge_weight) : 0.0;
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

std::vector<int32_t>
BettyPartitioner::carriedParts(std::span<const int64_t> outputs,
                               bool same_outputs, int32_t k)
{
    if (state_.k != k || k <= 1)
        return {};
    // A full-batch epoch has the previous call's outputs in the same
    // order: the parts carry over position by position.
    if (same_outputs)
        return std::move(state_.parts);

    // Otherwise match ids through two sorted lists; nodes not seen
    // before take part 0 and rebalancing and refinement place them.
    std::vector<std::pair<int64_t, int32_t>> previous;
    previous.reserve(state_.outputs.size());
    for (size_t i = 0; i < state_.outputs.size(); ++i)
        previous.emplace_back(state_.outputs[i], state_.parts[i]);
    std::sort(previous.begin(), previous.end());
    std::vector<std::pair<int64_t, size_t>> current;
    current.reserve(outputs.size());
    for (size_t i = 0; i < outputs.size(); ++i)
        current.emplace_back(outputs[i], i);
    std::sort(current.begin(), current.end());

    std::vector<int32_t> parts(outputs.size(), 0);
    size_t carried = 0;
    for (size_t a = 0, b = 0;
         a < previous.size() && b < current.size();) {
        if (previous[a].first < current[b].first) {
            ++a;
        } else if (current[b].first < previous[a].first) {
            ++b;
        } else {
            parts[current[b].second] = previous[a].second;
            ++carried;
            ++a;
            ++b;
        }
    }
    // Warm starting from a mostly-unseen batch would just be a bad
    // cold start; require half the nodes to carry over.
    if (carried * 2 < outputs.size())
        return {};
    return parts;
}

void
BettyPartitioner::setWarmState(WarmStartState state)
{
    BETTY_ASSERT(state.k >= 0 &&
                     state.outputs.size() == state.parts.size(),
                 "warm-start state: outputs and parts differ in size");
    for (int32_t p : state.parts)
        BETTY_ASSERT(p >= 0 && p < state.k,
                     "warm-start state: part id out of range");
    state_ = std::move(state);
}

std::vector<std::vector<int64_t>>
BettyPartitioner::partition(const MultiLayerBatch& batch, int32_t k)
{
    BETTY_ASSERT(k >= 1, "k must be >= 1");
    BETTY_TRACE_SPAN_CAT("partition/betty", "partition");
    const auto outputs = batch.outputNodes();
    last_run_was_warm_ = false;
    if (k == 1) {
        state_.k = 1;
        state_.outputs.clear();
        state_.parts.clear();
        return {std::vector<int64_t>(outputs.begin(), outputs.end())};
    }

    // Algorithm 1: REG over the output layer, then K-way min cut.
    const WeightedGraph& reg = regFor(batch.blocks.back());
    KwayOptions kway = options_.kway;
    kway.k = k;
    const bool same_outputs =
        std::ranges::equal(outputs, state_.outputs);

    // A cold solve's cut share is the drift guard's reference.
    const int64_t edge_weight = reg.totalEdgeWeight();
    auto solve_cold = [&] {
        state_.coldEdgeWeight = edge_weight;
        return kwayPartition(reg, kway, hierarchies_, &state_.coldCut);
    };
    const bool metrics = obs::Metrics::enabled();
    std::vector<int32_t> parts = carriedParts(outputs, same_outputs, k);
    int64_t cut = 0;
    if (parts.empty()) {
        parts = solve_cold();
        cut = state_.coldCut;
    } else {
        parts = kwayPartitionWarm(reg, kway, std::move(parts));
        cut = reg.cutCost(parts);
        last_run_was_warm_ = true;
        // Drift guard: a warm cut share too far above the last cold
        // solve's means the carried parts no longer fit the batch.
        const double warm_share = cutShare(cut, edge_weight);
        const double cold_share =
            cutShare(state_.coldCut, state_.coldEdgeWeight);
        if (metrics && cold_share > 0) {
            static obs::Gauge& drift =
                obs::Metrics::gauge("partition.cut_drift");
            drift.set(int64_t((warm_share / cold_share - 1.0) * 1000.0));
        }
        if (warm_share > cold_share * (1.0 + kMaxCutDrift)) {
            if (metrics) {
                static obs::Counter& fallbacks =
                    obs::Metrics::counter("partition.cold_fallbacks");
                fallbacks.increment();
            }
            std::vector<int32_t> cold = solve_cold();
            if (state_.coldCut <= cut) {
                parts = std::move(cold);
                cut = state_.coldCut;
                last_run_was_warm_ = false;
            }
        }
    }

    if (metrics) {
        // Partition quality: REG edge weight crossing micro-batch
        // boundaries — the redundancy Betty's min-cut minimizes.
        static obs::Gauge& edge_cut =
            obs::Metrics::gauge("partition.edge_cut");
        static obs::Counter& runs =
            obs::Metrics::counter("partition.runs");
        static obs::Counter& warm_runs =
            obs::Metrics::counter("partition.warm_runs");
        edge_cut.set(cut);
        runs.increment();
        if (last_run_was_warm_)
            warm_runs.increment();
    }

    auto groups = groupByPart(outputs, parts, k);
    state_.k = k;
    if (!same_outputs)
        state_.outputs.assign(outputs.begin(), outputs.end());
    state_.parts = std::move(parts);
    return groups;
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
