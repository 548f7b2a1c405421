#include "partition/kway_partitioner.h"

#include <algorithm>

#include "obs/trace.h"
#include "partition/coarsen.h"
#include "partition/initial.h"
#include "partition/refine.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace betty {

size_t
CoarseHierarchy::coarsenTo(const WeightedGraph& graph, int64_t target,
                           Rng& rng)
{
    auto nodes_at = [&](size_t depth) {
        return depth == 0 ? graph.numNodes()
                          : levels_[depth - 1].graph.numNodes();
    };
    // Descend through the levels already built.
    size_t depth = 0;
    while (depth < levels_.size() && nodes_at(depth) > target)
        ++depth;
    if (nodes_at(depth) > target && !rejected_) {
        // Keep matching until the graph is small or matching stops
        // shrinking it (>95% survival means mostly singletons).
        BETTY_TRACE_SPAN_CAT("partition/coarsen", "partition");
        while (nodes_at(depth) > target) {
            const WeightedGraph& current =
                depth == 0 ? graph : levels_[depth - 1].graph;
            Rng next = after_[depth];
            const auto matching = heavyEdgeMatching(current, next);
            CoarseLevel level = coarsen(current, matching);
            if (level.graph.numNodes() >
                int64_t(double(current.numNodes()) * 0.95)) {
                rejected_ = next;
                break;
            }
            levels_.push_back(std::move(level));
            after_.push_back(next);
            ++depth;
        }
    }
    rng = nodes_at(depth) > target ? *rejected_ : after_[depth];
    return depth;
}

namespace {

/** One multilevel V-cycle: coarsen, initial partition, refine back. */
std::vector<int32_t>
multilevelCycle(const WeightedGraph& graph, const KwayOptions& opts,
                CoarseHierarchy& hierarchy)
{
    const int64_t coarsen_target =
        std::max<int64_t>(opts.k * opts.coarsenToPerPart, 64);
    Rng rng;
    const size_t depth = hierarchy.coarsenTo(graph, coarsen_target, rng);
    auto graph_at = [&](size_t d) -> const WeightedGraph& {
        return d == 0 ? graph : hierarchy.level(d - 1).graph;
    };

    // Initial partition on the coarsest graph, then refine it there.
    std::vector<int32_t> parts;
    {
        BETTY_TRACE_SPAN_CAT("partition/initial", "partition");
        const WeightedGraph& coarsest = graph_at(depth);
        parts = greedyGrowPartition(coarsest, opts.k, rng);
        rebalance(coarsest, parts, opts.k, opts.imbalance, rng);
        refineKway(coarsest, parts, opts.k, opts.imbalance,
                   opts.refinePasses, rng);
    }

    // Uncoarsening: project through the levels, refining each time.
    BETTY_TRACE_SPAN_CAT("partition/refine", "partition");
    for (size_t d = depth; d > 0; --d) {
        const WeightedGraph& finer = graph_at(d - 1);
        const auto& fine_to_coarse = hierarchy.level(d - 1).fineToCoarse;
        std::vector<int32_t> fine_parts(size_t(finer.numNodes()));
        for (int64_t v = 0; v < finer.numNodes(); ++v)
            fine_parts[size_t(v)] =
                parts[size_t(fine_to_coarse[size_t(v)])];
        parts = std::move(fine_parts);
        rebalance(finer, parts, opts.k, opts.imbalance, rng);
        refineKway(finer, parts, opts.k, opts.imbalance,
                   opts.refinePasses, rng);
    }

    return parts;
}

/** Restart @p run's seed. */
uint64_t
restartSeed(const KwayOptions& opts, int64_t run)
{
    return opts.seed + uint64_t(run) * 0x9e3779b9ULL;
}

} // namespace

std::vector<int32_t>
kwayPartition(const WeightedGraph& graph, const KwayOptions& opts)
{
    std::vector<CoarseHierarchy> hierarchies;
    return kwayPartition(graph, opts, hierarchies);
}

std::vector<int32_t>
kwayPartition(const WeightedGraph& graph, const KwayOptions& opts,
              std::vector<CoarseHierarchy>& hierarchies, int64_t* cut)
{
    BETTY_ASSERT(opts.k >= 1, "k must be >= 1");
    BETTY_TRACE_SPAN_CAT("partition/kway", "partition");
    const int64_t n = graph.numNodes();
    if (opts.k == 1 || n == 0) {
        if (cut)
            *cut = 0;
        return std::vector<int32_t>(size_t(n), 0);
    }

    // Several independent V-cycles; keep the lowest cut (METIS runs
    // multiple initial partitions for the same reason). The runs share
    // nothing but the read-only graph, so they run concurrently, each
    // into its own slot and its own hierarchy; the lowest cut wins and
    // a tie goes to the lowest run index, exactly as a serial loop
    // would pick.
    const int32_t runs = std::max<int32_t>(1, opts.restarts);
    if (hierarchies.empty()) {
        hierarchies.reserve(size_t(runs));
        for (int64_t run = 0; run < runs; ++run)
            hierarchies.emplace_back(restartSeed(opts, run));
    }
    BETTY_ASSERT(int64_t(hierarchies.size()) == runs,
                 "hierarchies built for another restart count");
    for (int64_t run = 0; run < runs; ++run)
        BETTY_ASSERT(hierarchies[size_t(run)].seed() ==
                         restartSeed(opts, run),
                     "hierarchies built for another seed");
    std::vector<std::vector<int32_t>> run_parts(
        static_cast<size_t>(runs));
    std::vector<int64_t> run_cuts(static_cast<size_t>(runs), 0);
    ThreadPool::global().parallelFor(
        0, runs, 1, [&](int64_t run_lo, int64_t run_hi) {
            for (int64_t run = run_lo; run < run_hi; ++run) {
                run_parts[size_t(run)] = multilevelCycle(
                    graph, opts, hierarchies[size_t(run)]);
                run_cuts[size_t(run)] =
                    graph.cutCost(run_parts[size_t(run)]);
            }
        });
    const size_t best = size_t(
        std::min_element(run_cuts.begin(), run_cuts.end()) -
        run_cuts.begin());
    if (cut)
        *cut = run_cuts[best];
    return std::move(run_parts[best]);
}

std::vector<int32_t>
kwayPartitionWarm(const WeightedGraph& graph, const KwayOptions& opts,
                  std::vector<int32_t> initial)
{
    BETTY_ASSERT(opts.k >= 1, "k must be >= 1");
    BETTY_TRACE_SPAN_CAT("partition/kway_warm", "partition");
    BETTY_ASSERT(int64_t(initial.size()) == graph.numNodes(),
                 "initial assignment size mismatch");
    if (opts.k == 1 || graph.numNodes() == 0)
        return std::vector<int32_t>(size_t(graph.numNodes()), 0);
    for (int32_t p : initial)
        BETTY_ASSERT(p >= 0 && p < opts.k,
                     "initial part id out of range");

    Rng rng(opts.seed);
    rebalance(graph, initial, opts.k, opts.imbalance, rng);
    refineKway(graph, initial, opts.k, opts.imbalance,
               opts.refinePasses, rng);
    return initial;
}

double
partitionImbalance(const WeightedGraph& graph,
                   const std::vector<int32_t>& parts, int32_t k)
{
    BETTY_ASSERT(k >= 1, "k must be >= 1");
    std::vector<int64_t> weights(size_t(k), 0);
    for (int64_t v = 0; v < graph.numNodes(); ++v)
        weights[size_t(parts[size_t(v)])] += graph.vertexWeight(v);
    const int64_t target = (graph.totalVertexWeight() + k - 1) / k;
    if (target == 0)
        return 1.0;
    const int64_t heaviest =
        *std::max_element(weights.begin(), weights.end());
    return double(heaviest) / double(target);
}

} // namespace betty
