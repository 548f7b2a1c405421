/**
 * @file
 * Multilevel K-way minimum-edge-cut graph partitioning.
 *
 * From-scratch reimplementation of the algorithm family METIS belongs
 * to (Karypis & Kumar), which the paper uses both to partition the
 * redundancy-embedded graph (Algorithm 1, line 8) and as its "Metis"
 * baseline. Pipeline:
 *
 *   1. Coarsening — heavy-edge matching collapses the graph level by
 *      level until it is small (coarsen.h).
 *   2. Initial partitioning — greedy graph growing on the coarsest
 *      level (initial.h).
 *   3. Uncoarsening — the partition is projected back level by level,
 *      with boundary Kernighan-Lin/FM-style refinement after each
 *      projection (refine.h).
 *
 * The objective is the weighted edge cut, subject to a vertex-weight
 * balance constraint: every part's weight must stay below
 * imbalance * ceil(totalWeight / k).
 */
#ifndef BETTY_PARTITION_KWAY_PARTITIONER_H
#define BETTY_PARTITION_KWAY_PARTITIONER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/weighted_graph.h"
#include "partition/coarsen.h"
#include "util/rng.h"

namespace betty {

/** Tuning knobs for the multilevel partitioner. */
struct KwayOptions
{
    /** Number of parts; must be >= 1. */
    int32_t k = 2;

    /** Allowed part weight relative to perfect balance (METIS ufactor). */
    double imbalance = 1.05;

    /** Stop coarsening when the graph has at most max(k * this, 64)
     * vertices. */
    int64_t coarsenToPerPart = 15;

    /** Refinement passes per uncoarsening level. */
    int32_t refinePasses = 8;

    /** Seed for matching and initial-growth tie breaking. */
    uint64_t seed = 13;

    /** Independent multilevel runs; the lowest-cut result wins, a tie
     * going to the lowest run index. Matches METIS's multiple-initial-
     * partition strategy. The runs execute concurrently on
     * ThreadPool::global(); the result does not depend on its size. */
    int32_t restarts = 3;
};

/**
 * One restart's coarsening levels of one graph, grown on demand.
 *
 * In a V-cycle, k only sets where coarsening stops: at
 * max(k * coarsenToPerPart, 64) vertices, or at the first matching
 * that keeps more than 95% of the vertices. For a given graph and
 * restart seed the levels are therefore the same at every k. The
 * hierarchy keeps every level built so far and the Rng state after
 * each matching, the one the 95% rule rejected included, so a V-cycle
 * at any k takes the prefix it needs, builds only the levels below the
 * deepest one built so far, and continues from exactly the Rng state a
 * V-cycle that coarsened from scratch would have reached.
 */
class CoarseHierarchy
{
  public:
    /** @param seed The restart's Rng seed. */
    explicit CoarseHierarchy(uint64_t seed) : seed_(seed), after_{Rng(seed)}
    {
    }

    uint64_t seed() const { return seed_; }

    /**
     * Coarsen @p graph (the graph every call must pass) until at most
     * @p target vertices remain or the 95% rule stops it, building
     * only missing levels. Returns how many levels that takes; @p rng
     * receives the state after the last matching made on the way.
     */
    size_t coarsenTo(const WeightedGraph& graph, int64_t target,
                     Rng& rng);

    /** Level @p i (0 = the first coarsening of the input graph). */
    const CoarseLevel& level(size_t i) const { return levels_[i]; }

  private:
    uint64_t seed_;
    std::vector<CoarseLevel> levels_;
    // after_[i]: the Rng state once levels 0..i-1 are matched.
    std::vector<Rng> after_;
    // The state after the matching below the last level, once the 95%
    // rule has rejected it; no level below the last is ever built.
    std::optional<Rng> rejected_;
};

/**
 * Partition @p graph into opts.k parts minimizing the weighted edge
 * cut. Returns a part id in [0, k) for every vertex. Handles k = 1,
 * graphs with isolated vertices, and graphs smaller than k (parts may
 * then be empty).
 */
std::vector<int32_t> kwayPartition(const WeightedGraph& graph,
                                   const KwayOptions& opts);

/**
 * kwayPartition reusing coarsening across calls on one graph: @p
 * hierarchies holds one CoarseHierarchy per restart. An empty vector
 * is filled; a filled one must come from an earlier call with the
 * same graph, seed and restarts. Each restart's hierarchy is written
 * only by the task running that restart. The result equals
 * kwayPartition(graph, opts) at every k, in any order of calls.
 * @p cut, if given, receives the result's cut cost.
 */
std::vector<int32_t> kwayPartition(
    const WeightedGraph& graph, const KwayOptions& opts,
    std::vector<CoarseHierarchy>& hierarchies, int64_t* cut = nullptr);

/** Largest part weight divided by perfect balance (1.0 = perfect). */
double partitionImbalance(const WeightedGraph& graph,
                          const std::vector<int32_t>& parts, int32_t k);

/**
 * Warm-start partitioning: skip the multilevel V-cycle and instead
 * rebalance + refine an existing assignment on the flat graph. Orders
 * of magnitude cheaper than kwayPartition when the graph changed
 * little — the paper's future-work item on reducing the partitioning
 * overhead of repeated batches (§7). The result never has a worse cut
 * than the rebalanced input.
 */
std::vector<int32_t> kwayPartitionWarm(const WeightedGraph& graph,
                                       const KwayOptions& opts,
                                       std::vector<int32_t> initial);

} // namespace betty

#endif // BETTY_PARTITION_KWAY_PARTITIONER_H
