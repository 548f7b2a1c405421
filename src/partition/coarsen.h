/**
 * @file
 * Coarsening phase of the multilevel partitioner: heavy-edge matching
 * and coarse-graph construction.
 */
#ifndef BETTY_PARTITION_COARSEN_H
#define BETTY_PARTITION_COARSEN_H

#include <cstdint>
#include <vector>

#include "graph/weighted_graph.h"

namespace betty {

class Rng;

/** One coarsening step's output. */
struct CoarseLevel
{
    /** The coarse graph (merged vertex and edge weights). */
    WeightedGraph graph;

    /** fineToCoarse[v] = coarse vertex that fine vertex v collapsed
     * into. */
    std::vector<int64_t> fineToCoarse;
};

/**
 * Heavy-edge matching: visit vertices in random order; each unmatched
 * vertex pairs with its unmatched neighbor of maximum edge weight
 * (itself if none). Returns match[v] = partner (possibly v).
 */
std::vector<int64_t> heavyEdgeMatching(const WeightedGraph& graph,
                                       Rng& rng);

/**
 * Collapse matched pairs into coarse vertices. @p matching must be
 * mutual (matching[matching[v]] == v), as heavyEdgeMatching returns.
 * Coarse ids follow the smaller member's fine id. Vertex weights add;
 * parallel coarse edges have their weights summed; intra-pair edges
 * disappear (they can never be cut once merged).
 *
 * The coarse graph is contracted straight into CSR, with no edge list
 * in between, and keeps WeightedGraph's row invariant: rows strictly
 * ascending, no duplicates, no self loops, symmetric. It equals the
 * graph the edge-list constructor builds from the coarse triplets.
 */
CoarseLevel coarsen(const WeightedGraph& graph,
                    const std::vector<int64_t>& matching);

} // namespace betty

#endif // BETTY_PARTITION_COARSEN_H
