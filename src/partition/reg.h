/**
 * @file
 * Redundancy-Embedded Graph construction (paper §4.3.2, Algorithm 1).
 *
 * The REG's vertices are the batch's output nodes; the weight of edge
 * (i, j) counts the in-neighbor sources the two output nodes share in
 * the output (last) bipartite layer — exactly the entry c_ij of
 * C = AᵀA with diagonal removed and non-output rows/columns dropped.
 * A minimum-cut K-way partition of the REG therefore minimizes the
 * number of input nodes that must be duplicated across micro-batches.
 *
 * The paper computes C with a sparse matrix product
 * (dgl.adj_product_graph); we compute the same product one REG row at
 * a time (Gustavson's row-wise SpGEMM). Fixed blocks of rows count
 * co-destinations into a dense per-lane accumulator on the pool and
 * emit each row's ids sorted, and the blocks' rows are concatenated
 * straight into the WeightedGraph's canonical CSR: no hashing, no
 * edge list, byte-identical output for any thread count
 * (docs/ALGORITHMS.md §1).
 *
 * buildReg() always builds. BettyPartitioner (core/betty.h) keeps the
 * last REG and reuses it while the planner probes K values on the
 * same batch.
 */
#ifndef BETTY_PARTITION_REG_H
#define BETTY_PARTITION_REG_H

#include <cstdint>

#include "graph/weighted_graph.h"
#include "sampling/block.h"

namespace betty {

/** Options for REG construction. */
struct RegOptions
{
    /**
     * Hub guard: a source feeding more than this many destinations has
     * its co-destination pairs enumerated over a deterministic sample
     * of this size (the pairs form a near-clique either way, so the
     * "keep these together" signal survives). <= 0 disables the guard.
     */
    int64_t hubPairCap = 512;

    /**
     * Vertex weights of the REG. false (paper setting): unit weights,
     * the K-way balance equalizes output-node counts. true: weight
     * each output node by 1 + its last-layer in-degree so balance
     * tracks edge load instead (used by an ablation bench).
     */
    bool degreeVertexWeights = false;
};

/**
 * Build the REG from the output (last) bipartite layer of a batch.
 * Vertex v of the result corresponds to local destination v of
 * @p last_block (i.e. position v in last_block.dstNodes()).
 */
WeightedGraph buildReg(const Block& last_block,
                       const RegOptions& opts = {});

} // namespace betty

#endif // BETTY_PARTITION_REG_H
