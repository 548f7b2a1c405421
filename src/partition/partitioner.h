/**
 * @file
 * Output-node partitioner interface and the paper's three baselines.
 *
 * All of Betty's comparisons (Figures 11, 14, 15, 16) sweep four
 * partitioners over the same batches: range, random, Metis(-style min
 * cut on the output-node graph) and Betty's REG partitioning. The
 * first three live here; Betty's is in core/betty.h because it is the
 * paper's contribution.
 *
 * Per §6.1: "The three partition algorithms partition the graph based
 * on the IDs of output nodes" — they split the output-node set into K
 * groups, and each micro-batch is then regenerated as the hierarchical
 * bipartite closure of its group.
 */
#ifndef BETTY_PARTITION_PARTITIONER_H
#define BETTY_PARTITION_PARTITIONER_H

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.h"
#include "partition/kway_partitioner.h"
#include "sampling/block.h"
#include "util/rng.h"

namespace betty {

/** Splits a batch's output nodes into K groups. */
class OutputPartitioner
{
  public:
    virtual ~OutputPartitioner() = default;

    /**
     * Partition the output nodes of @p batch into @p k groups of
     * raw-graph node IDs. Groups may differ in size; a group may be
     * empty only when k exceeds the number of output nodes.
     */
    virtual std::vector<std::vector<int64_t>> partition(
        const MultiLayerBatch& batch, int32_t k) = 0;

    /** Short name used in benchmark tables ("range", "betty", ...). */
    virtual std::string name() const = 0;

    /** Called when a K search on one batch ends: a partitioner may
     * free what it kept to make the search's probes cheaper. */
    virtual void endSearch() {}
};

/** Evenly sized contiguous chunks of the ID-sorted output nodes. */
class RangePartitioner : public OutputPartitioner
{
  public:
    std::vector<std::vector<int64_t>> partition(
        const MultiLayerBatch& batch, int32_t k) override;
    std::string name() const override { return "range"; }
};

/** Evenly sized chunks of a random permutation of the output nodes. */
class RandomPartitioner : public OutputPartitioner
{
  public:
    explicit RandomPartitioner(uint64_t seed = 17) : rng_(seed) {}

    std::vector<std::vector<int64_t>> partition(
        const MultiLayerBatch& batch, int32_t k) override;
    std::string name() const override { return "random"; }

  private:
    Rng rng_;
};

/**
 * The paper's "Metis" baseline: a min-cut K-way partition of the
 * output-node graph induced from the *raw* graph (unit edge weights,
 * redundancy-unaware) — connectivity-aware but blind to shared
 * neighbors, which is exactly the gap REG closes.
 */
class MetisBaselinePartitioner : public OutputPartitioner
{
  public:
    /** @param raw_graph Must outlive the partitioner. */
    explicit MetisBaselinePartitioner(const CsrGraph& raw_graph,
                                      KwayOptions opts = {});

    std::vector<std::vector<int64_t>> partition(
        const MultiLayerBatch& batch, int32_t k) override;
    std::string name() const override { return "metis"; }

  private:
    const CsrGraph& raw_graph_;
    KwayOptions opts_;
};

/** Group output nodes by a per-node part assignment (shared helper). */
std::vector<std::vector<int64_t>> groupByPart(
    std::span<const int64_t> output_nodes,
    const std::vector<int32_t>& parts, int32_t k);

} // namespace betty

#endif // BETTY_PARTITION_PARTITIONER_H
