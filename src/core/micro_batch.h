/**
 * @file
 * Micro-batch extraction: turn a K-way split of a batch's output nodes
 * into K self-contained multi-level bipartite micro-batches.
 *
 * This is the equivalent of the artifact's block_dataloader.py. Each
 * micro-batch is the hierarchical bipartite closure of its output
 * group INSIDE the already-sampled full batch: for every retained
 * destination, exactly the in-edges the full batch sampled for it are
 * kept, level by level. Micro-batches therefore cover the full batch's
 * edges exactly (union = full batch, destinations disjoint), which is
 * what makes accumulated micro-batch gradients equal the full-batch
 * gradient (paper §4.2.3: "The disjoint union of V_k is V").
 */
#ifndef BETTY_CORE_MICRO_BATCH_H
#define BETTY_CORE_MICRO_BATCH_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sampling/block.h"

namespace betty {

/**
 * Extracts the micro-batches of one full batch one group at a time.
 * Construction indexes the full batch's destinations once, so a caller
 * that probes many K on one batch, or stops before the last group (the
 * planner's failing probes), pays that index once and extracts only
 * what it uses. @p full must outlive the extractor.
 */
class MicroBatchExtractor
{
  public:
    explicit MicroBatchExtractor(const MultiLayerBatch& full);

    /** The micro-batch of one output-node group; see
     * extractMicroBatches. */
    MultiLayerBatch extract(const std::vector<int64_t>& group) const;

  private:
    const MultiLayerBatch& full_;
    // Per layer: raw-graph id -> local destination index.
    std::vector<std::unordered_map<int64_t, int64_t>> dst_local_;
};

/**
 * Extract one micro-batch per output-node group. Groups hold raw-graph
 * node IDs and must be subsets of full.outputNodes(); empty groups
 * yield batches with zero output nodes (callers skip them).
 */
std::vector<MultiLayerBatch> extractMicroBatches(
    const MultiLayerBatch& full,
    const std::vector<std::vector<int64_t>>& groups);

/**
 * Redundancy of a micro-batch set: sum over micro-batches of first-
 * layer input nodes, minus the full batch's count — the number of
 * duplicated feature loads the partitioning causes (Fig 16 metric).
 */
int64_t inputNodeRedundancy(const MultiLayerBatch& full,
                            const std::vector<MultiLayerBatch>& micros);

} // namespace betty

#endif // BETTY_CORE_MICRO_BATCH_H
