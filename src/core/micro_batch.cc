#include "core/micro_batch.h"

#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace betty {

MicroBatchExtractor::MicroBatchExtractor(const MultiLayerBatch& full)
    : full_(full)
{
    const int64_t layers = full.numLayers();
    BETTY_ASSERT(layers > 0, "empty batch");

    // Per layer: raw-graph id -> local destination index in the full
    // batch's block (destinations are the source prefix, so the first
    // numDst src entries are exactly the destinations).
    dst_local_.resize(static_cast<size_t>(layers));
    for (int64_t layer = 0; layer < layers; ++layer) {
        const Block& block = full.blocks[size_t(layer)];
        auto& map = dst_local_[size_t(layer)];
        map.reserve(size_t(block.numDst()) * 2);
        const auto dsts = block.dstNodes();
        for (int64_t i = 0; i < block.numDst(); ++i)
            map.emplace(dsts[size_t(i)], i);
    }
}

MultiLayerBatch
MicroBatchExtractor::extract(const std::vector<int64_t>& group) const
{
    const int64_t layers = full_.numLayers();
    MultiLayerBatch micro;
    micro.blocks.resize(size_t(layers));

    // Outside in, mirroring the sampler: the sources of the block just
    // built become the destinations of the block below.
    std::vector<int64_t> seeds = group;
    for (int64_t layer = layers - 1; layer >= 0; --layer) {
        const Block& parent = full_.blocks[size_t(layer)];
        const auto& map = dst_local_[size_t(layer)];
        std::vector<std::vector<int64_t>> src_per_dst;
        src_per_dst.reserve(seeds.size());
        for (int64_t seed : seeds) {
            const auto it = map.find(seed);
            BETTY_ASSERT(it != map.end(), "node ", seed,
                         " is not a destination of layer ", layer);
            std::vector<int64_t> sources;
            const auto edges = parent.inEdges(it->second);
            sources.reserve(edges.size());
            for (int64_t src_local : edges)
                sources.push_back(parent.srcNodes()[size_t(src_local)]);
            src_per_dst.push_back(std::move(sources));
        }
        micro.blocks[size_t(layer)] = Block(std::move(seeds), src_per_dst);
        seeds = micro.blocks[size_t(layer)].srcNodes();
    }
    if (obs::Metrics::enabled()) {
        // Structure bytes (Table 3 item (4)) across the extracted
        // micro-batches: K copies of shared edges make this exceed the
        // full batch's structureBytes() — the redundancy Betty trades
        // for peak-memory headroom.
        static obs::Counter& structure_bytes =
            obs::Metrics::counter("micro_batch.structure_bytes");
        structure_bytes.add(micro.structureBytes());
    }
    return micro;
}

std::vector<MultiLayerBatch>
extractMicroBatches(const MultiLayerBatch& full,
                    const std::vector<std::vector<int64_t>>& groups)
{
    BETTY_TRACE_SPAN_CAT("partition/extract_micro_batches", "partition");
    const MicroBatchExtractor extractor(full);
    std::vector<MultiLayerBatch> micros;
    micros.reserve(groups.size());
    for (const auto& group : groups)
        micros.push_back(extractor.extract(group));
    return micros;
}

int64_t
inputNodeRedundancy(const MultiLayerBatch& full,
                    const std::vector<MultiLayerBatch>& micros)
{
    int64_t total = 0;
    for (const auto& micro : micros)
        total += int64_t(micro.inputNodes().size());
    return total - int64_t(full.inputNodes().size());
}

} // namespace betty
