#include "graph/weighted_graph.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace betty {

WeightedGraph::WeightedGraph(int64_t num_nodes,
                             const std::vector<WeightedEdge>& edges,
                             std::vector<int64_t> vertex_weights)
    : num_nodes_(num_nodes)
{
    BETTY_ASSERT(num_nodes >= 0, "negative node count");
    setVertexWeights(std::move(vertex_weights));

    // Counting sort: bucket both directions of every non-loop edge by
    // endpoint, in input order.
    adj_offsets_.assign(size_t(num_nodes) + 1, 0);
    for (const WeightedEdge& e : edges) {
        BETTY_ASSERT(e.u >= 0 && e.u < num_nodes && e.v >= 0 &&
                     e.v < num_nodes,
                     "edge endpoint out of range");
        if (e.u == e.v)
            continue;
        ++adj_offsets_[size_t(e.u) + 1];
        ++adj_offsets_[size_t(e.v) + 1];
    }
    std::partial_sum(adj_offsets_.begin(), adj_offsets_.end(),
                     adj_offsets_.begin());
    adj_targets_.resize(size_t(adj_offsets_.back()));
    adj_weights_.resize(size_t(adj_offsets_.back()));
    {
        std::vector<int64_t> fill(adj_offsets_.begin(),
                                  adj_offsets_.end() - 1);
        for (const WeightedEdge& e : edges) {
            if (e.u == e.v)
                continue;
            const int64_t at_u = fill[size_t(e.u)]++;
            adj_targets_[size_t(at_u)] = e.v;
            adj_weights_[size_t(at_u)] = e.weight;
            const int64_t at_v = fill[size_t(e.v)]++;
            adj_targets_[size_t(at_v)] = e.u;
            adj_weights_[size_t(at_v)] = e.weight;
        }
    }

    // Sort each row by neighbour id, then merge duplicates by summing
    // their weights, compacting rows toward the front. A (u, v)-sorted
    // duplicate-free list fills every row already canonical and in
    // place, so nothing moves.
    std::vector<std::pair<int64_t, int64_t>> row;
    int64_t write = 0;
    for (int64_t v = 0; v < num_nodes; ++v) {
        const int64_t begin = adj_offsets_[size_t(v)];
        const int64_t end = adj_offsets_[size_t(v) + 1];
        adj_offsets_[size_t(v)] = write;
        const auto targets = adj_targets_.begin();
        if (write == begin &&
            std::adjacent_find(targets + begin, targets + end,
                               std::greater_equal<>()) ==
                targets + end) {
            write = end;
            continue;
        }
        row.clear();
        for (int64_t i = begin; i < end; ++i)
            row.emplace_back(adj_targets_[size_t(i)],
                             adj_weights_[size_t(i)]);
        std::sort(row.begin(), row.end());
        for (const auto& [target, weight] : row) {
            if (write > adj_offsets_[size_t(v)] &&
                adj_targets_[size_t(write - 1)] == target) {
                adj_weights_[size_t(write - 1)] += weight;
            } else {
                adj_targets_[size_t(write)] = target;
                adj_weights_[size_t(write)] = weight;
                ++write;
            }
        }
    }
    adj_offsets_.back() = write;
    if (size_t(write) < adj_targets_.size()) {
        adj_targets_.resize(size_t(write));
        adj_weights_.resize(size_t(write));
        adj_targets_.shrink_to_fit();
        adj_weights_.shrink_to_fit();
    }
}

WeightedGraph::WeightedGraph(std::vector<int64_t> offsets,
                             std::vector<int64_t> targets,
                             std::vector<int64_t> weights,
                             std::vector<int64_t> vertex_weights)
    : num_nodes_(int64_t(offsets.size()) - 1),
      adj_offsets_(std::move(offsets)),
      adj_targets_(std::move(targets)),
      adj_weights_(std::move(weights))
{
    BETTY_ASSERT(num_nodes_ >= 0, "CSR offsets must hold numNodes + 1");
    BETTY_ASSERT(adj_offsets_.front() == 0 &&
                 adj_offsets_.back() == int64_t(adj_targets_.size()),
                 "CSR offsets do not span the targets");
    BETTY_ASSERT(adj_weights_.size() == adj_targets_.size(),
                 "CSR weight count mismatch");
    setVertexWeights(std::move(vertex_weights));
}

void
WeightedGraph::setVertexWeights(std::vector<int64_t> vertex_weights)
{
    if (vertex_weights.empty()) {
        vertex_weights_.assign(size_t(num_nodes_), 1);
    } else {
        BETTY_ASSERT(int64_t(vertex_weights.size()) == num_nodes_,
                     "vertex weight count mismatch");
        vertex_weights_ = std::move(vertex_weights);
    }
    total_vertex_weight_ = 0;
    for (int64_t w : vertex_weights_)
        total_vertex_weight_ += w;
}

std::span<const int64_t>
WeightedGraph::neighbors(int64_t node) const
{
    BETTY_ASSERT(node >= 0 && node < num_nodes_, "node out of range");
    const auto begin = size_t(adj_offsets_[size_t(node)]);
    const auto end = size_t(adj_offsets_[size_t(node) + 1]);
    return {adj_targets_.data() + begin, end - begin};
}

std::span<const int64_t>
WeightedGraph::edgeWeights(int64_t node) const
{
    BETTY_ASSERT(node >= 0 && node < num_nodes_, "node out of range");
    const auto begin = size_t(adj_offsets_[size_t(node)]);
    const auto end = size_t(adj_offsets_[size_t(node) + 1]);
    return {adj_weights_.data() + begin, end - begin};
}

int64_t
WeightedGraph::cutCost(const std::vector<int32_t>& parts) const
{
    BETTY_ASSERT(int64_t(parts.size()) == num_nodes_,
                 "partition vector size mismatch");
    int64_t cut = 0;
    for (int64_t u = 0; u < num_nodes_; ++u) {
        const auto nbrs = neighbors(u);
        const auto wts = edgeWeights(u);
        for (size_t i = 0; i < nbrs.size(); ++i) {
            if (nbrs[i] > u && parts[size_t(u)] != parts[size_t(nbrs[i])])
                cut += wts[i];
        }
    }
    return cut;
}

int64_t
WeightedGraph::totalEdgeWeight() const
{
    int64_t total = 0;
    for (int64_t w : adj_weights_)
        total += w;
    return total / 2; // every edge is stored in both of its rows
}

} // namespace betty
