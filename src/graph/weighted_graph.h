/**
 * @file
 * Symmetric weighted graph in CSR form — the input representation for
 * the multilevel min-cut partitioner and the output of REG
 * construction (paper §4.3.2): edge weight = number of shared
 * in-neighbors between two output nodes, vertex weight = the balance
 * cost the partitioner must equalize.
 *
 * Row invariant: every WeightedGraph is a canonical CSR. Each row
 * lists its neighbours in strictly ascending id order, with no
 * duplicates and no self loops, and the graph is symmetric: v appears
 * in u's row with weight w exactly when u appears in v's row with
 * weight w. A graph is therefore a pure function of its edge multiset,
 * never of the order the edges arrived in, and so is every partition
 * computed on it.
 */
#ifndef BETTY_GRAPH_WEIGHTED_GRAPH_H
#define BETTY_GRAPH_WEIGHTED_GRAPH_H

#include <cstdint>
#include <span>
#include <vector>

namespace betty {

/** One weighted undirected adjacency entry. */
struct WeightedEdge
{
    int64_t u;
    int64_t v;
    int64_t weight;
};

/** Immutable symmetric weighted graph in canonical CSR form. */
class WeightedGraph
{
  public:
    WeightedGraph() = default;

    /**
     * Build from an undirected triplet list. Each {u, v, w} contributes
     * adjacency in both directions; duplicate (u, v) pairs, in either
     * orientation, have their weights summed; self loops are dropped
     * (REG removes them, Algorithm 1 line 7, and min-cut ignores them).
     * Rows are filled by a counting sort, then sorted and merged, so the
     * result depends only on the edge multiset. A list sorted by
     * (u, v) fills every row already in order.
     * Vertex weights default to 1 if @p vertex_weights is empty.
     */
    WeightedGraph(int64_t num_nodes,
                  const std::vector<WeightedEdge>& edges,
                  std::vector<int64_t> vertex_weights = {});

    /**
     * Adopt a finished CSR: row v is targets/weights
     * [offsets[v], offsets[v + 1]). The caller guarantees the row
     * invariant (file comment); only the array sizes are checked.
     * Vertex weights default to 1 if @p vertex_weights is empty.
     */
    WeightedGraph(std::vector<int64_t> offsets,
                  std::vector<int64_t> targets,
                  std::vector<int64_t> weights,
                  std::vector<int64_t> vertex_weights);

    int64_t numNodes() const { return num_nodes_; }

    /** Number of undirected edges (each counted once). */
    int64_t numEdges() const { return int64_t(adj_targets_.size()) / 2; }

    /** Neighbours of @p node, strictly ascending. */
    std::span<const int64_t> neighbors(int64_t node) const;
    /** Weights parallel to neighbors(@p node). */
    std::span<const int64_t> edgeWeights(int64_t node) const;

    int64_t vertexWeight(int64_t node) const
    {
        return vertex_weights_[size_t(node)];
    }

    int64_t totalVertexWeight() const { return total_vertex_weight_; }

    /** Sum of weights of edges with endpoints in different parts. */
    int64_t cutCost(const std::vector<int32_t>& parts) const;

    /** Sum of all edge weights, each undirected edge counted once. */
    int64_t totalEdgeWeight() const;

    /** Degree (number of distinct neighbors). */
    int64_t degree(int64_t node) const
    {
        return int64_t(neighbors(node).size());
    }

  private:
    void setVertexWeights(std::vector<int64_t> vertex_weights);

    int64_t num_nodes_ = 0;
    int64_t total_vertex_weight_ = 0;
    std::vector<int64_t> adj_offsets_;
    std::vector<int64_t> adj_targets_;
    std::vector<int64_t> adj_weights_;
    std::vector<int64_t> vertex_weights_;
};

} // namespace betty

#endif // BETTY_GRAPH_WEIGHTED_GRAPH_H
