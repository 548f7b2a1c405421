/**
 * @file
 * Tests for the symmetric weighted graph used by REG and the
 * partitioner.
 */
#include <algorithm>

#include <gtest/gtest.h>

#include "graph/weighted_graph.h"
#include "partition/kway_partitioner.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace betty {
namespace {

TEST(WeightedGraph, SymmetricAdjacency)
{
    const WeightedGraph g(3, {{0, 1, 5}, {1, 2, 7}});
    ASSERT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.degree(0), 1);
    EXPECT_EQ(g.neighbors(0)[0], 1);
    EXPECT_EQ(g.edgeWeights(0)[0], 5);
    // Edge visible from both endpoints with the same weight.
    bool found = false;
    const auto nbrs = g.neighbors(2);
    const auto wts = g.edgeWeights(2);
    for (size_t i = 0; i < nbrs.size(); ++i)
        if (nbrs[i] == 1) {
            EXPECT_EQ(wts[i], 7);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(WeightedGraph, DuplicateEdgesAccumulate)
{
    const WeightedGraph g(2, {{0, 1, 2}, {1, 0, 3}});
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.edgeWeights(0)[0], 5);
}

TEST(WeightedGraph, SelfLoopsDropped)
{
    const WeightedGraph g(2, {{0, 0, 9}, {0, 1, 1}});
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.degree(0), 1);
}

TEST(WeightedGraph, DefaultVertexWeightsAreUnit)
{
    const WeightedGraph g(4, {});
    EXPECT_EQ(g.vertexWeight(2), 1);
    EXPECT_EQ(g.totalVertexWeight(), 4);
}

TEST(WeightedGraph, CustomVertexWeights)
{
    const WeightedGraph g(3, {}, {2, 3, 4});
    EXPECT_EQ(g.vertexWeight(0), 2);
    EXPECT_EQ(g.totalVertexWeight(), 9);
}

TEST(WeightedGraph, CutCost)
{
    const WeightedGraph g(4, {{0, 1, 10}, {1, 2, 1}, {2, 3, 10}});
    // Split {0,1} | {2,3}: only the weight-1 edge is cut.
    EXPECT_EQ(g.cutCost({0, 0, 1, 1}), 1);
    // Split {0,2} | {1,3}: both weight-10 edges cut plus the 1.
    EXPECT_EQ(g.cutCost({0, 1, 0, 1}), 21);
    // No split.
    EXPECT_EQ(g.cutCost({0, 0, 0, 0}), 0);
    // Every edge once: the cut of the split that separates all nodes.
    EXPECT_EQ(g.totalEdgeWeight(), 21);
}

TEST(WeightedGraph, EmptyGraph)
{
    const WeightedGraph g;
    EXPECT_EQ(g.numNodes(), 0);
    EXPECT_EQ(g.numEdges(), 0);
}

/** A multigraph edge list: repeated pairs, both orientations, loops. */
std::vector<WeightedEdge>
multigraphEdges(int64_t n, int64_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<WeightedEdge> edges;
    for (int64_t e = 0; e < count; ++e) {
        const auto u = int64_t(rng.uniformInt(uint64_t(n)));
        // Draw v near u half the time so pairs repeat.
        const auto v = e % 2 == 0
                           ? int64_t(rng.uniformInt(uint64_t(n)))
                           : (u + 1 + int64_t(rng.uniformInt(3))) % n;
        edges.push_back({u, v, int64_t(2 + rng.uniformInt(8))});
    }
    return edges;
}

void
expectRowsStrictlyAscending(const WeightedGraph& g)
{
    for (int64_t v = 0; v < g.numNodes(); ++v) {
        const auto nbrs = g.neighbors(v);
        for (size_t i = 0; i < nbrs.size(); ++i) {
            EXPECT_NE(nbrs[i], v) << "self loop at node " << v;
            if (i > 0) {
                EXPECT_LT(nbrs[i - 1], nbrs[i]) << "row " << v;
            }
        }
    }
}

TEST(WeightedGraph, CanonicalFormIgnoresEdgeOrderAndSplitting)
{
    constexpr int64_t kNodes = 300;
    const std::vector<WeightedEdge> given =
        multigraphEdges(kNodes, 2400, 17);

    std::vector<WeightedEdge> shuffled;
    Rng rng(18);
    for (int64_t i : rng.permutation(int64_t(given.size())))
        shuffled.push_back(given[size_t(i)]);

    // Split every edge into duplicates whose weights sum to the
    // original, swapping the endpoints of every other piece, and
    // scatter the pieces to the back half of the list.
    std::vector<WeightedEdge> split;
    std::vector<WeightedEdge> tail;
    for (const WeightedEdge& e : given) {
        const int64_t first = 1 + int64_t(rng.uniformInt(
                                      uint64_t(e.weight - 1)));
        split.push_back({e.u, e.v, first});
        tail.push_back({e.v, e.u, e.weight - first});
    }
    for (int64_t i : rng.permutation(int64_t(tail.size())))
        split.push_back(tail[size_t(i)]);

    std::vector<int64_t> vertex_weights(static_cast<size_t>(kNodes));
    for (int64_t v = 0; v < kNodes; ++v)
        vertex_weights[size_t(v)] = 1 + v % 4;
    const WeightedGraph reference(kNodes, given, vertex_weights);
    ASSERT_GT(reference.numEdges(), 1000);
    expectRowsStrictlyAscending(reference);
    testutil::expectSameGraph(
        reference, WeightedGraph(kNodes, shuffled, vertex_weights));
    testutil::expectSameGraph(
        reference, WeightedGraph(kNodes, split, vertex_weights));

    // Partitions are a function of the graph, so of the edge multiset.
    std::vector<WeightedEdge> sorted = given;
    std::sort(sorted.begin(), sorted.end(),
              [](const WeightedEdge& a, const WeightedEdge& b) {
                  return std::pair(a.u, a.v) < std::pair(b.u, b.v);
              });
    KwayOptions opts;
    opts.k = 4;
    EXPECT_EQ(kwayPartition(WeightedGraph(kNodes, sorted, vertex_weights),
                            opts),
              kwayPartition(WeightedGraph(kNodes, shuffled,
                                          vertex_weights),
                            opts));
}

TEST(WeightedGraph, CsrConstructorAdoptsRows)
{
    const WeightedGraph from_edges(3, {{0, 1, 5}, {1, 2, 7}}, {2, 1, 3});
    const WeightedGraph from_csr({0, 1, 3, 4}, {1, 0, 2, 1},
                                 {5, 5, 7, 7}, {2, 1, 3});
    testutil::expectSameGraph(from_edges, from_csr);
    EXPECT_EQ(from_csr.totalVertexWeight(), 6);
}

TEST(WeightedGraphDeathTest, CsrSizeMismatchPanics)
{
    EXPECT_DEATH(WeightedGraph({0, 1, 2}, {1, 0}, {5}, {}),
                 "weight count");
    EXPECT_DEATH(WeightedGraph({0, 1, 3}, {1, 0}, {5, 5}, {}),
                 "span the targets");
}

TEST(WeightedGraphDeathTest, BadEndpointPanics)
{
    EXPECT_DEATH(WeightedGraph(2, {{0, 5, 1}}), "out of range");
}

} // namespace
} // namespace betty
