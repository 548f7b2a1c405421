/**
 * @file
 * Shared test utilities: numerical gradient checking and tiny graph
 * fixtures.
 */
#ifndef BETTY_TESTS_TEST_HELPERS_H
#define BETTY_TESTS_TEST_HELPERS_H

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr_graph.h"
#include "graph/weighted_graph.h"
#include "sampling/block.h"
#include "tensor/autograd.h"

namespace betty::testutil {

/**
 * Compare analytic gradients against central finite differences.
 *
 * @param make_loss Rebuilds the scalar loss from the current parameter
 * values (called many times with perturbed parameters).
 * @param params Parameters to check.
 */
inline void
checkGradients(const std::function<ag::NodePtr()>& make_loss,
               const std::vector<ag::NodePtr>& params,
               float epsilon = 1e-2f, float tolerance = 2e-2f)
{
    // Analytic gradients.
    for (const auto& p : params)
        if (!p->grad.empty())
            p->grad.setZero();
    ag::backward(make_loss());

    for (size_t pi = 0; pi < params.size(); ++pi) {
        auto& p = params[pi];
        ASSERT_FALSE(p->grad.empty())
            << "param " << pi << " received no gradient";
        for (int64_t i = 0; i < p->value.numel(); ++i) {
            const float saved = p->value.data()[i];
            p->value.data()[i] = saved + epsilon;
            const float up = make_loss()->value.at(0, 0);
            p->value.data()[i] = saved - epsilon;
            const float down = make_loss()->value.at(0, 0);
            p->value.data()[i] = saved;
            const float numeric = (up - down) / (2.0f * epsilon);
            const float analytic = p->grad.data()[i];
            EXPECT_NEAR(analytic, numeric,
                        tolerance * std::max(1.0f, std::fabs(numeric)))
                << "param " << pi << " element " << i;
        }
    }
}

/** The Figure 7/8-style toy graph: 10 nodes, a few shared neighbors. */
inline CsrGraph
toyGraph()
{
    // Undirected pairs made directed both ways.
    const std::vector<std::pair<int64_t, int64_t>> pairs = {
        {0, 1}, {1, 2}, {1, 3}, {3, 5}, {5, 1}, {5, 6}, {6, 1},
        {6, 8}, {7, 1}, {7, 8}, {8, 9}, {4, 8}, {2, 4}, {0, 9},
    };
    std::vector<Edge> edges;
    for (auto [u, v] : pairs) {
        edges.push_back({u, v});
        edges.push_back({v, u});
    }
    return CsrGraph(10, edges);
}

/** A hand-built two-layer batch over toyGraph-like ids for block
 * tests: dst {0,1}, layer-1 sources fixed. */
inline MultiLayerBatch
tinyBatch()
{
    MultiLayerBatch batch;
    // Output layer: dst 0 aggregates {2, 3}; dst 1 aggregates {3, 4}.
    Block outer({0, 1}, {{2, 3}, {3, 4}});
    // Inner layer: dsts are outer's sources {0,1,2,3,4}.
    std::vector<int64_t> inner_dst = outer.srcNodes();
    Block inner(std::move(inner_dst),
                {{5}, {5, 6}, {6}, {7}, {2, 7}});
    batch.blocks = {inner, outer};
    return batch;
}

/**
 * Expect two weighted graphs to be the same CSR, element by element:
 * node count, vertex weights, and every row's neighbours and weights
 * in order (equal rows at every node imply equal offsets).
 */
inline void
expectSameGraph(const WeightedGraph& a, const WeightedGraph& b)
{
    ASSERT_EQ(a.numNodes(), b.numNodes());
    EXPECT_EQ(a.numEdges(), b.numEdges());
    for (int64_t v = 0; v < a.numNodes(); ++v) {
        EXPECT_EQ(a.vertexWeight(v), b.vertexWeight(v)) << "node " << v;
        const auto an = a.neighbors(v);
        const auto bn = b.neighbors(v);
        const auto aw = a.edgeWeights(v);
        const auto bw = b.edgeWeights(v);
        ASSERT_EQ(std::vector<int64_t>(an.begin(), an.end()),
                  std::vector<int64_t>(bn.begin(), bn.end()))
            << "neighbours of node " << v;
        ASSERT_EQ(std::vector<int64_t>(aw.begin(), aw.end()),
                  std::vector<int64_t>(bw.begin(), bw.end()))
            << "weights of node " << v;
    }
}

} // namespace betty::testutil

#endif // BETTY_TESTS_TEST_HELPERS_H
