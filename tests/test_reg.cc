/**
 * @file
 * Tests for Redundancy-Embedded Graph construction (Algorithm 1).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/synthetic.h"
#include "partition/reg.h"
#include "sampling/neighbor_sampler.h"
#include "test_helpers.h"

namespace betty {
namespace {

/** Find the weight of edge (u, v) in a weighted graph; 0 if absent. */
int64_t
edgeWeight(const WeightedGraph& g, int64_t u, int64_t v)
{
    const auto nbrs = g.neighbors(u);
    const auto wts = g.edgeWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i)
        if (nbrs[i] == v)
            return wts[i];
    return 0;
}

TEST(Reg, CountsSharedNeighborsExactly)
{
    // dst 0 <- {10, 11, 12}; dst 1 <- {11, 12, 13}; dst 2 <- {13}.
    const Block block({0, 1, 2}, {{10, 11, 12}, {11, 12, 13}, {13}});
    const auto reg = buildReg(block);
    EXPECT_EQ(reg.numNodes(), 3);
    EXPECT_EQ(edgeWeight(reg, 0, 1), 2); // share 11 and 12
    EXPECT_EQ(edgeWeight(reg, 1, 2), 1); // share 13
    EXPECT_EQ(edgeWeight(reg, 0, 2), 0); // nothing shared
}

TEST(Reg, PaperFigure8Example)
{
    // Figure 8's input graph: outputs 1 and 8 with 1-hop neighborhoods
    // N(1) = {0,2,3,5,6,7,9}, N(8) = {3,4,5,6,7,9} (reading the
    // figure's partition (a): shared = {3,5,6,7} plus 9 appears in
    // both; we encode shared in-neighbors {3,5,6,7,9}).
    const Block block({1, 8},
                      {{0, 2, 3, 5, 6, 7, 9}, {3, 4, 5, 6, 7, 9}});
    const auto reg = buildReg(block);
    EXPECT_EQ(edgeWeight(reg, 0, 1), 5);
}

TEST(Reg, NoSelfLoops)
{
    const Block block({0, 1}, {{5, 6}, {6, 7}});
    const auto reg = buildReg(block);
    for (int64_t v = 0; v < reg.numNodes(); ++v)
        for (int64_t u : reg.neighbors(v))
            EXPECT_NE(u, v);
}

TEST(Reg, DestinationAsSharedSourceCounts)
{
    // dst 0 is itself a source of dst 1 (local prefix reuse): a source
    // shared via the prefix must still count.
    const Block block({0, 1}, {{5}, {0, 5}});
    const auto reg = buildReg(block);
    EXPECT_EQ(edgeWeight(reg, 0, 1), 1); // share node 5
}

TEST(Reg, DisjointNeighborhoodsGiveEmptyReg)
{
    const Block block({0, 1}, {{5, 6}, {7, 8}});
    const auto reg = buildReg(block);
    EXPECT_EQ(reg.numEdges(), 0);
}

TEST(Reg, DuplicateSampledEdgeCountsOnce)
{
    // Multigraph: dst 0 sampled source 5 twice; shared count with
    // dst 1 is still 1 (distinct nodes).
    const Block block({0, 1}, {{5, 5}, {5}});
    const auto reg = buildReg(block);
    EXPECT_EQ(edgeWeight(reg, 0, 1), 1);
}

TEST(Reg, VertexWeightsUnitByDefault)
{
    const Block block({0, 1}, {{5, 6, 7}, {5}});
    const auto reg = buildReg(block);
    EXPECT_EQ(reg.vertexWeight(0), 1);
    EXPECT_EQ(reg.vertexWeight(1), 1);
}

TEST(Reg, DegreeVertexWeightsOption)
{
    const Block block({0, 1}, {{5, 6, 7}, {5}});
    RegOptions opts;
    opts.degreeVertexWeights = true;
    const auto reg = buildReg(block, opts);
    EXPECT_EQ(reg.vertexWeight(0), 4); // 1 + in-degree 3
    EXPECT_EQ(reg.vertexWeight(1), 2);
}

TEST(Reg, HubCapStillConnectsCoDestinations)
{
    // One hub source feeds 20 destinations; with a cap of 5 the REG
    // must still contain edges among (a sample of) them.
    std::vector<int64_t> dsts;
    std::vector<std::vector<int64_t>> srcs;
    for (int64_t d = 0; d < 20; ++d) {
        dsts.push_back(d);
        srcs.push_back({100});
    }
    const Block block(dsts, srcs);
    RegOptions opts;
    opts.hubPairCap = 5;
    const auto reg = buildReg(block, opts);
    EXPECT_GT(reg.numEdges(), 0);
    EXPECT_LE(reg.numEdges(), 10); // 5 choose 2
}

TEST(Reg, HubCapDisabledEnumeratesAllPairs)
{
    std::vector<int64_t> dsts;
    std::vector<std::vector<int64_t>> srcs;
    for (int64_t d = 0; d < 12; ++d) {
        dsts.push_back(d);
        srcs.push_back({100});
    }
    const Block block(dsts, srcs);
    RegOptions opts;
    opts.hubPairCap = 0;
    const auto reg = buildReg(block, opts);
    EXPECT_EQ(reg.numEdges(), 66); // 12 choose 2
}

TEST(Reg, OnSampledBatchMatchesBruteForce)
{
    const auto g = testutil::toyGraph();
    NeighborSampler sampler(g, {-1});
    const auto batch = sampler.sample({1, 6, 8});
    const Block& block = batch.blocks.back();
    const auto reg = buildReg(block);

    // Brute force shared-in-neighbor counts over global ids.
    for (int64_t i = 0; i < block.numDst(); ++i) {
        for (int64_t j = i + 1; j < block.numDst(); ++j) {
            int64_t shared = 0;
            for (int64_t si : block.inEdges(i))
                for (int64_t sj : block.inEdges(j))
                    shared += si == sj;
            EXPECT_EQ(edgeWeight(reg, i, j), shared)
                << "pair " << i << "," << j;
        }
    }
}

/**
 * Reference REG, pair by pair into a dense matrix: each source's
 * effective destinations are its distinct destinations, ascending,
 * stride-sampled to @p hub_pair_cap when it has more (position
 * floor(a * distinct / cap) for a = 0..cap-1, computed as buildReg
 * documents it); every pair of them counts one shared neighbour.
 */
std::vector<std::set<int64_t>>
distinctDestinations(const Block& block)
{
    std::vector<std::set<int64_t>> dsts(size_t(block.numSrc()));
    for (int64_t d = 0; d < block.numDst(); ++d)
        for (int64_t s : block.inEdges(d))
            dsts[size_t(s)].insert(d);
    return dsts;
}

std::vector<std::vector<int64_t>>
referenceReg(const Block& block, int64_t hub_pair_cap)
{
    const auto n = size_t(block.numDst());
    std::vector<std::vector<int64_t>> c(n, std::vector<int64_t>(n, 0));
    for (const auto& set : distinctDestinations(block)) {
        const std::vector<int64_t> all(set.begin(), set.end());
        const auto distinct = int64_t(all.size());
        const int64_t limit = hub_pair_cap > 0 && distinct > hub_pair_cap
                                  ? hub_pair_cap
                                  : distinct;
        std::vector<int64_t> sample;
        const double step = double(distinct) / double(limit);
        for (int64_t a = 0; a < limit; ++a)
            sample.push_back(all[size_t(double(a) * step)]);
        for (size_t a = 0; a < sample.size(); ++a)
            for (size_t b = a + 1; b < sample.size(); ++b) {
                ++c[size_t(sample[a])][size_t(sample[b])];
                ++c[size_t(sample[b])][size_t(sample[a])];
            }
    }
    return c;
}

/** The last block of a sampled power-law batch, rebuilt with every
 * destination's first source sampled twice (a multigraph block). */
Block
powerLawBlockWithDuplicates()
{
    SyntheticSpec spec;
    spec.name = "reg_power_law";
    spec.numNodes = 900;
    spec.avgDegree = 8.0;
    spec.powerLawAlpha = 2.1; // strong hubs
    spec.featureDim = 4;
    const CsrGraph graph = makeSyntheticDataset(spec, 5).graph;
    NeighborSampler sampler(graph, {6}, 3);
    std::vector<int64_t> seeds;
    for (int64_t v = 0; v < 300; ++v)
        seeds.push_back(v * 3);
    const MultiLayerBatch batch = sampler.sample(seeds);
    const Block& sampled = batch.blocks.back();

    std::vector<int64_t> dsts(sampled.dstNodes().begin(),
                              sampled.dstNodes().end());
    std::vector<std::vector<int64_t>> srcs(dsts.size());
    for (int64_t d = 0; d < sampled.numDst(); ++d) {
        for (int64_t s : sampled.inEdges(d))
            srcs[size_t(d)].push_back(sampled.srcNodes()[size_t(s)]);
        if (!srcs[size_t(d)].empty())
            srcs[size_t(d)].push_back(srcs[size_t(d)].front());
    }
    return Block(dsts, srcs);
}

TEST(Reg, MatchesStrideSampledReferenceUnderHubCaps)
{
    const Block block = powerLawBlockWithDuplicates();
    size_t widest = 0; // most distinct destinations of one source
    for (const auto& set : distinctDestinations(block))
        widest = std::max(widest, set.size());
    ASSERT_GT(widest, 8u) << "no source exercises the hub guard";

    for (const int64_t cap : {3, 8, 0}) {
        RegOptions opts;
        opts.hubPairCap = cap;
        const auto reg = buildReg(block, opts);
        const auto expected = referenceReg(block, cap);
        int64_t edges = 0;
        for (int64_t i = 0; i < block.numDst(); ++i) {
            std::vector<int64_t> nbrs, weights;
            for (int64_t j = 0; j < block.numDst(); ++j)
                if (expected[size_t(i)][size_t(j)] > 0) {
                    nbrs.push_back(j);
                    weights.push_back(expected[size_t(i)][size_t(j)]);
                }
            edges += int64_t(nbrs.size());
            const auto got_nbrs = reg.neighbors(i);
            const auto got_weights = reg.edgeWeights(i);
            ASSERT_EQ(std::vector<int64_t>(got_nbrs.begin(),
                                           got_nbrs.end()),
                      nbrs)
                << "cap " << cap << " row " << i;
            ASSERT_EQ(std::vector<int64_t>(got_weights.begin(),
                                           got_weights.end()),
                      weights)
                << "cap " << cap << " row " << i;
        }
        EXPECT_EQ(reg.numEdges(), edges / 2) << "cap " << cap;
    }
}

} // namespace
} // namespace betty
