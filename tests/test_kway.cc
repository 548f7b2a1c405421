/**
 * @file
 * Tests for the multilevel K-way min-cut partitioner (our METIS
 * equivalent) and its phases.
 */
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "graph/csr_graph.h"
#include "partition/coarsen.h"
#include "partition/initial.h"
#include "partition/kway_partitioner.h"
#include "partition/refine.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace betty {
namespace {

/** Two dense 10-cliques joined by one weak edge. */
WeightedGraph
twoCliques()
{
    std::vector<WeightedEdge> edges;
    for (int64_t c = 0; c < 2; ++c)
        for (int64_t i = 0; i < 10; ++i)
            for (int64_t j = i + 1; j < 10; ++j)
                edges.push_back({c * 10 + i, c * 10 + j, 10});
    edges.push_back({0, 10, 1});
    return WeightedGraph(20, edges);
}

WeightedGraph
randomGraph(int64_t n, int64_t edges_per_node, uint64_t seed)
{
    Rng rng(seed);
    std::vector<WeightedEdge> edges;
    for (int64_t v = 0; v < n; ++v)
        for (int64_t e = 0; e < edges_per_node; ++e)
            edges.push_back({v, int64_t(rng.uniformInt(uint64_t(n))),
                             int64_t(1 + rng.uniformInt(5))});
    return WeightedGraph(n, edges);
}

TEST(HeavyEdgeMatching, ProducesValidMatching)
{
    const auto g = randomGraph(200, 4, 1);
    Rng rng(2);
    const auto match = heavyEdgeMatching(g, rng);
    for (int64_t v = 0; v < g.numNodes(); ++v) {
        const int64_t partner = match[size_t(v)];
        ASSERT_GE(partner, 0);
        ASSERT_LT(partner, g.numNodes());
        EXPECT_EQ(match[size_t(partner)], v) << "matching not mutual";
    }
}

TEST(HeavyEdgeMatching, MatchesMostVerticesOnDenseGraph)
{
    const auto g = twoCliques();
    Rng rng(3);
    const auto match = heavyEdgeMatching(g, rng);
    int64_t singletons = 0;
    for (int64_t v = 0; v < g.numNodes(); ++v)
        singletons += match[size_t(v)] == v;
    EXPECT_LE(singletons, 2);
}

TEST(Coarsen, PreservesTotalVertexWeight)
{
    const auto g = randomGraph(100, 3, 4);
    Rng rng(5);
    const auto level = coarsen(g, heavyEdgeMatching(g, rng));
    EXPECT_EQ(level.graph.totalVertexWeight(), g.totalVertexWeight());
    EXPECT_LT(level.graph.numNodes(), g.numNodes());
}

TEST(Coarsen, MappingCoversAllCoarseVertices)
{
    const auto g = randomGraph(100, 3, 6);
    Rng rng(7);
    const auto level = coarsen(g, heavyEdgeMatching(g, rng));
    std::set<int64_t> coarse_ids(level.fineToCoarse.begin(),
                                 level.fineToCoarse.end());
    EXPECT_EQ(int64_t(coarse_ids.size()), level.graph.numNodes());
}

TEST(Coarsen, CutIsPreservedUnderProjection)
{
    // Any coarse partition, projected to the fine graph, must have the
    // same cut (intra-pair edges never cross parts).
    const auto g = randomGraph(80, 4, 8);
    Rng rng(9);
    const auto matching = heavyEdgeMatching(g, rng);
    const auto level = coarsen(g, matching);
    std::vector<int32_t> coarse_parts(size_t(level.graph.numNodes()));
    for (size_t i = 0; i < coarse_parts.size(); ++i)
        coarse_parts[i] = int32_t(i % 2);
    std::vector<int32_t> fine_parts(size_t(g.numNodes()));
    for (int64_t v = 0; v < g.numNodes(); ++v)
        fine_parts[size_t(v)] =
            coarse_parts[size_t(level.fineToCoarse[size_t(v)])];
    EXPECT_EQ(g.cutCost(fine_parts),
              level.graph.cutCost(coarse_parts));
}

/** Heavy-tailed graph: a synthetic power-law graph with weighted
 * edges, hubs included. */
WeightedGraph
powerLawWeighted()
{
    SyntheticSpec spec;
    spec.name = "coarsen_power_law";
    spec.numNodes = 1200;
    spec.avgDegree = 10.0;
    spec.powerLawAlpha = 2.1;
    spec.featureDim = 4;
    std::vector<WeightedEdge> edges;
    for (const Edge& e : makeSyntheticDataset(spec, 23).graph.edgeList())
        edges.push_back({e.src, e.dst, 1 + (e.src + e.dst) % 7});
    std::vector<int64_t> vertex_weights(size_t(spec.numNodes));
    for (int64_t v = 0; v < spec.numNodes; ++v)
        vertex_weights[size_t(v)] = 1 + v % 3;
    return WeightedGraph(spec.numNodes, edges,
                         std::move(vertex_weights));
}

/** The coarse graph as the edge-list constructor builds it from the
 * coarse triplets: the reference for coarsen()'s direct contraction. */
WeightedGraph
referenceCoarse(const WeightedGraph& g, const CoarseLevel& level)
{
    const std::vector<int64_t>& to_coarse = level.fineToCoarse;
    const int64_t coarse_count = level.graph.numNodes();
    std::vector<int64_t> vertex_weights(size_t(coarse_count), 0);
    std::vector<WeightedEdge> triplets;
    for (int64_t v = 0; v < g.numNodes(); ++v) {
        vertex_weights[size_t(to_coarse[size_t(v)])] += g.vertexWeight(v);
        const auto nbrs = g.neighbors(v);
        const auto wts = g.edgeWeights(v);
        for (size_t i = 0; i < nbrs.size(); ++i)
            if (v < nbrs[i])
                triplets.push_back({to_coarse[size_t(v)],
                                    to_coarse[size_t(nbrs[i])], wts[i]});
    }
    return WeightedGraph(coarse_count, triplets,
                         std::move(vertex_weights));
}

TEST(Coarsen, DirectContractionMatchesEdgeListReference)
{
    for (const WeightedGraph& fixture : {powerLawWeighted(), twoCliques()}) {
        // Several levels, so contracted graphs are contracted again.
        WeightedGraph g = fixture;
        Rng rng(31);
        for (int level_index = 0; level_index < 4; ++level_index) {
            SCOPED_TRACE("level " + std::to_string(level_index));
            CoarseLevel level = coarsen(g, heavyEdgeMatching(g, rng));
            testutil::expectSameGraph(level.graph,
                                      referenceCoarse(g, level));
            g = std::move(level.graph);
        }
    }
}

// -------------------------------------------------------------------
// Coarsening shared across K.

/**
 * The V-cycle written out with no shared coarsening: every run
 * coarsens its graph from scratch. This is the reference that
 * kwayPartition with reused hierarchies must reproduce exactly.
 * @p stalled is set when some run's coarsening ended on the 95% rule.
 */
std::vector<int32_t>
coldKway(const WeightedGraph& graph, const KwayOptions& opts,
         bool* stalled = nullptr)
{
    if (opts.k == 1 || graph.numNodes() == 0)
        return std::vector<int32_t>(size_t(graph.numNodes()), 0);
    const int64_t target =
        std::max<int64_t>(opts.k * opts.coarsenToPerPart, 64);
    std::vector<int32_t> best;
    int64_t best_cut = 0;
    for (int32_t run = 0; run < std::max<int32_t>(1, opts.restarts);
         ++run) {
        Rng rng(opts.seed + uint64_t(run) * 0x9e3779b9ULL);
        std::vector<CoarseLevel> levels;
        const WeightedGraph* current = &graph;
        while (current->numNodes() > target) {
            CoarseLevel level =
                coarsen(*current, heavyEdgeMatching(*current, rng));
            if (level.graph.numNodes() >
                int64_t(double(current->numNodes()) * 0.95)) {
                if (stalled)
                    *stalled = true;
                break;
            }
            levels.push_back(std::move(level));
            current = &levels.back().graph;
        }
        auto parts = greedyGrowPartition(*current, opts.k, rng);
        rebalance(*current, parts, opts.k, opts.imbalance, rng);
        refineKway(*current, parts, opts.k, opts.imbalance,
                   opts.refinePasses, rng);
        for (size_t d = levels.size(); d > 0; --d) {
            const WeightedGraph& finer =
                d == 1 ? graph : levels[d - 2].graph;
            std::vector<int32_t> fine(size_t(finer.numNodes()));
            for (int64_t v = 0; v < finer.numNodes(); ++v)
                fine[size_t(v)] = parts[size_t(
                    levels[d - 1].fineToCoarse[size_t(v)])];
            parts = std::move(fine);
            rebalance(finer, parts, opts.k, opts.imbalance, rng);
            refineKway(finer, parts, opts.k, opts.imbalance,
                       opts.refinePasses, rng);
        }
        const int64_t cut = graph.cutCost(parts);
        if (best.empty() || cut < best_cut) {
            best = std::move(parts);
            best_cut = cut;
        }
    }
    return best;
}

/** A ring of 2000 vertices plus 600 isolated ones: matching halves
 * the ring at each level while the isolated vertices stay singletons,
 * so coarsening stalls on the 95% rule a few levels down, above the
 * 64-vertex floor. */
WeightedGraph
ringWithIsolated()
{
    std::vector<WeightedEdge> edges;
    for (int64_t v = 0; v < 2000; ++v)
        edges.push_back({v, (v + 1) % 2000, 1 + v % 3});
    return WeightedGraph(2600, edges);
}

/** K sequences in ascending, descending and shuffled order. */
std::vector<std::vector<int32_t>>
kOrders(int32_t lo, int32_t hi)
{
    std::vector<int32_t> ascending;
    for (int32_t k = lo; k <= hi; ++k)
        ascending.push_back(k);
    std::vector<int32_t> descending(ascending.rbegin(), ascending.rend());
    std::vector<int32_t> shuffled = ascending;
    Rng rng(91);
    rng.shuffle(shuffled);
    return {ascending, descending, shuffled};
}

TEST(CoarseHierarchy, StallFixtureStallsAndTinyGraphNeverCoarsens)
{
    KwayOptions opts;
    opts.k = 2;
    bool stalled = false;
    coldKway(ringWithIsolated(), opts, &stalled);
    EXPECT_TRUE(stalled) << "the fixture must reach the 95% rule";

    // At or below 64 vertices nothing coarsens: the hierarchy stays
    // empty and the Rng is the seed state.
    CoarseHierarchy hierarchy(7);
    Rng rng(1);
    EXPECT_EQ(hierarchy.coarsenTo(twoCliques(), 64, rng), 0u);
    Rng seed_state(7);
    EXPECT_EQ(rng.next(), seed_state.next());
}

TEST(CoarseHierarchy, ReuseEqualsColdVCycleInAnyKOrder)
{
    struct Fixture
    {
        const char* name;
        WeightedGraph graph;
        int32_t maxK;
    };
    const std::vector<Fixture> fixtures = {
        {"power law", powerLawWeighted(), 24},
        {"95% stall", ringWithIsolated(), 12},
        {"20 vertices", twoCliques(), 24},
    };
    for (const Fixture& fixture : fixtures) {
        for (const int32_t restarts : {1, 3}) {
            for (const auto& order : kOrders(1, fixture.maxK)) {
                SCOPED_TRACE(std::string(fixture.name) + ", restarts " +
                             std::to_string(restarts) + ", first K " +
                             std::to_string(order.front()));
                std::vector<CoarseHierarchy> hierarchies;
                for (const int32_t k : order) {
                    KwayOptions opts;
                    opts.k = k;
                    opts.restarts = restarts;
                    const auto reused =
                        kwayPartition(fixture.graph, opts, hierarchies);
                    EXPECT_EQ(reused, coldKway(fixture.graph, opts))
                        << "K " << k;
                    EXPECT_EQ(reused, kwayPartition(fixture.graph, opts))
                        << "K " << k;
                }
            }
        }
    }
}

TEST(GreedyGrow, AssignsEveryVertex)
{
    const auto g = randomGraph(150, 3, 10);
    Rng rng(11);
    const auto parts = greedyGrowPartition(g, 4, rng);
    for (int32_t p : parts) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 4);
    }
}

TEST(GreedyGrow, RoughBalance)
{
    const auto g = randomGraph(200, 3, 12);
    Rng rng(13);
    const auto parts = greedyGrowPartition(g, 4, rng);
    std::vector<int64_t> sizes(4, 0);
    for (int32_t p : parts)
        ++sizes[size_t(p)];
    EXPECT_GE(*std::min_element(sizes.begin(), sizes.end()), 25);
}

TEST(Refine, NeverWorsensCut)
{
    const auto g = randomGraph(150, 4, 14);
    Rng part_rng(15);
    std::vector<int32_t> parts(size_t(g.numNodes()));
    for (auto& p : parts)
        p = int32_t(part_rng.uniformInt(3));
    const int64_t before = g.cutCost(parts);
    Rng rng(16);
    const int64_t gain = refineKway(g, parts, 3, 1.1, 8, rng);
    EXPECT_EQ(g.cutCost(parts), before - gain);
    EXPECT_GE(gain, 0);
}

TEST(Rebalance, RestoresBound)
{
    const auto g = randomGraph(100, 3, 17);
    // Pathological start: everything in part 0.
    std::vector<int32_t> parts(size_t(g.numNodes()), 0);
    Rng rng(18);
    rebalance(g, parts, 4, 1.1, rng);
    EXPECT_LE(partitionImbalance(g, parts, 4), 1.1 + 1e-9);
}

TEST(KwayPartition, SeparatesCliques)
{
    const auto g = twoCliques();
    KwayOptions opts;
    opts.k = 2;
    const auto parts = kwayPartition(g, opts);
    // Perfect answer: the weak edge is the only cut.
    EXPECT_EQ(g.cutCost(parts), 1);
}

TEST(KwayPartition, KOneIsTrivial)
{
    const auto g = randomGraph(50, 3, 19);
    KwayOptions opts;
    opts.k = 1;
    const auto parts = kwayPartition(g, opts);
    for (int32_t p : parts)
        EXPECT_EQ(p, 0);
}

TEST(KwayPartition, HandlesIsolatedVertices)
{
    const WeightedGraph g(10, {{0, 1, 1}});
    KwayOptions opts;
    opts.k = 3;
    const auto parts = kwayPartition(g, opts);
    EXPECT_EQ(int64_t(parts.size()), 10);
    EXPECT_LE(partitionImbalance(g, parts, 3), opts.imbalance + 1e-9);
}

TEST(KwayPartition, KLargerThanGraph)
{
    const WeightedGraph g(3, {{0, 1, 1}, {1, 2, 1}});
    KwayOptions opts;
    opts.k = 8;
    const auto parts = kwayPartition(g, opts);
    for (int32_t p : parts) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, 8);
    }
}

TEST(KwayPartition, EmptyGraph)
{
    const WeightedGraph g(0, {});
    KwayOptions opts;
    opts.k = 4;
    EXPECT_TRUE(kwayPartition(g, opts).empty());
}

TEST(KwayPartition, BeatsRandomOnCommunityGraph)
{
    // A homophilous synthetic graph has community structure the
    // min-cut partitioner must exploit far better than random.
    SyntheticSpec spec;
    spec.numNodes = 600;
    spec.avgDegree = 10;
    spec.numClasses = 4;
    spec.homophily = 0.9;
    spec.featureDim = 4;
    const auto ds = makeSyntheticDataset(spec, 20);
    std::vector<WeightedEdge> wedges;
    for (const auto& e : ds.graph.edgeList())
        wedges.push_back({e.src, e.dst, 1});
    const WeightedGraph g(ds.numNodes(), wedges);

    KwayOptions opts;
    opts.k = 4;
    const auto parts = kwayPartition(g, opts);

    Rng rng(21);
    std::vector<int32_t> random_parts(size_t(g.numNodes()));
    for (auto& p : random_parts)
        p = int32_t(rng.uniformInt(4));

    EXPECT_LT(double(g.cutCost(parts)),
              0.6 * double(g.cutCost(random_parts)));
}

/** Property sweep over k: validity, balance, and beating random. */
class KwaySweep : public ::testing::TestWithParam<int32_t>
{
};

TEST_P(KwaySweep, ValidBalancedAndCompetitive)
{
    const int32_t k = GetParam();
    const auto g = randomGraph(300, 5, 22);
    KwayOptions opts;
    opts.k = k;
    const auto parts = kwayPartition(g, opts);
    ASSERT_EQ(int64_t(parts.size()), g.numNodes());
    for (int32_t p : parts) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, k);
    }
    EXPECT_LE(partitionImbalance(g, parts, k), opts.imbalance + 1e-9);

    Rng rng(23);
    std::vector<int32_t> random_parts(size_t(g.numNodes()));
    for (auto& p : random_parts)
        p = int32_t(rng.uniformInt(uint64_t(k)));
    if (k > 1)
        EXPECT_LE(g.cutCost(parts), g.cutCost(random_parts));
}

INSTANTIATE_TEST_SUITE_P(Ks, KwaySweep,
                         ::testing::Values(2, 3, 4, 8, 16, 32));

} // namespace
} // namespace betty
