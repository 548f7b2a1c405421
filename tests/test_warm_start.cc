/**
 * @file
 * Tests for warm-start partitioning (the paper's future-work item on
 * reducing partitioning overhead, §7): kwayPartitionWarm, and the
 * BettyPartitioner's default warm start across resampled epochs with
 * its carry rule, drift guard and exportable state.
 */
#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "obs/metrics.h"
#include "partition/kway_partitioner.h"
#include "partition/reg.h"
#include "sampling/neighbor_sampler.h"
#include "util/timer.h"

namespace betty {
namespace {

WeightedGraph
communityGraph(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<WeightedEdge> edges;
    // Two halves densely connected internally, sparsely across.
    for (int64_t i = 0; i < n; ++i)
        for (int64_t tries = 0; tries < 4; ++tries) {
            const int64_t half = i < n / 2 ? 0 : 1;
            const int64_t j = half * (n / 2) +
                              int64_t(rng.uniformInt(uint64_t(n / 2)));
            if (j != i)
                edges.push_back({i, j, 5});
        }
    edges.push_back({0, n - 1, 1});
    return WeightedGraph(n, edges);
}

TEST(KwayWarm, RefinesGivenAssignment)
{
    const auto g = communityGraph(200, 1);
    KwayOptions opts;
    opts.k = 2;
    // Start from a poor random assignment; warm refinement must not
    // make the cut worse and should improve it substantially.
    Rng rng(2);
    std::vector<int32_t> initial(200);
    for (auto& p : initial)
        p = int32_t(rng.uniformInt(2));
    const int64_t before = g.cutCost(initial);
    const auto refined = kwayPartitionWarm(g, opts, initial);
    EXPECT_LT(g.cutCost(refined), before);
    EXPECT_LE(partitionImbalance(g, refined, 2),
              opts.imbalance + 1e-9);
}

TEST(KwayWarm, PerfectStartIsStable)
{
    const auto g = communityGraph(200, 3);
    KwayOptions opts;
    opts.k = 2;
    std::vector<int32_t> perfect(200);
    for (int64_t i = 0; i < 200; ++i)
        perfect[size_t(i)] = i < 100 ? 0 : 1;
    const auto refined = kwayPartitionWarm(g, opts, perfect);
    EXPECT_LE(g.cutCost(refined), g.cutCost(perfect));
}

TEST(KwayWarm, KOneTrivial)
{
    const auto g = communityGraph(50, 4);
    KwayOptions opts;
    opts.k = 1;
    const auto parts =
        kwayPartitionWarm(g, opts, std::vector<int32_t>(50, 0));
    for (int32_t p : parts)
        EXPECT_EQ(p, 0);
}

TEST(KwayWarmDeathTest, BadInitialPanics)
{
    const auto g = communityGraph(50, 5);
    KwayOptions opts;
    opts.k = 2;
    std::vector<int32_t> bad(50, 7); // part id out of range
    EXPECT_DEATH(kwayPartitionWarm(g, opts, bad), "out of range");
}

/**
 * The same 400 arxiv_like output nodes, resampled every epoch. At
 * fanout (10, 15) consecutive epochs' REGs share most of their
 * structure, and a warm start cuts within the drift guard's 5% of a
 * cold solve. At fanout (5, 8) resampling replaces most of the REG:
 * refining the previous epoch's parts stays about 15% above the cold
 * cut share, which the guard must catch.
 */
struct Env
{
    explicit Env(std::vector<int64_t> fanouts = {10, 15})
        : dataset(loadCatalogDataset("arxiv_like", 0.15, 91)),
          fanouts(std::move(fanouts))
    {
    }

    MultiLayerBatch
    sampleEpoch(uint64_t seed) const
    {
        NeighborSampler sampler(dataset.graph, fanouts, seed);
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 400);
        return sampler.sample(seeds);
    }

    Dataset dataset;
    std::vector<int64_t> fanouts;
};

/** Metrics on, from zero, for one test. */
struct MetricsOn
{
    MetricsOn()
    {
        obs::Metrics::reset();
        obs::Metrics::setEnabled(true);
    }
    ~MetricsOn() { obs::Metrics::setEnabled(false); }

    static int64_t
    count(const char* name)
    {
        return obs::Metrics::counter(name).value();
    }
};

TEST(BettyWarmStart, SecondEpochIsWarm)
{
    Env env;
    BettyPartitioner part;

    part.partition(env.sampleEpoch(1), 8);
    EXPECT_FALSE(part.lastRunWasWarm()) << "first epoch is cold";
    part.partition(env.sampleEpoch(2), 8);
    EXPECT_TRUE(part.lastRunWasWarm());
}

TEST(BettyWarmStart, ChangingKFallsBackToCold)
{
    Env env;
    BettyPartitioner part;
    part.partition(env.sampleEpoch(1), 8);
    part.partition(env.sampleEpoch(2), 4);
    EXPECT_FALSE(part.lastRunWasWarm());
}

TEST(BettyWarmStart, DisjointBatchFallsBackToCold)
{
    Env env;
    BettyPartitioner part;
    part.partition(env.sampleEpoch(1), 4);

    // A batch over completely different output nodes.
    NeighborSampler sampler(env.dataset.graph, {5, 8}, 3);
    std::vector<int64_t> other(env.dataset.testNodes.begin(),
                               env.dataset.testNodes.begin() + 300);
    part.partition(sampler.sample(other), 4);
    EXPECT_FALSE(part.lastRunWasWarm());
}

TEST(BettyWarmStart, WarmByDefault)
{
    // A fresh partitioner is cold; every later epoch over the same
    // output nodes at the same K carries the parts over position by
    // position and is warm.
    Env env;
    MetricsOn metrics;
    BettyPartitioner part;
    EXPECT_EQ(part.warmState().k, 0);
    part.partition(env.sampleEpoch(1), 8);
    EXPECT_FALSE(part.lastRunWasWarm());
    for (uint64_t epoch = 2; epoch <= 4; ++epoch) {
        part.partition(env.sampleEpoch(epoch), 8);
        EXPECT_TRUE(part.lastRunWasWarm()) << "epoch " << epoch;
    }
    EXPECT_EQ(part.warmState().k, 8);
    EXPECT_EQ(part.warmState().parts.size(), 400u);
    EXPECT_EQ(MetricsOn::count("partition.runs"), 4);
    EXPECT_EQ(MetricsOn::count("partition.warm_runs"), 3);
    EXPECT_EQ(MetricsOn::count("partition.cold_fallbacks"), 0);
}

TEST(BettyWarmStart, PartiallyOverlappingBatchCarriesById)
{
    // Outputs shifted by a tenth: nine tenths carry over by id (the
    // sorted merge), which passes the half-carried rule, so the call
    // starts warm (the drift guard may still prefer a cold solve).
    Env env;
    MetricsOn metrics;
    BettyPartitioner part;
    part.partition(env.sampleEpoch(1), 8);
    NeighborSampler sampler(env.dataset.graph, env.fanouts, 2);
    std::vector<int64_t> shifted(env.dataset.trainNodes.begin() + 40,
                                 env.dataset.trainNodes.begin() + 440);
    const auto groups = part.partition(sampler.sample(shifted), 8);
    EXPECT_EQ(MetricsOn::count("partition.warm_runs") +
                  MetricsOn::count("partition.cold_fallbacks"),
              1);
    size_t total = 0;
    for (const auto& group : groups)
        total += group.size();
    EXPECT_EQ(total, shifted.size());
}

TEST(BettyWarmStart, DriftGuardFallsBackToColdOnStaleCarry)
{
    // Sparse batches: the carried epoch-1 parts are a bad seed for
    // epoch 2's mostly new REG.
    Env env({5, 8});
    const auto epoch1 = env.sampleEpoch(1);
    const auto epoch2 = env.sampleEpoch(2);
    MetricsOn metrics;
    BettyPartitioner part;
    part.partition(epoch1, 8);
    const WarmStartState carried = part.warmState();
    const auto groups = part.partition(epoch2, 8);
    EXPECT_FALSE(part.lastRunWasWarm()) << "the guard kept the warm cut";
    EXPECT_EQ(MetricsOn::count("partition.cold_fallbacks"), 1);
    EXPECT_EQ(MetricsOn::count("partition.warm_runs"), 0);

    // The guard fired: refining the carried parts drifts past 5% of
    // the last cold solve's cut share.
    const auto reg = buildReg(epoch2.blocks.back());
    KwayOptions opts;
    opts.k = 8;
    const int64_t warm_cut =
        reg.cutCost(kwayPartitionWarm(reg, opts, carried.parts));
    EXPECT_GT(double(warm_cut) / double(reg.totalEdgeWeight()),
              (1.0 + BettyPartitioner::kMaxCutDrift) *
                  double(carried.coldCut) /
                  double(carried.coldEdgeWeight));

    // The fallback is the cold solve a fresh partitioner returns, and
    // it kept the lower cut.
    BettyPartitioner fresh;
    EXPECT_EQ(groups, fresh.partition(epoch2, 8));
    EXPECT_LT(reg.cutCost(part.warmState().parts), warm_cut);
}

TEST(BettyWarmStart, ExportedStateResumesIdentically)
{
    // Epochs 1-3 in one partitioner, against epochs 1-2, export, and
    // epoch 3 in a fresh partitioner that imports the state.
    Env env;
    BettyPartitioner straight;
    BettyPartitioner first_life;
    for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
        straight.partition(env.sampleEpoch(epoch), 8);
        first_life.partition(env.sampleEpoch(epoch), 8);
    }
    BettyPartitioner second_life;
    second_life.setWarmState(first_life.warmState());
    const auto batch = env.sampleEpoch(3);
    EXPECT_EQ(second_life.partition(batch, 8),
              straight.partition(batch, 8));
    EXPECT_TRUE(second_life.lastRunWasWarm());
}

TEST(BettyWarmStartDeathTest, BadStatePanics)
{
    WarmStartState state;
    state.k = 2;
    state.outputs = {4, 5};
    state.parts = {0, 2}; // part id out of range
    BettyPartitioner part;
    EXPECT_DEATH(part.setWarmState(state), "out of range");
}

TEST(BettyWarmStart, QualityComparableToCold)
{
    Env env;
    const auto epoch1 = env.sampleEpoch(1);
    const auto epoch2 = env.sampleEpoch(2);

    BettyPartitioner warm;
    BettyPartitioner cold;

    warm.partition(epoch1, 8);
    const auto warm_groups = warm.partition(epoch2, 8);
    const auto cold_groups = cold.partition(epoch2, 8);
    ASSERT_TRUE(warm.lastRunWasWarm());

    const int64_t warm_red = inputNodeRedundancy(
        epoch2, extractMicroBatches(epoch2, warm_groups));
    const int64_t cold_red = inputNodeRedundancy(
        epoch2, extractMicroBatches(epoch2, cold_groups));
    // Warm refinement may be slightly worse but must stay close.
    EXPECT_LT(double(warm_red), 1.15 * double(cold_red));
}

TEST(BettyWarmStart, ValidPartitionEitherWay)
{
    Env env;
    BettyPartitioner part;
    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
        const auto batch = env.sampleEpoch(epoch);
        const auto groups = part.partition(batch, 6);
        size_t total = 0;
        for (const auto& group : groups)
            total += group.size();
        EXPECT_EQ(total, batch.outputNodes().size());
    }
}

} // namespace
} // namespace betty
