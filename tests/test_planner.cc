/**
 * @file
 * Tests for the memory-aware planner (§4.4.3 re-partitioning loop).
 */
#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "partition/reg.h"
#include "sampling/neighbor_sampler.h"

namespace betty {
namespace {

struct Env
{
    Env()
        : dataset(loadCatalogDataset("arxiv_like", 0.03, 31)),
          sampler(dataset.graph, {5, 8}, 32)
    {
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 150);
        full = sampler.sample(seeds);

        spec.inputDim = dataset.featureDim();
        spec.hiddenDim = 32;
        spec.numClasses = dataset.numClasses;
        spec.numLayers = 2;
        spec.aggregator = AggregatorKind::Mean;
        spec.paramCountGnn = 50000;
    }

    Dataset dataset;
    NeighborSampler sampler;
    MultiLayerBatch full;
    GnnSpec spec;
};

TEST(Planner, UnlimitedCapacityKeepsKOne)
{
    Env env;
    MemoryAwarePlanner planner(env.spec, /*capacity=*/0);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part);
    EXPECT_TRUE(plan.fits);
    EXPECT_EQ(plan.k, 1);
    EXPECT_EQ(plan.attempts, 1);
    EXPECT_EQ(plan.microBatches.size(), 1u);
}

TEST(Planner, GenerousCapacityFitsImmediately)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak + 1);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part);
    EXPECT_TRUE(plan.fits);
    EXPECT_EQ(plan.k, 1);
}

TEST(Planner, TightCapacityIncreasesK)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    // Force a split: less than the full batch needs.
    MemoryAwarePlanner planner(env.spec, full_est.peak * 3 / 4);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part);
    EXPECT_TRUE(plan.fits);
    EXPECT_GT(plan.k, 1);
    EXPECT_EQ(plan.attempts, plan.k);
    EXPECT_LE(plan.maxEstimatedPeak, full_est.peak * 3 / 4);
}

TEST(Planner, EveryMicroBatchMeetsBudget)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    const int64_t budget = full_est.peak / 2;
    MemoryAwarePlanner planner(env.spec, budget);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part);
    ASSERT_TRUE(plan.fits);
    for (const auto& est : plan.estimates)
        EXPECT_LE(est.peak, budget);
    EXPECT_EQ(plan.estimates.size(), plan.microBatches.size());
}

TEST(Planner, TighterBudgetNeverNeedsFewerBatches)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    BettyPartitioner part;
    MemoryAwarePlanner loose(env.spec, full_est.peak * 3 / 4);
    MemoryAwarePlanner tight(env.spec, full_est.peak / 2);
    EXPECT_GE(tight.plan(env.full, part).k,
              loose.plan(env.full, part).k);
}

TEST(Planner, ImpossibleBudgetReportsNoFit)
{
    Env env;
    // Parameters alone exceed this budget: no K can ever fit.
    MemoryAwarePlanner planner(env.spec, 1000);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part, 1, 8);
    EXPECT_FALSE(plan.fits);
    EXPECT_GE(plan.attempts, 8);
}

TEST(Planner, InitialKRespected)
{
    Env env;
    MemoryAwarePlanner planner(env.spec, 0);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part, /*initial_k=*/4);
    EXPECT_EQ(plan.k, 4);
    EXPECT_EQ(plan.microBatches.size(), 4u);
}

TEST(Planner, WorksWithBaselinePartitioners)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak * 2 / 3);
    RangePartitioner range;
    RandomPartitioner random(7);
    for (OutputPartitioner* part :
         std::initializer_list<OutputPartitioner*>{&range, &random}) {
        const auto plan = planner.plan(env.full, *part);
        EXPECT_TRUE(plan.fits) << part->name();
        EXPECT_GT(plan.k, 1) << part->name();
    }
}

TEST(PlannerGeometric, MatchesLinearSearchResult)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    // Divisor 2 fits at this scale; tighter budgets fall below the
    // fixed-cost floor (params + optimizer states live in EVERY
    // micro-batch) and must be reported unfittable by BOTH searches.
    for (int64_t divisor : {2, 3, 5}) {
        const int64_t budget = full_est.peak / divisor;
        MemoryAwarePlanner planner(env.spec, budget);
        BettyPartitioner part;
        const auto linear = planner.plan(env.full, part);
        const auto fast = planner.planGeometric(env.full, part);
        ASSERT_EQ(linear.fits, fast.fits) << "divisor " << divisor;
        if (linear.fits) {
            // Never below the strict minimum (linear returns the
            // first fitting K, so any fitting K is >= it). Above it,
            // worst-case memory is not monotone in K — repartitioning
            // can make the worst micro-batch of K+1 larger than K's —
            // so the binary search may skip past a fitting K it never
            // probed and settle a couple of steps high.
            EXPECT_GE(fast.k, linear.k) << "divisor " << divisor;
            EXPECT_LE(fast.k, linear.k + 2) << "divisor " << divisor;
            EXPECT_LE(fast.maxEstimatedPeak, budget);
        }
    }
}

TEST(PlannerGeometric, FewerAttemptsWhenKIsLarge)
{
    // Whether or not the tight budget fits, geometric probing must
    // reach its conclusion in O(log K) rounds where linear needs O(K).
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak / 8);
    BettyPartitioner part;
    const auto linear = planner.plan(env.full, part);
    const auto fast = planner.planGeometric(env.full, part);
    EXPECT_EQ(linear.fits, fast.fits);
    if (linear.attempts >= 8)
        EXPECT_LT(fast.attempts, linear.attempts / 2);
}

TEST(PlannerGeometric, UnlimitedCapacityIsKOne)
{
    Env env;
    MemoryAwarePlanner planner(env.spec, 0);
    BettyPartitioner part;
    const auto plan = planner.planGeometric(env.full, part);
    EXPECT_TRUE(plan.fits);
    EXPECT_EQ(plan.k, 1);
    EXPECT_EQ(plan.attempts, 1);
}

TEST(PlannerGeometric, ImpossibleBudgetReportsNoFit)
{
    Env env;
    MemoryAwarePlanner planner(env.spec, 1000);
    BettyPartitioner part;
    const auto plan = planner.planGeometric(env.full, part);
    EXPECT_FALSE(plan.fits);
}

/** A partitioner with a deliberately pathological K: for one chosen
 * K it dumps almost every output into group 0 (worst micro-batch ≈
 * the whole batch), everywhere else it splits round-robin. Worst-case
 * memory is therefore NON-monotone in K, which is the regime the
 * planner's searches must survive. */
class SpitefulPartitioner : public OutputPartitioner
{
  public:
    explicit SpitefulPartitioner(int32_t bad_k) : bad_k_(bad_k) {}

    std::vector<std::vector<int64_t>>
    partition(const MultiLayerBatch& batch, int32_t k) override
    {
        const auto outputs = batch.outputNodes();
        std::vector<std::vector<int64_t>> groups;
        groups.resize(size_t(k));
        if (k == bad_k_) {
            // One token output per minor group, the rest in group 0.
            for (size_t i = 0; i < outputs.size(); ++i) {
                const size_t g = i < size_t(k) - 1 ? i + 1 : 0;
                groups[g].push_back(outputs[i]);
            }
        } else {
            for (size_t i = 0; i < outputs.size(); ++i)
                groups[i % size_t(k)].push_back(outputs[i]);
        }
        return groups;
    }

    std::string name() const override { return "spiteful"; }

  private:
    int32_t bad_k_;
};

TEST(Planner, ExhaustionAtMaxKIsReportedNotFatal)
{
    Env env;
    // Parameters alone exceed this budget: no K can ever fit. The
    // caller (the resilient trainer's skip-with-report path) relies
    // on getting a well-formed "no" back rather than a crash.
    MemoryAwarePlanner planner(env.spec, 1000);
    BettyPartitioner part;
    const auto plan = planner.plan(env.full, part, 1, 8);
    EXPECT_FALSE(plan.fits);
    EXPECT_EQ(plan.k, 8) << "stops exactly at max_k";
    EXPECT_GE(plan.attempts, 8);
    ASSERT_EQ(plan.microBatches.size(), 8u)
        << "the last attempted plan is still returned";
    EXPECT_EQ(plan.estimates.size(), plan.microBatches.size());
    for (const auto& est : plan.estimates)
        EXPECT_GT(est.peak, 1000) << "every piece really is too big";
}

TEST(Planner, SetCapacityRetargetsTheSearch)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak + 1);
    BettyPartitioner part;
    EXPECT_EQ(planner.plan(env.full, part).k, 1);

    // The resilient trainer calls this after a capacity-drop fault:
    // the same planner must now split.
    planner.setCapacity(full_est.peak / 2);
    EXPECT_EQ(planner.capacity(), full_est.peak / 2);
    const auto tight = planner.plan(env.full, part);
    ASSERT_TRUE(tight.fits);
    EXPECT_GT(tight.k, 1);
    EXPECT_LE(tight.maxEstimatedPeak, full_est.peak / 2);

    planner.setCapacity(0);
    EXPECT_EQ(planner.plan(env.full, part).k, 1)
        << "back to unlimited";
}

TEST(Planner, LinearSearchSurvivesNonMonotoneWorstCase)
{
    Env env;
    constexpr int32_t kBadK = 4;
    SpitefulPartitioner part(kBadK);

    // Probe the worst-case estimate at a few fixed K (capacity 0
    // accepts the initial K, so plan(k, 0) is "partition at exactly
    // k and estimate").
    MemoryAwarePlanner probe(env.spec, 0);
    const int64_t worst_at_3 =
        probe.plan(env.full, part, 3).maxEstimatedPeak;
    const int64_t worst_at_4 =
        probe.plan(env.full, part, kBadK).maxEstimatedPeak;
    ASSERT_GT(worst_at_4, worst_at_3)
        << "the stub must make worst-case memory non-monotone";

    // Fits at K=3 but NOT at K=4: a search that assumed monotonicity
    // and stopped at the first non-fitting K above a fitting one (or
    // started above it) would fail here.
    MemoryAwarePlanner planner(env.spec, worst_at_3);
    const auto from_low = planner.plan(env.full, part);
    ASSERT_TRUE(from_low.fits);
    EXPECT_LE(from_low.k, 3);
    EXPECT_NE(from_low.k, kBadK);

    // Starting the search AT the pathological K (exactly what a
    // re-plan at K+1 can do) must step over it, not give up.
    const auto from_bad = planner.plan(env.full, part, kBadK);
    ASSERT_TRUE(from_bad.fits);
    EXPECT_GT(from_bad.k, kBadK);
    EXPECT_LE(from_bad.maxEstimatedPeak, worst_at_3);
}

TEST(PlannerGeometric, NonMonotoneWorstCaseStillFindsAFit)
{
    Env env;
    constexpr int32_t kBadK = 4;
    SpitefulPartitioner part(kBadK);
    MemoryAwarePlanner probe(env.spec, 0);
    const int64_t worst_at_3 =
        probe.plan(env.full, part, 3).maxEstimatedPeak;

    // The geometric search may probe the pathological K and settle
    // above the strict minimum, but whatever it returns must fit.
    MemoryAwarePlanner planner(env.spec, worst_at_3);
    const auto fast = planner.planGeometric(env.full, part);
    ASSERT_TRUE(fast.fits);
    EXPECT_LE(fast.maxEstimatedPeak, worst_at_3);
    EXPECT_GE(fast.k, 2);
}

TEST(BettyFacade, PlanFastFitsBudget)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    BettyConfig config;
    config.deviceCapacityBytes = full_est.peak * 3 / 5;
    Betty betty(env.spec, config);
    const auto plan = betty.planFast(env.full);
    ASSERT_TRUE(plan.fits);
    EXPECT_LE(plan.maxEstimatedPeak, config.deviceCapacityBytes);
}

TEST(BettyFacade, PlanAndPartition)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    BettyConfig config;
    config.deviceCapacityBytes = full_est.peak * 3 / 4;
    Betty betty(env.spec, config);

    const auto plan = betty.plan(env.full);
    EXPECT_TRUE(plan.fits);
    EXPECT_GT(plan.k, 1);

    const auto fixed = betty.partition(env.full, 6);
    EXPECT_EQ(fixed.size(), 6u);
    size_t outputs = 0;
    for (const auto& micro : fixed)
        outputs += micro.outputNodes().size();
    EXPECT_EQ(outputs, env.full.outputNodes().size());
}

TEST(Planner, BettyNeedsNoMoreBatchesThanRandom)
{
    // Betty's lower redundancy means its micro-batches are smaller at
    // equal K, so it should never need MORE batches than random to
    // meet the same budget.
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    const int64_t budget = full_est.peak * 3 / 5;
    MemoryAwarePlanner planner(env.spec, budget);
    BettyPartitioner betty;
    RandomPartitioner random(9);
    EXPECT_LE(planner.plan(env.full, betty).k,
              planner.plan(env.full, random).k);
}

/** Turns metrics collection on for one scope, restoring the old
 * setting on exit. */
class MetricsEnabledScope
{
  public:
    MetricsEnabledScope() : was_(obs::Metrics::enabled())
    {
        obs::Metrics::setEnabled(true);
    }
    ~MetricsEnabledScope() { obs::Metrics::setEnabled(was_); }

  private:
    bool was_;
};

int64_t
regBuilds()
{
    return obs::Metrics::counter("partition.reg_builds").value();
}

TEST(Planner, OneRegPerBatchAcrossProbes)
{
    MetricsEnabledScope metrics;
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    MemoryAwarePlanner planner(env.spec, full_est.peak / 2);
    BettyPartitioner part;

    const int64_t before = regBuilds();
    const auto plan = planner.plan(env.full, part);
    ASSERT_TRUE(plan.fits);
    // K = 1 needs no REG; every probe from K = 2 up reuses one build.
    ASSERT_GE(plan.attempts, 3);
    EXPECT_EQ(regBuilds() - before, 1);

    // A different batch sampled into the same object: same address,
    // new adjacency. The partitioner must notice and rebuild.
    const MultiLayerBatch* address = &env.full;
    std::vector<int64_t> other(env.dataset.trainNodes.end() - 150,
                               env.dataset.trainNodes.end());
    env.full = env.sampler.sample(other);
    ASSERT_EQ(&env.full, address);

    const auto groups = part.partition(env.full, plan.k);
    EXPECT_EQ(regBuilds() - before, 2);

    // The result is the one a fresh REG gives, element by element.
    KwayOptions kway;
    kway.k = plan.k;
    const auto fresh = groupByPart(
        env.full.outputNodes(),
        kwayPartition(buildReg(env.full.blocks.back()), kway), plan.k);
    ASSERT_EQ(groups.size(), fresh.size());
    for (size_t p = 0; p < groups.size(); ++p)
        EXPECT_EQ(groups[p], fresh[p]) << "part " << p;

    // Probing again on the new batch reuses its REG.
    const int64_t after_fresh = regBuilds();
    part.partition(env.full, plan.k + 1);
    EXPECT_EQ(regBuilds(), after_fresh);
}

} // namespace
} // namespace betty
