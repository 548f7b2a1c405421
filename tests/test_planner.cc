/**
 * @file
 * Tests for the memory-aware planner (§4.4.3 re-partitioning loop).
 */
#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "nn/models.h"
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

/** Parameters, gradients and optimizer state: the bytes every
 * micro-batch carries whatever its size. */
int64_t
fixedBytes(const MemoryEstimate& est)
{
    return est.parameters + est.gradients + est.optimizerStates;
}

/** The Table-3 lower bound on K, ceil((full − fixed) / room), computed
 * here independently of the planner; 1 when room <= 0. */
int64_t
tableThreeBound(const MultiLayerBatch& full, const GnnSpec& spec,
                int64_t capacity, int64_t reserved)
{
    const auto est = estimateBatchMemory(full, spec);
    const int64_t room = capacity - reserved - fixedBytes(est);
    if (room <= 0)
        return 1;
    const int64_t need = est.peak - fixedBytes(est);
    return std::max<int64_t>(1, (need + room - 1) / room);
}

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
    // One probe per K, from the Table-3 bound up to the answer.
    const int64_t bound = tableThreeBound(env.full, env.spec,
                                          full_est.peak * 3 / 4, 0);
    EXPECT_GE(plan.k, bound);
    EXPECT_EQ(plan.attempts, plan.k - bound + 1);
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

// -------------------------------------------------------------------
// The search's lower bound and early exit, against a linear search.

/** What a linear search from K = 1 returns, written out by hand:
 * every K is extracted in full and the first fitting one is kept. At
 * every K it probes, it checks the bound's premise: K micro-batches
 * together carry at least the full batch's non-fixed bytes. */
PlanResult
referenceLinearSearch(const MultiLayerBatch& full, const GnnSpec& spec,
                      OutputPartitioner& part, int64_t capacity,
                      int64_t reserved, int32_t max_k)
{
    const auto full_est = estimateBatchMemory(full, spec);
    const int64_t fixed = fixedBytes(full_est);
    const int64_t outputs = int64_t(full.outputNodes().size());
    PlanResult result;
    for (int32_t k = 1; k <= max_k; ++k) {
        result = PlanResult();
        result.k = k;
        result.microBatches =
            extractMicroBatches(full, part.partition(full, k));
        int64_t excess = 0;
        for (const auto& micro : result.microBatches) {
            result.estimates.push_back(estimateBatchMemory(micro, spec));
            const int64_t peak = result.estimates.back().peak;
            result.maxEstimatedPeak =
                std::max(result.maxEstimatedPeak, peak);
            excess += peak - fixed;
        }
        EXPECT_GE(excess, full_est.peak - fixed) << "K = " << k;
        result.fits = capacity <= 0 ||
                      result.maxEstimatedPeak + reserved <= capacity;
        if (result.fits || k >= outputs)
            break;
    }
    return result;
}

void
expectSameBatch(const MultiLayerBatch& got, const MultiLayerBatch& want)
{
    ASSERT_EQ(got.blocks.size(), want.blocks.size());
    for (size_t layer = 0; layer < got.blocks.size(); ++layer) {
        const Block& a = got.blocks[layer];
        const Block& b = want.blocks[layer];
        EXPECT_EQ(a.numDst(), b.numDst()) << "layer " << layer;
        EXPECT_EQ(a.srcNodes(), b.srcNodes()) << "layer " << layer;
        EXPECT_EQ(a.edgeOffsets(), b.edgeOffsets()) << "layer " << layer;
        EXPECT_EQ(a.edgeSources(), b.edgeSources()) << "layer " << layer;
    }
}

void
expectSameEstimate(const MemoryEstimate& got, const MemoryEstimate& want)
{
    EXPECT_EQ(got.parameters, want.parameters);
    EXPECT_EQ(got.inputFeatures, want.inputFeatures);
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.blocks, want.blocks);
    EXPECT_EQ(got.hidden, want.hidden);
    EXPECT_EQ(got.aggregator, want.aggregator);
    EXPECT_EQ(got.gradients, want.gradients);
    EXPECT_EQ(got.optimizerStates, want.optimizerStates);
    EXPECT_EQ(got.backwardBuffers, want.backwardBuffers);
    EXPECT_EQ(got.peak, want.peak);
}

/** plan() must return the reference's K, micro-batches and estimates. */
void
expectSamePlan(const PlanResult& got, const PlanResult& want)
{
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.fits, want.fits);
    EXPECT_EQ(got.maxEstimatedPeak, want.maxEstimatedPeak);
    ASSERT_EQ(got.microBatches.size(), want.microBatches.size());
    for (size_t i = 0; i < got.microBatches.size(); ++i)
        expectSameBatch(got.microBatches[i], want.microBatches[i]);
    ASSERT_EQ(got.estimates.size(), want.estimates.size());
    for (size_t i = 0; i < got.estimates.size(); ++i)
        expectSameEstimate(got.estimates[i], want.estimates[i]);
}

/** Every model family the estimator prices, at test size. */
std::vector<std::pair<std::string, GnnSpec>>
sweepModels(const Dataset& ds)
{
    std::vector<std::pair<std::string, GnnSpec>> models;
    SageConfig sage;
    sage.inputDim = ds.featureDim();
    sage.hiddenDim = 16;
    sage.numClasses = ds.numClasses;
    for (const AggregatorKind agg :
         {AggregatorKind::Mean, AggregatorKind::Sum, AggregatorKind::Pool,
          AggregatorKind::Lstm}) {
        sage.aggregator = agg;
        models.emplace_back("sage-" + aggregatorName(agg),
                            GraphSage(sage).memorySpec());
    }
    StackConfig stack;
    stack.inputDim = ds.featureDim();
    stack.hiddenDim = 16;
    stack.numClasses = ds.numClasses;
    models.emplace_back("gcn", Gcn(stack).memorySpec());
    models.emplace_back("gin", Gin(stack).memorySpec());
    GatConfig gat;
    gat.inputDim = ds.featureDim();
    gat.hiddenDim = 8;
    gat.numClasses = ds.numClasses;
    gat.numHeads = 2;
    models.emplace_back("gat", Gat(gat).memorySpec());
    return models;
}

TEST(PlannerBound, SameResultAsLinearSearchFromKOne)
{
    // Dataset x model x budget x reservation. The budget leaves a
    // share of the full batch's non-fixed bytes as room per
    // micro-batch; the smallest share needs K well above the bound,
    // because micro-batches duplicate shared inputs.
    struct Source
    {
        const char* name;
        double scale;
    };
    for (const Source source : {Source{"arxiv_like", 0.03},
                                Source{"pubmed_like", 0.05}}) {
        const Dataset ds = loadCatalogDataset(source.name, source.scale, 41);
        NeighborSampler sampler(ds.graph, {5, 8}, 42);
        const std::vector<int64_t> seeds(ds.trainNodes.begin(),
                                         ds.trainNodes.begin() + 120);
        const MultiLayerBatch full = sampler.sample(seeds);
        for (const auto& [model, spec] : sweepModels(ds)) {
            const auto full_est = estimateBatchMemory(full, spec);
            const int64_t need = full_est.peak - fixedBytes(full_est);
            for (const double share : {0.6, 0.25, 0.1}) {
                for (const int64_t reserved : {int64_t(0), need / 8}) {
                    SCOPED_TRACE(std::string(source.name) + " " + model +
                                 " share " + std::to_string(share) +
                                 " reserved " + std::to_string(reserved));
                    const int64_t capacity = fixedBytes(full_est) +
                                             reserved +
                                             int64_t(double(need) * share);
                    BettyPartitioner reference_part;
                    const auto want = referenceLinearSearch(
                        full, spec, reference_part, capacity, reserved,
                        4096);
                    MemoryAwarePlanner planner(spec, capacity);
                    planner.setReservedBytes(reserved);
                    BettyPartitioner part;
                    const auto got = planner.plan(full, part);
                    expectSamePlan(got, want);
                    const int64_t bound =
                        tableThreeBound(full, spec, capacity, reserved);
                    EXPECT_GE(got.k, bound);
                    EXPECT_EQ(got.attempts, got.k - bound + 1);
                }
            }
        }
    }
}

TEST(PlannerBound, SameResultUnderNonMonotonePartitioner)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    const int64_t need = full_est.peak - fixedBytes(full_est);
    // Spite the K each budget's bound starts at, and the one above.
    for (const double share : {0.6, 0.3, 0.15}) {
        const int64_t capacity =
            fixedBytes(full_est) + int64_t(double(need) * share);
        const int64_t bound =
            tableThreeBound(env.full, env.spec, capacity, 0);
        for (const int64_t bad_k : {bound, bound + 1}) {
            SCOPED_TRACE("share " + std::to_string(share) + " bad K " +
                         std::to_string(bad_k));
            SpitefulPartitioner part{int32_t(bad_k)};
            const auto want = referenceLinearSearch(
                env.full, env.spec, part, capacity, 0, 4096);
            MemoryAwarePlanner planner(env.spec, capacity);
            expectSamePlan(planner.plan(env.full, part), want);
        }
    }
}

TEST(PlannerBound, NoRoomKeepsTheLinearSearch)
{
    // The fixed costs plus the reservation fill the device: no K fits,
    // so there is no bound and the search probes from initial_k.
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    const int64_t reserved = 4096;
    for (const int64_t capacity :
         {fixedBytes(full_est) + reserved, fixedBytes(full_est) - 1}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        BettyPartitioner reference_part;
        const auto want = referenceLinearSearch(
            env.full, env.spec, reference_part, capacity, reserved, 6);
        MemoryAwarePlanner planner(env.spec, capacity);
        planner.setReservedBytes(reserved);
        BettyPartitioner part;
        const auto got = planner.plan(env.full, part, 1, 6);
        expectSamePlan(got, want);
        EXPECT_FALSE(got.fits);
        EXPECT_EQ(got.attempts, 6);
    }
}

int64_t
structureBytesCounted()
{
    return obs::Metrics::counter("micro_batch.structure_bytes").value();
}

int64_t
structureBytes(const std::vector<MultiLayerBatch>& micros)
{
    int64_t total = 0;
    for (const auto& micro : micros)
        total += micro.structureBytes();
    return total;
}

TEST(PlannerEarlyExit, FailingProbeStopsAtFirstOverBudgetMicroBatch)
{
    Env env;
    // Parameters alone exceed this budget, so the first micro-batch of
    // every K is over it: each failing probe extracts exactly one, and
    // only the final probe (max_k) extracts all of its micro-batches.
    constexpr int32_t kMaxK = 8;
    BettyPartitioner reference;
    int64_t expected = 0;
    int64_t full_extraction = 0;
    for (int32_t k = 1; k <= kMaxK; ++k) {
        const auto micros =
            extractMicroBatches(env.full, reference.partition(env.full, k));
        full_extraction += structureBytes(micros);
        expected += k < kMaxK ? micros.front().structureBytes()
                              : structureBytes(micros);
    }

    MetricsEnabledScope metrics;
    MemoryAwarePlanner planner(env.spec, 1000);
    BettyPartitioner part;
    const int64_t before = structureBytesCounted();
    const auto plan = planner.plan(env.full, part, 1, kMaxK);
    ASSERT_FALSE(plan.fits);
    EXPECT_EQ(plan.attempts, kMaxK);
    EXPECT_EQ(structureBytesCounted() - before, expected);
    EXPECT_LT(expected, full_extraction);
}

TEST(PlannerEarlyExit, FailingProbesExtractLessThanKBeforeAFit)
{
    Env env;
    const auto full_est = estimateBatchMemory(env.full, env.spec);
    const int64_t capacity = full_est.peak / 2;

    MetricsEnabledScope metrics;
    MemoryAwarePlanner planner(env.spec, capacity);
    BettyPartitioner part;
    const int64_t before = structureBytesCounted();
    const auto plan = planner.plan(env.full, part);
    const int64_t counted = structureBytesCounted() - before;
    ASSERT_TRUE(plan.fits);
    ASSERT_GE(plan.attempts, 2) << "needs a failing probe";
    ASSERT_EQ(plan.microBatches.size(), size_t(plan.k));

    // What the failing probes would have extracted in full.
    BettyPartitioner reference;
    int64_t failing_full = 0;
    for (int32_t k = plan.k - plan.attempts + 1; k < plan.k; ++k)
        failing_full += structureBytes(extractMicroBatches(
            env.full, reference.partition(env.full, k)));
    const int64_t failing = counted - structureBytes(plan.microBatches);
    EXPECT_GT(failing, 0);
    EXPECT_LT(failing, failing_full);
}

} // namespace
} // namespace betty
