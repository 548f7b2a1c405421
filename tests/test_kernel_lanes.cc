/**
 * @file
 * Intra-op parallelism must not change a single bit
 * (docs/KERNELS.md "Intra-op parallelism"): every row-parallel kernel
 * — gemm, gemmTransA, gemmTransB, gatherAggregate (Sum, Mean, Max
 * with argmax) and gatherRows — gives byte-identical output at pool
 * sizes 2, 3 and 8 and at a single lane, on both backends. Parallel
 * kernels called from inside pool tasks (the prefetch lane's shape)
 * neither deadlock nor change their output, and two epochs of SAGE
 * training give identical losses and parameters at 1, 2, 4 and 8
 * lanes.
 *
 * Shapes sit just below and just above kernels::kParallelMinWork,
 * have row counts that are not a multiple of the block and smaller
 * than the lane count, column tails (n % 8 != 0, n % 32 != 0), ReLU
 * zeros in A (the zero-skip branch) and empty segments. Outputs start
 * from nonzero values, because every GEMM accumulates into C.
 */
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "core/micro_batch.h"
#include "data/catalog.h"
#include "kernels/dispatch.h"
#include "kernels/kernels.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "sampling/neighbor_sampler.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

using kernels::KernelMode;
using kernels::kParallelMinWork;
using kernels::Reduce;

std::vector<float>
randomValues(Rng& rng, int64_t n, double relu_zeros = 0.0)
{
    std::vector<float> values(size_t(n), 0.0f);
    for (auto& v : values)
        if (rng.uniformReal(0.0, 1.0) >= relu_zeros)
            v = float(rng.uniformReal(-2.0, 2.0));
    return values;
}

/** The raw bytes a kernel run produced (outputs and argmax). */
using Bytes = std::vector<unsigned char>;

template <typename T>
void
appendBytes(Bytes& bytes, const std::vector<T>& values)
{
    const auto* raw =
        reinterpret_cast<const unsigned char*>(values.data());
    bytes.insert(bytes.end(), raw, raw + values.size() * sizeof(T));
}

/** memcmp @p run at pool sizes 2, 3 and 8 against one lane. */
void
expectSameAtEveryPoolSize(const std::function<Bytes()>& run)
{
    ThreadPool::setGlobalThreads(1);
    const Bytes serial = run();
    ASSERT_FALSE(serial.empty());
    for (const int32_t lanes : {2, 3, 8}) {
        ThreadPool::setGlobalThreads(lanes);
        const Bytes parallel = run();
        ASSERT_EQ(parallel.size(), serial.size());
        EXPECT_EQ(
            std::memcmp(parallel.data(), serial.data(), serial.size()),
            0)
            << "output differs at " << lanes << " lanes";
    }
}

class KernelLanes : public ::testing::TestWithParam<KernelMode>
{
  protected:
    void SetUp() override
    {
        if (GetParam() == KernelMode::Avx2 &&
            !(kernels::builtWithAvx2() && kernels::cpuSupportsAvx2()))
            GTEST_SKIP() << "AVX2+FMA unavailable";
        kernels::setKernelMode(GetParam());
    }

    void TearDown() override
    {
        ThreadPool::setGlobalThreads(1);
        kernels::setKernelMode(KernelMode::Scalar);
    }
};

/** Which of the three GEMM variants a shape runs through. */
enum class Gemm { Plain, TransA, TransB };

/** c[m,n] (seeded nonzero) += op(a) * op(b); a carries ReLU zeros. */
Bytes
runGemm(Gemm variant, int64_t m, int64_t k, int64_t n, uint64_t seed)
{
    Rng rng(seed);
    const auto a = randomValues(rng, m * k, 0.5);
    const auto b = randomValues(rng, k * n);
    auto c = randomValues(rng, m * n);
    switch (variant) {
    case Gemm::Plain:
        kernels::gemm(a.data(), b.data(), c.data(), m, k, n);
        break;
    case Gemm::TransA: // a stored k x m
        kernels::gemmTransA(a.data(), b.data(), c.data(), m, k, n);
        break;
    case Gemm::TransB: // b stored n x k
        kernels::gemmTransB(a.data(), b.data(), c.data(), m, k, n);
        break;
    }
    Bytes bytes;
    appendBytes(bytes, c);
    return bytes;
}

struct GemmShape
{
    int64_t m, k, n;
};

/**
 * Shapes around the serial threshold plus ragged ones above it:
 * rows below the lane count, rows that no block size divides, and
 * column tails of every class the AVX2 tiles have (n % 32, n % 8).
 */
std::vector<GemmShape>
gemmShapes()
{
    std::vector<GemmShape> shapes;
    // m * k * n one row below and one row above the threshold.
    const int64_t k = 96, n = 64;
    const int64_t rows_at = kParallelMinWork / (k * n);
    shapes.push_back({rows_at - 1, k, n});
    shapes.push_back({rows_at + 1, k, n});
    shapes.push_back({3, 1024, 1500});   // 3 rows, 8 lanes
    shapes.push_back({1237, 77, 45});    // n % 32 = 13, n % 8 = 5
    shapes.push_back({701, 64, 133});    // 32-tiles, 8-tile, tail
    shapes.push_back({517, 300, 37});
    return shapes;
}

TEST_P(KernelLanes, GemmIdenticalAtEveryPoolSize)
{
    for (const GemmShape& s : gemmShapes()) {
        SCOPED_TRACE(::testing::Message() << s.m << "x" << s.k << "x"
                                          << s.n);
        expectSameAtEveryPoolSize(
            [&] { return runGemm(Gemm::Plain, s.m, s.k, s.n, 11); });
    }
}

TEST_P(KernelLanes, GemmTransAIdenticalAtEveryPoolSize)
{
    // C's rows are A's columns; blocks are at least 32 of them, so
    // the ragged cases need m beyond a few blocks.
    std::vector<GemmShape> shapes = gemmShapes();
    shapes.push_back({200, 2000, 37});  // 6 full blocks and a tail
    shapes.push_back({33, 4000, 45});   // one row past one block
    for (const GemmShape& s : shapes) {
        SCOPED_TRACE(::testing::Message() << s.m << "x" << s.k << "x"
                                          << s.n);
        expectSameAtEveryPoolSize(
            [&] { return runGemm(Gemm::TransA, s.m, s.k, s.n, 12); });
    }
}

TEST_P(KernelLanes, GemmTransBIdenticalAtEveryPoolSize)
{
    for (const GemmShape& s : gemmShapes()) {
        SCOPED_TRACE(::testing::Message() << s.m << "x" << s.k << "x"
                                          << s.n);
        expectSameAtEveryPoolSize(
            [&] { return runGemm(Gemm::TransB, s.m, s.k, s.n, 13); });
    }
}

struct AggShape
{
    int64_t segments, cols, minDeg, maxDeg;
    bool parallel; // edges * cols at or above the threshold
};

/** Random CSR over @p rows input rows; every third segment empty. */
std::pair<std::vector<int64_t>, std::vector<int64_t>>
randomCsr(Rng& rng, const AggShape& shape, int64_t rows)
{
    std::vector<int64_t> sources;
    std::vector<int64_t> offsets{0};
    for (int64_t s = 0; s < shape.segments; ++s) {
        const int64_t deg =
            s % 3 == 0 ? 0
                       : shape.minDeg + rng.uniformInt(shape.maxDeg -
                                                       shape.minDeg + 1);
        for (int64_t e = 0; e < deg; ++e)
            sources.push_back(rng.uniformInt(rows));
        offsets.push_back(int64_t(sources.size()));
    }
    return {std::move(sources), std::move(offsets)};
}

void
expectAggregateIdentical(Reduce reduce, bool indirect)
{
    const int64_t rows = 900;
    for (const AggShape& s : std::vector<AggShape>{
             {2, 1000, 5000, 5000, true}, // one empty segment, 8 lanes
             {3001, 37, 1, 160, true},    // cols % 32 = 5, ragged
             {1500, 133, 1, 120, true},   // cols % 8 = 5
             {777, 8, 1, 2, false}}) {
        Rng rng(uint64_t(s.segments * 7 + s.cols));
        const auto [sources, offsets] = randomCsr(rng, s, rows);
        const int64_t edges = offsets.back();
        ASSERT_EQ(edges * s.cols >= kParallelMinWork, s.parallel);
        // Without sources, edge e reads row e: size x to the edges.
        const int64_t x_rows = indirect ? rows : edges;
        const auto x = randomValues(rng, x_rows * s.cols, 0.3);
        SCOPED_TRACE(::testing::Message()
                     << s.segments << " segments x " << s.cols
                     << " cols, " << edges << " edges");
        expectSameAtEveryPoolSize([&] {
            std::vector<float> out(size_t(s.segments * s.cols), 9.0f);
            std::vector<int64_t> argmax(out.size(), 7);
            kernels::gatherAggregate(
                x.data(), x_rows, s.cols,
                indirect ? sources.data() : nullptr, offsets.data(),
                s.segments, reduce, out.data(),
                reduce == Reduce::Max ? argmax.data() : nullptr);
            Bytes bytes;
            appendBytes(bytes, out);
            if (reduce == Reduce::Max)
                appendBytes(bytes, argmax);
            return bytes;
        });
    }
}

TEST_P(KernelLanes, GatherAggregateSumIdenticalAtEveryPoolSize)
{
    expectAggregateIdentical(Reduce::Sum, true);
    expectAggregateIdentical(Reduce::Sum, false);
}

TEST_P(KernelLanes, GatherAggregateMeanIdenticalAtEveryPoolSize)
{
    expectAggregateIdentical(Reduce::Mean, true);
}

TEST_P(KernelLanes, GatherAggregateMaxAndArgmaxIdenticalAtEveryPoolSize)
{
    expectAggregateIdentical(Reduce::Max, true);
    expectAggregateIdentical(Reduce::Max, false);
}

TEST_P(KernelLanes, GatherRowsIdenticalAtEveryPoolSize)
{
    Rng rng(21);
    const int64_t rows = 5000;
    for (const int64_t cols : {int64_t(45), int64_t(602)}) {
        const auto x = randomValues(rng, rows * cols);
        for (const int64_t count :
             {kParallelMinWork / cols - 1, kParallelMinWork / cols + 7}) {
            std::vector<int64_t> indices(static_cast<size_t>(count));
            for (auto& index : indices)
                index = rng.uniformInt(rows);
            SCOPED_TRACE(::testing::Message()
                         << count << " rows x " << cols << " cols");
            expectSameAtEveryPoolSize([&] {
                std::vector<float> out(size_t(count * cols));
                kernels::gatherRows(x.data(), rows, cols,
                                    indices.data(), count, out.data());
                Bytes bytes;
                appendBytes(bytes, out);
                return bytes;
            });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, KernelLanes,
                         ::testing::Values(KernelMode::Scalar,
                                           KernelMode::Avx2),
                         [](const auto& info) {
                             return std::string(
                                 kernels::kernelModeName(info.param));
                         });

// -------------------------------------------------------------------
// Nested calls: the trainer's prefetch lane runs gatherRows inside a
// pool task while the training thread runs its own parallel kernels.

TEST(KernelLanesNested, ParallelKernelsInsidePoolTasks)
{
    Rng rng(31);
    const int64_t m = 1500, k = 128, n = 96;
    const auto a = randomValues(rng, m * k, 0.5);
    const auto b = randomValues(rng, k * n);
    const int64_t rows = 3000, count = kParallelMinWork / k + 1;
    const auto x = randomValues(rng, rows * k);
    std::vector<int64_t> indices(static_cast<size_t>(count));
    for (auto& index : indices)
        index = rng.uniformInt(rows);
    ASSERT_GE(m * k * n, kParallelMinWork);

    auto gemm = [&] {
        std::vector<float> c(size_t(m * n), 1.0f);
        kernels::gemm(a.data(), b.data(), c.data(), m, k, n);
        return c;
    };
    auto gather = [&] {
        std::vector<float> out(size_t(count * k));
        kernels::gatherRows(x.data(), rows, k, indices.data(), count,
                            out.data());
        return out;
    };
    ThreadPool::setGlobalThreads(1);
    const auto gemm_ref = gemm();
    const auto gather_ref = gather();

    for (const int32_t lanes : {2, 4, 8}) {
        ThreadPool::setGlobalThreads(lanes);
        ThreadPool& pool = ThreadPool::global();
        for (int round = 0; round < 4; ++round) {
            // A submitted task (the prefetch shape) overlapping a
            // parallel kernel on the calling thread.
            auto prefetch = pool.submit([&] {
                return std::make_pair(gather(), gemm());
            });
            EXPECT_EQ(gemm(), gemm_ref) << lanes << " lanes";
            const auto [nested_gather, nested_gemm] = prefetch.get();
            EXPECT_EQ(nested_gather, gather_ref) << lanes << " lanes";
            EXPECT_EQ(nested_gemm, gemm_ref) << lanes << " lanes";
        }
        // Parallel kernels from inside every chunk of a parallelFor.
        std::vector<std::vector<float>> per_chunk(6);
        pool.parallelFor(0, 6, 1, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                per_chunk[size_t(i)] = i % 2 ? gemm() : gather();
        });
        for (size_t i = 0; i < per_chunk.size(); ++i)
            EXPECT_EQ(per_chunk[i], i % 2 ? gemm_ref : gather_ref)
                << lanes << " lanes, chunk " << i;
    }
    ThreadPool::setGlobalThreads(1);
}

// -------------------------------------------------------------------
// End to end: training is bit-identical at every lane count.

/** Per-epoch losses and the trained parameters' bytes. */
struct TrainingRun
{
    std::vector<double> losses;
    Bytes parameters;
    int64_t parallelFors = 0;
};

class KernelLanesTraining : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // arxiv_like's 128 features and a 64-wide hidden layer put
        // the layer-1 GEMMs and aggregations far above the serial
        // threshold, so every lane count > 1 really splits them.
        dataset_ = new Dataset(loadCatalogDataset("arxiv_like", 0.2, 5));
        NeighborSampler sampler(dataset_->graph, {5, 10}, 6);
        std::vector<int64_t> seeds(dataset_->trainNodes.begin(),
                                   dataset_->trainNodes.begin() + 600);
        const auto full = sampler.sample(seeds);
        BettyPartitioner partitioner;
        micros_ = new std::vector<MultiLayerBatch>(
            extractMicroBatches(full, partitioner.partition(full, 2)));
    }

    static void
    TearDownTestSuite()
    {
        delete micros_;
        delete dataset_;
        micros_ = nullptr;
        dataset_ = nullptr;
    }

    void TearDown() override
    {
        ThreadPool::setGlobalThreads(1);
        kernels::setKernelMode(KernelMode::Scalar);
    }

    /** Two pipelined epochs of 2-layer SAGE from a fixed init. */
    static TrainingRun
    train(int32_t lanes, KernelMode mode)
    {
        ThreadPool::setGlobalThreads(lanes);
        kernels::setKernelMode(mode);
        obs::Metrics::setEnabled(true);
        obs::Counter& parallel_fors =
            obs::Metrics::counter("pool.parallel_fors");
        const int64_t fors_before = parallel_fors.value();

        // The device outlives every tensor allocated under its scope.
        DeviceMemoryModel device(0);
        DeviceMemoryModel::Scope scope(device);
        SageConfig cfg;
        cfg.inputDim = dataset_->featureDim();
        cfg.hiddenDim = 64;
        cfg.numClasses = dataset_->numClasses;
        cfg.numLayers = 2;
        cfg.seed = 9;
        GraphSage model(cfg);
        Adam adam(model.parameters(), 0.01f);
        TransferModel transfer;
        Trainer trainer(*dataset_, model, adam, &device, &transfer);
        trainer.setPipeline(true);

        TrainingRun run;
        for (int epoch = 0; epoch < 2; ++epoch)
            run.losses.push_back(trainer.trainMicroBatches(*micros_).loss);
        for (const auto& param : model.parameters()) {
            const auto* raw = reinterpret_cast<const unsigned char*>(
                param->value.data());
            run.parameters.insert(
                run.parameters.end(), raw,
                raw + param->value.numel() * int64_t(sizeof(float)));
        }
        run.parallelFors = parallel_fors.value() - fors_before;
        return run;
    }

    static Dataset* dataset_;
    static std::vector<MultiLayerBatch>* micros_;
};

Dataset* KernelLanesTraining::dataset_ = nullptr;
std::vector<MultiLayerBatch>* KernelLanesTraining::micros_ = nullptr;

TEST_F(KernelLanesTraining, LossesAndParametersIdenticalAtEveryLaneCount)
{
    for (const KernelMode mode : {KernelMode::Auto, KernelMode::Scalar}) {
        SCOPED_TRACE(kernels::kernelModeName(mode));
        const TrainingRun serial = train(1, mode);
        EXPECT_EQ(serial.parallelFors, 0);
        for (const int32_t lanes : {2, 4, 8}) {
            const TrainingRun parallel = train(lanes, mode);
            EXPECT_GT(parallel.parallelFors, 0)
                << "no kernel crossed the serial threshold";
            EXPECT_EQ(parallel.losses, serial.losses)
                << lanes << " lanes";
            ASSERT_EQ(parallel.parameters.size(),
                      serial.parameters.size());
            EXPECT_EQ(std::memcmp(parallel.parameters.data(),
                                  serial.parameters.data(),
                                  serial.parameters.size()),
                      0)
                << "parameters differ at " << lanes << " lanes";
        }
    }
}

} // namespace
} // namespace betty
