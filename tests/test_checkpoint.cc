/**
 * @file
 * Checkpoint/resume (robustness/checkpoint.h): the kill-and-resume
 * contract — training E epochs straight produces bit-identical
 * parameters and loss trajectory to training E1 epochs, checkpointing,
 * constructing a FRESH process state, restoring, and training the
 * remaining epochs — plus the Adam round-trip and the typed rejection
 * of truncated/corrupted/mismatched checkpoint files.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/catalog.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "partition/partitioner.h"
#include "robustness/checkpoint.h"
#include "sampling/neighbor_sampler.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/fault.h"

namespace betty {
namespace {

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + "/" + name;
}

uint64_t
hashParameters(const GnnModel& model)
{
    uint64_t hash = 1469598103934665603ull;
    for (const auto& param : model.parameters())
        for (int64_t i = 0; i < param->value.numel(); ++i) {
            uint32_t bits;
            std::memcpy(&bits, &param->value.data()[i],
                        sizeof(bits));
            hash = (hash ^ bits) * 1099511628211ull;
        }
    return hash;
}

/** A process state: everything train_cli builds before its epoch
 * loop. Construct a fresh one to simulate a kill + restart. */
struct Process
{
    Process(const Dataset& ds, int64_t capacity)
        : dataset(ds), model(sageConfig(ds)),
          adam(model.parameters(), 0.01f), device(capacity),
          trainer(dataset, model, adam, &device, &transfer)
    {
    }

    static SageConfig
    sageConfig(const Dataset& ds)
    {
        SageConfig cfg;
        cfg.inputDim = ds.featureDim();
        cfg.hiddenDim = 16;
        cfg.numClasses = ds.numClasses;
        cfg.numLayers = 2;
        cfg.seed = 5;
        return cfg;
    }

    /** One train_cli-style epoch: fresh per-epoch sampler (sampling
     * is a pure function of the epoch seed, which makes resume
     * trivial), plan, accumulate, step. Returns the epoch loss. */
    double
    runEpoch(int epoch, int32_t& last_k)
    {
        NeighborSampler sampler(dataset.graph, {4, 6},
                                uint64_t(epoch));
        std::vector<int64_t> seeds(dataset.trainNodes.begin(),
                                   dataset.trainNodes.begin() + 120);
        const auto full = sampler.sample(seeds);
        MemoryAwarePlanner planner(model.memorySpec(),
                                   device.capacity());
        const auto plan = planner.plan(full, partitioner, last_k);
        EXPECT_TRUE(plan.fits);
        last_k = plan.k;
        DeviceMemoryModel::Scope scope(device);
        return trainer.trainMicroBatches(plan.microBatches).loss;
    }

    const Dataset& dataset;
    GraphSage model;
    Adam adam;
    DeviceMemoryModel device;
    TransferModel transfer;
    Trainer trainer;
    BettyPartitioner partitioner;
};

struct CheckpointEnv : public ::testing::Test
{
    static const Dataset&
    dataset()
    {
        static Dataset ds = loadCatalogDataset("cora_like", 0.2, 11);
        return ds;
    }

    /** A device capacity that forces K > 1 but always fits: 70% of
     * the estimated peak of the unsplit epoch-1 batch. */
    static int64_t
    capacity()
    {
        static int64_t bytes = [] {
            NeighborSampler sampler(dataset().graph, {4, 6}, 1);
            std::vector<int64_t> seeds(
                dataset().trainNodes.begin(),
                dataset().trainNodes.begin() + 120);
            const auto full = sampler.sample(seeds);
            GraphSage model(Process::sageConfig(dataset()));
            BettyPartitioner partitioner;
            MemoryAwarePlanner probe(model.memorySpec(), 0);
            const auto plan = probe.plan(full, partitioner, 1);
            return int64_t(double(plan.maxEstimatedPeak) * 0.7);
        }();
        return bytes;
    }
};

TEST_F(CheckpointEnv, KillAndResumeIsBitIdentical)
{
    const std::string path = tmpPath("resume.ckpt");
    constexpr int kTotalEpochs = 4;
    constexpr int kKillAfter = 2;

    // Reference: one process, all epochs.
    std::vector<double> straight_losses;
    uint64_t straight_hash = 0;
    {
        Process p(dataset(), capacity());
        int32_t last_k = 1;
        for (int epoch = 1; epoch <= kTotalEpochs; ++epoch)
            straight_losses.push_back(p.runEpoch(epoch, last_k));
        straight_hash = hashParameters(p.model);
    }

    // First life: train, checkpoint, "die".
    int32_t saved_k = 1;
    {
        Process p(dataset(), capacity());
        int32_t last_k = 1;
        std::vector<double> losses;
        for (int epoch = 1; epoch <= kKillAfter; ++epoch)
            losses.push_back(p.runEpoch(epoch, last_k));
        for (int i = 0; i < kKillAfter; ++i)
            EXPECT_EQ(losses[size_t(i)], straight_losses[size_t(i)]);
        auto checkpoint = captureCheckpoint(
            p.model, p.adam, kKillAfter, last_k,
            uint64_t(kKillAfter), 0);
        // The straight run warm-starts epoch 3 from epoch 2's parts.
        checkpoint.warmStart = p.partitioner.warmState();
        ASSERT_TRUE(saveCheckpoint(checkpoint, path).ok());
        saved_k = last_k;
    }

    // Second life: fresh process state, restore, finish the run.
    {
        Process p(dataset(), capacity());
        TrainCheckpoint checkpoint;
        ASSERT_TRUE(loadCheckpoint(checkpoint, path).ok());
        ASSERT_TRUE(
            restoreCheckpoint(checkpoint, p.model, p.adam).ok());
        p.partitioner.setWarmState(checkpoint.warmStart);
        EXPECT_EQ(checkpoint.epochsCompleted, kKillAfter);
        EXPECT_EQ(checkpoint.lastK, saved_k);

        int32_t last_k = int32_t(checkpoint.lastK);
        for (int epoch = kKillAfter + 1; epoch <= kTotalEpochs;
             ++epoch) {
            const double loss = p.runEpoch(epoch, last_k);
            EXPECT_EQ(loss, straight_losses[size_t(epoch - 1)])
                << "loss diverged at resumed epoch " << epoch;
        }
        EXPECT_EQ(hashParameters(p.model), straight_hash);
    }
    std::remove(path.c_str());
}

TEST_F(CheckpointEnv, MultiDeviceDropThenKillAndResume)
{
    // Checkpoint/resume x multi-device: a 4-device run loses device 1
    // in epoch 1, checkpoints after epoch 1, "dies", and resumes on a
    // FRESH engine sized to the survivors. Checkpoints deliberately
    // persist no device state — placement never touches numerics, so
    // the resumed run must stay bit-identical to the uninterrupted
    // survivor run (and, transitively, to every other placement).
    const std::string path = tmpPath("multi_resume.ckpt");
    constexpr int kTotalEpochs = 4;
    constexpr int kKillAfter = 1;

    // One fixed micro-batch set for every epoch, as in
    // test_multi_device_equivalence.cc — the sampler contract is
    // proven there; this test isolates the checkpoint story.
    NeighborSampler sampler(dataset().graph, {4, 6}, 12);
    std::vector<int64_t> seeds(dataset().trainNodes.begin(),
                               dataset().trainNodes.begin() + 160);
    BettyPartitioner partitioner;
    const auto full = sampler.sample(seeds);
    const auto micros =
        extractMicroBatches(full, partitioner.partition(full, 8));

    auto makeModel = [&] {
        return GraphSage(Process::sageConfig(dataset()));
    };
    auto installDrop = [] {
        fault::FaultPlan plan;
        ASSERT_TRUE(fault::FaultPlan::parse("device-drop=1@epoch1",
                                            plan, nullptr));
        fault::Injector::install(std::move(plan));
    };

    // Reference: one process, drop in epoch 1, all epochs straight.
    std::vector<double> straight_losses;
    uint64_t straight_hash = 0;
    {
        GraphSage model = makeModel();
        Adam adam(model.parameters(), 0.01f);
        MultiDeviceConfig config;
        config.numDevices = 4;
        MultiDeviceEngine engine(dataset(), model, adam, config);
        installDrop();
        for (int epoch = 1; epoch <= kTotalEpochs; ++epoch) {
            const MultiDeviceStats stats =
                engine.trainEpoch(micros, epoch);
            straight_losses.push_back(stats.loss);
            if (epoch == 1) {
                EXPECT_EQ(stats.deviceDrops, 1);
                EXPECT_EQ(stats.liveDevices, 3);
            }
        }
        straight_hash = hashParameters(model);
        fault::Injector::clear();
    }

    // First life: drop, train one epoch, checkpoint, "die".
    {
        GraphSage model = makeModel();
        Adam adam(model.parameters(), 0.01f);
        MultiDeviceConfig config;
        config.numDevices = 4;
        MultiDeviceEngine engine(dataset(), model, adam, config);
        installDrop();
        for (int epoch = 1; epoch <= kKillAfter; ++epoch) {
            const double loss =
                engine.trainEpoch(micros, epoch).loss;
            EXPECT_EQ(loss, straight_losses[size_t(epoch - 1)]);
        }
        fault::Injector::clear();
        const auto checkpoint = captureCheckpoint(
            model, adam, kKillAfter, /*last_k=*/8,
            uint64_t(kKillAfter), 0);
        ASSERT_TRUE(saveCheckpoint(checkpoint, path).ok());
    }

    // Second life: fresh everything, sized to the SURVIVORS (the
    // dead device is gone from the fleet a restarted job would see).
    {
        GraphSage model = makeModel();
        Adam adam(model.parameters(), 0.01f);
        TrainCheckpoint checkpoint;
        ASSERT_TRUE(loadCheckpoint(checkpoint, path).ok());
        ASSERT_TRUE(
            restoreCheckpoint(checkpoint, model, adam).ok());
        EXPECT_EQ(checkpoint.epochsCompleted, kKillAfter);

        MultiDeviceConfig config;
        config.numDevices = 3;
        MultiDeviceEngine engine(dataset(), model, adam, config);
        for (int epoch = kKillAfter + 1; epoch <= kTotalEpochs;
             ++epoch) {
            const double loss =
                engine.trainEpoch(micros, epoch).loss;
            EXPECT_EQ(loss, straight_losses[size_t(epoch - 1)])
                << "loss diverged at resumed epoch " << epoch;
        }
        EXPECT_EQ(hashParameters(model), straight_hash);
    }
    std::remove(path.c_str());
}

TEST_F(CheckpointEnv, CaptureRestoreRoundTripsAdamState)
{
    Process p(dataset(), capacity());
    int32_t last_k = 1;
    p.runEpoch(1, last_k); // non-trivial moments + step count

    const auto checkpoint =
        captureCheckpoint(p.model, p.adam, 1, last_k, 1, 0);
    EXPECT_EQ(checkpoint.adamStepCount, p.adam.stepCount());
    ASSERT_EQ(checkpoint.params.size(),
              p.model.parameters().size());
    ASSERT_EQ(checkpoint.adamM.size(), checkpoint.params.size());

    // Restoring into a FRESH model/optimizer reproduces the hash and
    // the optimizer cursor.
    Process q(dataset(), capacity());
    ASSERT_NE(hashParameters(q.model), hashParameters(p.model));
    ASSERT_TRUE(restoreCheckpoint(checkpoint, q.model, q.adam).ok());
    EXPECT_EQ(hashParameters(q.model), hashParameters(p.model));
    EXPECT_EQ(q.adam.stepCount(), p.adam.stepCount());
    for (size_t i = 0; i < q.adam.firstMoments().size(); ++i) {
        const Tensor& a = q.adam.firstMoments()[i];
        const Tensor& b = p.adam.firstMoments()[i];
        ASSERT_TRUE(a.sameShape(b));
        for (int64_t j = 0; j < a.numel(); ++j)
            ASSERT_EQ(a.data()[j], b.data()[j]);
    }
}

TEST_F(CheckpointEnv, FileRoundTripPreservesEveryField)
{
    Process p(dataset(), capacity());
    int32_t last_k = 1;
    p.runEpoch(1, last_k);
    const std::string path = tmpPath("roundtrip.ckpt");
    const auto original =
        captureCheckpoint(p.model, p.adam, 7, 3, 42, 19);
    ASSERT_TRUE(saveCheckpoint(original, path).ok());

    TrainCheckpoint loaded;
    ASSERT_TRUE(loadCheckpoint(loaded, path).ok());
    std::remove(path.c_str());
    EXPECT_EQ(loaded.epochsCompleted, 7);
    EXPECT_EQ(loaded.lastK, 3);
    EXPECT_EQ(loaded.samplerSeed, 42u);
    EXPECT_EQ(loaded.samplerCallIndex, 19u);
    EXPECT_EQ(loaded.adamStepCount, original.adamStepCount);
    ASSERT_EQ(loaded.params.size(), original.params.size());
    for (size_t i = 0; i < loaded.params.size(); ++i)
        for (int64_t j = 0; j < loaded.params[i].numel(); ++j)
            ASSERT_EQ(loaded.params[i].data()[j],
                      original.params[i].data()[j]);
}

TEST_F(CheckpointEnv, FileRoundTripPreservesWarmStartState)
{
    Process p(dataset(), capacity());
    int32_t last_k = 1;
    p.runEpoch(1, last_k);
    ASSERT_GT(last_k, 1) << "the epoch must partition";
    auto original = captureCheckpoint(p.model, p.adam, 1, last_k, 1, 0);
    original.warmStart = p.partitioner.warmState();
    const std::string path = tmpPath("warm_state.ckpt");
    ASSERT_TRUE(saveCheckpoint(original, path).ok());

    TrainCheckpoint loaded;
    ASSERT_TRUE(loadCheckpoint(loaded, path).ok());
    std::remove(path.c_str());
    const WarmStartState& want = original.warmStart;
    const WarmStartState& got = loaded.warmStart;
    EXPECT_EQ(got.k, last_k);
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.outputs, want.outputs);
    EXPECT_EQ(got.parts, want.parts);
    EXPECT_EQ(got.coldCut, want.coldCut);
    EXPECT_EQ(got.coldEdgeWeight, want.coldEdgeWeight);
    EXPECT_EQ(got.outputs.size(), 120u);
}

TEST_F(CheckpointEnv, OldVersionIsRejected)
{
    Process p(dataset(), capacity());
    int32_t last_k = 1;
    p.runEpoch(1, last_k);
    const std::string path = tmpPath("old_version.ckpt");
    ASSERT_TRUE(
        saveCheckpoint(captureCheckpoint(p.model, p.adam, 1, last_k, 1, 0),
                       path)
            .ok());
    // Restamp the version word (after the 8-byte magic) as version 1,
    // which had no warm-start state; the payload checksum still holds.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint64_t version_one = 1;
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&version_one, sizeof(version_one), 1, f), 1u);
    std::fclose(f);
    TrainCheckpoint out;
    EXPECT_EQ(loadCheckpoint(out, path).error, IoError::BadVersion);
    std::remove(path.c_str());
}

TEST_F(CheckpointEnv, TypedLoadErrors)
{
    TrainCheckpoint out;

    // Missing file.
    EXPECT_EQ(loadCheckpoint(out, "/nonexistent/x.ckpt").error,
              IoError::NotFound);

    // Wrong magic.
    const std::string bad_magic = tmpPath("bad_magic.ckpt");
    {
        std::FILE* f = std::fopen(bad_magic.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[64] = "definitely not a checkpoint";
        std::fwrite(junk, 1, sizeof(junk), f);
        std::fclose(f);
    }
    EXPECT_EQ(loadCheckpoint(out, bad_magic).error,
              IoError::BadMagic);
    std::remove(bad_magic.c_str());

    // A valid checkpoint, then truncate / flip a bit.
    Process p(dataset(), capacity());
    int32_t last_k = 1;
    p.runEpoch(1, last_k);
    const auto checkpoint =
        captureCheckpoint(p.model, p.adam, 1, last_k, 1, 0);
    const std::string good = tmpPath("good.ckpt");
    ASSERT_TRUE(saveCheckpoint(checkpoint, good).ok());

    std::string bytes;
    {
        std::FILE* f = std::fopen(good.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buffer[1 << 12];
        size_t got;
        while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
            bytes.append(buffer, got);
        std::fclose(f);
    }
    auto writeBytes = [&](const std::string& path,
                          const std::string& data) {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(data.data(), 1, data.size(), f);
        std::fclose(f);
    };

    // Truncation breaks the checksum (or the frame itself).
    const std::string truncated = tmpPath("truncated.ckpt");
    writeBytes(truncated, bytes.substr(0, bytes.size() / 2));
    const IoStatus trunc_status = loadCheckpoint(out, truncated);
    EXPECT_TRUE(trunc_status.error == IoError::CorruptValues ||
                trunc_status.error == IoError::Truncated)
        << ioErrorName(trunc_status.error);
    std::remove(truncated.c_str());

    // Single flipped payload bit -> checksum mismatch.
    std::string corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    const std::string corrupted = tmpPath("corrupt.ckpt");
    writeBytes(corrupted, corrupt);
    EXPECT_EQ(loadCheckpoint(out, corrupted).error,
              IoError::CorruptValues);
    std::remove(corrupted.c_str());
    std::remove(good.c_str());
}

TEST_F(CheckpointEnv, RestoreIntoMismatchedModelFailsUntouched)
{
    Process p(dataset(), capacity());
    int32_t last_k = 1;
    p.runEpoch(1, last_k);
    const auto checkpoint =
        captureCheckpoint(p.model, p.adam, 1, last_k, 1, 0);

    // A differently-sized model must be refused, weights untouched.
    SageConfig cfg = Process::sageConfig(dataset());
    cfg.hiddenDim = 8;
    GraphSage other(cfg);
    Adam other_adam(other.parameters(), 0.01f);
    const uint64_t before = hashParameters(other);
    EXPECT_EQ(restoreCheckpoint(checkpoint, other, other_adam).error,
              IoError::ShapeMismatch);
    EXPECT_EQ(hashParameters(other), before);
}

} // namespace
} // namespace betty
