/**
 * @file
 * Unified performance-telemetry driver: runs the registered bench
 * scenarios under the warmup+repeats discipline of
 * obs/perf/bench_harness.h and writes one schema-versioned
 * BENCH_report.json that `betty_report bench-diff` gates wall-clock
 * regressions against (the committed baseline lives in
 * bench/baselines/bench_seed.json).
 *
 *   betty_bench --list
 *   betty_bench [--scenario=NAME ...] [--repeats=N] [--warmup=N]
 *               [--threads=N] [--out=FILE]
 *               [--flight-recorder-out=FILE]
 *               [--trace-out=FILE] [--critpath-out=FILE]
 *               [--trace-ring=N]
 *
 * --trace-out enables span collection and writes the Chrome trace of
 * the LAST timed repeat of the last scenario run (the harness clears
 * the trace between repeats so each repeat's buffers start empty);
 * --critpath-out runs the critical-path analysis over those same
 * spans and writes CRITPATH_report.json. --trace-ring overrides the
 * per-thread ring capacity (BETTY_TRACE_RING); a run that still
 * drops events warns naming both knobs.
 *
 * Scenarios cover the pipeline stages the paper measures: neighbour
 * sampling, batch-level partitioning (REG construction), a cold
 * memory-aware K search and a later epoch's warm-started one, an
 * epoch of micro-batched training with and without the feature
 * cache, and a fault-injected resilient epoch that re-plans
 * K -> K+1. Each repeat
 * rebuilds model/optimizer state so every repeat does identical
 * work; datasets and sampled batches are built once per scenario in
 * untimed setup. All numeric flags are parsed strictly
 * (util/env_config.h) — a malformed value is fatal, never silently
 * zero.
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cache/feature_cache.h"
#include "core/betty.h"
#include "data/catalog.h"
#include "kernels/dispatch.h"
#include "memory/device_memory.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "obs/critpath/critical_path.h"
#include "obs/critpath/critpath_report.h"
#include "obs/critpath/span_graph.h"
#include "obs/perf/bench_harness.h"
#include "obs/perf/flight_recorder.h"
#include "obs/trace.h"
#include "partition/partitioner.h"
#include "robustness/resilient_trainer.h"
#include "sampling/neighbor_sampler.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/env_config.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

/** Shared per-scenario state built in untimed setup. */
struct Workload
{
    std::unique_ptr<Dataset> dataset;
    MultiLayerBatch full;
    std::vector<MultiLayerBatch> micros;
    // The plan_search scenario's model and device budget.
    GnnSpec spec;
    int64_t capacity = 0;
    // plan_warm_epoch: the second epoch's batch, and the K and the
    // partitioner state the first epoch's plan left behind.
    MultiLayerBatch next;
    int32_t lastK = 1;
    WarmStartState warm;

    void
    reset()
    {
        dataset.reset();
        full = MultiLayerBatch();
        micros.clear();
        next = MultiLayerBatch();
        warm = WarmStartState();
    }
};

Workload g_work;

SageConfig
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

/** Load dataset + sample one batch (the setup every scenario shares). */
void
setupBatch(const char* dataset_name, double scale, size_t num_seeds,
           const std::vector<int64_t>& fanouts = {4, 6})
{
    g_work.reset();
    g_work.dataset = std::make_unique<Dataset>(
        loadCatalogDataset(dataset_name, scale, 11));
    NeighborSampler sampler(g_work.dataset->graph, fanouts, 12);
    const auto& train = g_work.dataset->trainNodes;
    std::vector<int64_t> seeds(
        train.begin(),
        train.begin() + std::min(train.size(), num_seeds));
    g_work.full = sampler.sample(seeds);
}

/** setupBatch + partition into K micro-batches. */
void
setupMicros(const char* dataset_name, double scale, size_t num_seeds,
            int32_t k)
{
    setupBatch(dataset_name, scale, num_seeds);
    BettyPartitioner partitioner;
    g_work.micros = extractMicroBatches(
        g_work.full, partitioner.partition(g_work.full, k));
}

/** setupBatch + a budget whose Table-3 lower bound on K is 8: each
 * micro-batch has room for an eighth of the batch's non-fixed bytes,
 * so the search answer is K >= 8. */
void
setupPlanSearch(const char* dataset_name, double scale, size_t num_seeds,
                const std::vector<int64_t>& fanouts = {4, 6})
{
    setupBatch(dataset_name, scale, num_seeds, fanouts);
    g_work.spec = GraphSage(sageConfig(*g_work.dataset)).memorySpec();
    const MemoryEstimate est = estimateBatchMemory(g_work.full, g_work.spec);
    const int64_t fixed =
        est.parameters + est.gradients + est.optimizerStates;
    g_work.capacity = fixed + (est.peak - fixed) / 8;
}

/** A cold memory-aware K search: a fresh partitioner, K from 1. */
void
runPlanSearch()
{
    MemoryAwarePlanner planner(g_work.spec, g_work.capacity);
    BettyPartitioner partitioner;
    const PlanResult plan = planner.plan(g_work.full, partitioner);
    BETTY_ASSERT(plan.fits && plan.k >= 8, "plan_search must fit at K >= 8");
}

/** setupPlanSearch at train_cli's default fanout + the first
 * epoch's plan, then a resampled second batch over the same output
 * nodes. */
void
setupPlanWarmEpoch(const char* dataset_name, double scale,
                   size_t num_seeds)
{
    const std::vector<int64_t> fanouts = {5, 10};
    setupPlanSearch(dataset_name, scale, num_seeds, fanouts);
    MemoryAwarePlanner planner(g_work.spec, g_work.capacity);
    BettyPartitioner partitioner;
    g_work.lastK = planner.plan(g_work.full, partitioner).k;
    g_work.warm = partitioner.warmState();
    const auto outputs = g_work.full.outputNodes();
    NeighborSampler sampler(g_work.dataset->graph, fanouts, 13);
    g_work.next = sampler.sample(
        std::vector<int64_t>(outputs.begin(), outputs.end()));
}

/** The second epoch's plan: a partitioner holding the first epoch's
 * state builds the new batch's REG and warm-starts at the last K. */
void
runPlanWarmEpoch()
{
    MemoryAwarePlanner planner(g_work.spec, g_work.capacity);
    BettyPartitioner partitioner;
    partitioner.setWarmState(g_work.warm);
    const PlanResult plan =
        planner.plan(g_work.next, partitioner, g_work.lastK);
    BETTY_ASSERT(plan.fits, "plan_warm_epoch must fit");
}

/** One epoch of micro-batched training from a fresh model. */
void
runTrainEpoch(bool cached)
{
    const Dataset& ds = *g_work.dataset;
    DeviceMemoryModel device(envcfg::deviceCapacityBytes());
    DeviceMemoryModel::Scope scope(device);
    GraphSage model(sageConfig(ds));
    Adam adam(model.parameters(), 0.01f);
    TransferModel transfer;
    Trainer trainer(ds, model, adam, &device, &transfer);
    std::unique_ptr<FeatureCache> cache;
    if (cached) {
        const int64_t row_bytes =
            ds.featureDim() * int64_t(sizeof(float));
        cache = std::make_unique<FeatureCache>(
            &device, envcfg::cacheCapacityBytes(), row_bytes);
        trainer.setFeatureCache(cache.get());
    }
    // Two epochs so the cached variant actually hits rows the first
    // epoch inserted; the uncached twin runs the same work for a fair
    // wall-clock comparison.
    for (int epoch = 0; epoch < 2; ++epoch)
        trainer.trainMicroBatches(g_work.micros);
}

/** Two multi-device epochs: micro-batches sharded over 4 simulated
 * devices by the vertex-cut assignment, gradients combined with a
 * ring all-reduce before each optimizer step. Numerics identical to
 * runTrainEpoch; only placement and simulated accounting differ. */
void
runTrainEpochMultiDevice()
{
    const Dataset& ds = *g_work.dataset;
    GraphSage model(sageConfig(ds));
    Adam adam(model.parameters(), 0.01f);
    MultiDeviceConfig config;
    config.numDevices = 4;
    config.deviceCapacityBytes = envcfg::deviceCapacityBytes();
    MultiDeviceEngine engine(ds, model, adam, config);
    for (int epoch = 0; epoch < 2; ++epoch)
        engine.trainMicroBatches(g_work.micros);
}

/** A fault-injected resilient epoch: injected OOM forces K -> K+1. */
void
runResilientRecovery()
{
    const Dataset& ds = *g_work.dataset;
    fault::FaultPlan plan;
    std::string error;
    if (!fault::FaultPlan::parse("oom@epoch1.mb0", plan, &error))
        fatal("bench fault spec rejected: ", error);
    fault::Injector::install(std::move(plan));

    DeviceMemoryModel device(envcfg::deviceCapacityBytes());
    DeviceMemoryModel::Scope scope(device);
    GraphSage model(sageConfig(ds));
    Adam adam(model.parameters(), 0.01f);
    TransferModel transfer;
    Trainer trainer(ds, model, adam, &device, &transfer);
    trainer.setPipeline(false);
    BettyPartitioner partitioner;
    ResilientTrainer resilient(trainer, model.memorySpec(),
                               partitioner, &device);
    resilient.trainEpoch(g_work.full, 1, 1);
    fault::Injector::clear();
}

std::vector<obs::BenchScenario>
registeredScenarios()
{
    std::vector<obs::BenchScenario> scenarios;

    scenarios.push_back(
        {"sample", "multi-layer neighbour sampling, cora_like",
         [] { setupBatch("cora_like", 0.5, 256); },
         [] {
             NeighborSampler sampler(g_work.dataset->graph, {4, 6},
                                     12);
             const auto& train = g_work.dataset->trainNodes;
             std::vector<int64_t> seeds(
                 train.begin(),
                 train.begin() +
                     std::min<size_t>(train.size(), 256));
             sampler.sample(seeds);
         },
         [] { g_work.reset(); }});

    scenarios.push_back(
        {"partition",
         "betty batch-level partitioning (REG) at K=8, cora_like",
         [] { setupBatch("cora_like", 0.5, 256); },
         [] {
             BettyPartitioner partitioner;
             partitioner.partition(g_work.full, 8);
         },
         [] { g_work.reset(); }});

    scenarios.push_back(
        {"plan_search",
         "cold memory-aware K search from K=1, fresh partitioner, "
         "answer K>=8, arxiv_like",
         [] { setupPlanSearch("arxiv_like", 0.1, 1024); },
         [] { runPlanSearch(); }, [] { g_work.reset(); }});

    scenarios.push_back(
        {"plan_warm_epoch",
         "a resampled second epoch's K search, warm-started from the "
         "first epoch's plan, arxiv_like",
         [] { setupPlanWarmEpoch("arxiv_like", 0.1, 1024); },
         [] { runPlanWarmEpoch(); }, [] { g_work.reset(); }});

    scenarios.push_back(
        {"train_epoch",
         "2 epochs of micro-batched SAGE training, K=4, cora_like",
         [] { setupMicros("cora_like", 0.5, 256, 4); },
         [] { runTrainEpoch(false); }, [] { g_work.reset(); }});

    scenarios.push_back(
        {"train_epoch_simd",
         "same epochs on the AVX2 kernel backend (BETTY_KERNELS="
         "auto; falls back to scalar off-AVX2, docs/KERNELS.md)",
         [] {
             setupMicros("cora_like", 0.5, 256, 4);
             kernels::setKernelMode(kernels::KernelMode::Auto);
         },
         [] { runTrainEpoch(false); },
         [] {
             kernels::setKernelMode(kernels::KernelMode::Scalar);
             g_work.reset();
         }});

    scenarios.push_back(
        {"train_epoch_cached",
         "same epochs with the device feature cache installed",
         [] { setupMicros("cora_like", 0.5, 256, 4); },
         [] { runTrainEpoch(true); }, [] { g_work.reset(); }});

    scenarios.push_back(
        {"train_epoch_multi_device",
         "same epochs sharded over 4 simulated devices (vertex-cut "
         "+ ring all-reduce), K=8",
         [] { setupMicros("cora_like", 0.5, 256, 8); },
         [] { runTrainEpochMultiDevice(); }, [] { g_work.reset(); }});

    scenarios.push_back(
        {"resilient_recovery",
         "fault-injected epoch: injected OOM, re-plan K=1 -> K=2",
         [] { setupBatch("cora_like", 0.5, 128); },
         [] { runResilientRecovery(); }, [] { g_work.reset(); }});

    return scenarios;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: betty_bench [--list] [--scenario=NAME ...]\n"
        "                   [--repeats=N] [--warmup=N] [--threads=N]\n"
        "                   [--out=FILE] "
        "[--flight-recorder-out=FILE]\n"
        "                   [--trace-out=FILE] [--critpath-out=FILE]"
        " [--trace-ring=N]\n");
    return 2;
}

} // namespace
} // namespace betty

int
main(int argc, char** argv)
{
    using namespace betty;

    obs::BenchConfig config;
    config.repeats = 3;
    config.warmup = 1;
    std::vector<std::string> wanted;
    std::string out_path = "BENCH_report.json";
    std::string flight_out;
    std::string trace_out;
    std::string critpath_out;
    std::string trace_ring_flag;
    bool list_only = false;
    int32_t threads = 0;

    auto intValue = [](const char* flag, const char* text) {
        int64_t parsed = 0;
        if (!envcfg::parseInt(text, &parsed) || parsed < 0)
            fatal("malformed ", flag, "='", text,
                  "': expected an integer >= 0");
        return parsed;
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--list") == 0)
            list_only = true;
        else if (std::strncmp(arg, "--scenario=", 11) == 0)
            wanted.emplace_back(arg + 11);
        else if (std::strncmp(arg, "--repeats=", 10) == 0)
            config.repeats =
                int32_t(intValue("--repeats", arg + 10));
        else if (std::strncmp(arg, "--warmup=", 9) == 0)
            config.warmup = int32_t(intValue("--warmup", arg + 9));
        else if (std::strncmp(arg, "--threads=", 10) == 0)
            threads = int32_t(intValue("--threads", arg + 10));
        else if (std::strncmp(arg, "--out=", 6) == 0)
            out_path = arg + 6;
        else if (std::strncmp(arg, "--flight-recorder-out=", 22) == 0)
            flight_out = arg + 22;
        else if (std::strncmp(arg, "--trace-out=", 12) == 0)
            trace_out = arg + 12;
        else if (std::strncmp(arg, "--critpath-out=", 15) == 0)
            critpath_out = arg + 15;
        else if (std::strncmp(arg, "--trace-ring=", 13) == 0)
            trace_ring_flag = arg + 13;
        else
            return usage();
    }
    if (config.repeats < 1)
        fatal("--repeats must be >= 1 (got ", config.repeats, ")");

    const auto scenarios = registeredScenarios();
    if (list_only) {
        for (const auto& s : scenarios)
            std::printf("%-20s %s\n", s.name.c_str(),
                        s.description.c_str());
        return 0;
    }

    if (threads > 0)
        ThreadPool::setGlobalThreads(threads);
    if (!flight_out.empty())
        obs::FlightRecorder::setFatalDumpPath(flight_out);
    const int64_t trace_ring =
        envcfg::resolveInt(trace_ring_flag, "--trace-ring",
                           "BETTY_TRACE_RING", 1 << 16);
    if (trace_ring < 1)
        fatal("--trace-ring must be at least 1");
    obs::Trace::setRingCapacity(size_t(trace_ring));
    if (!trace_out.empty() || !critpath_out.empty()) {
        obs::Trace::setEnabled(true);
        obs::Trace::nameCurrentLane("main");
    }

    obs::BenchRunner runner(config);
    runner.setConfigNote("threads",
                         std::to_string(ThreadPool::globalThreads()));
    runner.setConfigNote("bench_scale",
                         std::to_string(envcfg::benchScale()));

    for (const auto& scenario : scenarios) {
        if (!wanted.empty()) {
            bool hit = false;
            for (const auto& name : wanted)
                hit = hit || name == scenario.name;
            if (!hit)
                continue;
        }
        std::printf("betty_bench: %s (%d warmup + %d repeats)\n",
                    scenario.name.c_str(), config.warmup,
                    config.repeats);
        std::fflush(stdout);
        runner.run(scenario);
    }
    if (runner.scenarioCount() == 0)
        fatal("no scenario matched; try --list");

    if (!runner.writeJson(out_path))
        fatal("cannot write '", out_path, "'");
    std::printf("betty_bench: wrote %s (%lld scenario(s))\n",
                out_path.c_str(), (long long)runner.scenarioCount());

    if (!flight_out.empty()) {
        if (obs::FlightRecorder::writeJson(flight_out))
            std::printf("betty_bench: wrote %s\n",
                        flight_out.c_str());
        else
            warn("could not write flight recording '", flight_out,
                 "'");
    }

    // The harness clears the trace between repeats, so what is left
    // in the buffers here is the last timed repeat of the last
    // scenario — one clean, representative recording.
    if (!trace_out.empty()) {
        if (obs::Trace::writeChromeTrace(trace_out))
            std::printf("betty_bench: wrote %s\n", trace_out.c_str());
        else
            warn("could not write trace '", trace_out, "'");
    }
    if (obs::Trace::enabled() && obs::Trace::droppedEvents() > 0)
        warn("trace dropped ", obs::Trace::droppedEvents(),
             " event(s) to the per-thread ring (capacity ",
             trace_ring, "); raise BETTY_TRACE_RING or "
             "--trace-ring for a lossless trace");
    if (!critpath_out.empty()) {
        namespace critpath = obs::critpath;
        critpath::SpanGraph graph = critpath::buildFromLiveTrace();
        critpath::CritpathError error;
        critpath::SegmentGraph segments;
        if (!critpath::validateSpanGraph(&graph, &error) ||
            !critpath::buildSegmentGraph(graph, &segments, &error)) {
            warn("critpath analysis failed (",
                 critpath::critpathErrorKindName(error.kind), "): ",
                 error.message);
        } else {
            const critpath::CriticalPathResult result =
                critpath::analyzeCriticalPath(graph, segments);
            if (critpath::writeCritpathReport(critpath_out, graph,
                                              result, {}))
                std::printf("betty_bench: wrote %s\n",
                            critpath_out.c_str());
            else
                warn("could not write critpath report '",
                     critpath_out, "'");
        }
    }
    return 0;
}
