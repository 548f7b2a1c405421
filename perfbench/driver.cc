/**
 * @file
 * Workload driver of the repository benchmark (README.md).
 *
 * Runs whole training epochs — sample, plan, train, evaluate —
 * through the public API, the way a user of the library would:
 * loadCatalogDataset, NeighborSampler::sample, then
 * ResilientTrainer::trainEpoch on one device, or
 * MemoryAwarePlanner::plan plus MultiDeviceEngine::trainEpoch on
 * four, then Trainer::evaluate.
 *
 * A run is a sequence of sessions. Each session sets up from scratch
 * (dataset, test batch, model, optimizer) and trains a fixed number
 * of epochs, the first with a cold K search from K = 1 and the rest
 * starting from the previous epoch's K. Every session of a run uses
 * the same seed, so their per-epoch (K, loss) sequences must match
 * exactly; that is one of the output checks.
 *
 * Untraced runs (--trace 0) keep tracing and metrics collection off
 * and start sessions until --seconds have passed (at least two). They
 * report the end-to-end metrics. Traced runs (--trace 1) run one
 * untraced session and then one session with tracing and metrics on,
 * write its Chrome trace, and report per-layer metrics from
 * benchmark-side spans around the public calls, the spans the library
 * already records, and its metric counters.
 *
 * Usage:
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --out-dir DIR [--tiny]
 *   perfbench_driver --fingerprint
 *
 * --tiny shrinks every workload for the self-check. The result goes
 * to DIR/result.json; the trace of a traced run to DIR/trace.json.
 * Exit status 1 means an output check failed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/feature_cache.h"
#include "core/betty.h"
#include "core/micro_batch.h"
#include "data/catalog.h"
#include "kernels/dispatch.h"
#include "memory/device_memory.h"
#include "memory/interconnect.h"
#include "memory/transfer_model.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "robustness/resilient_trainer.h"
#include "sampling/neighbor_sampler.h"
#include "train/multi_device.h"
#include "train/trainer.h"
#include "util/env_config.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace betty;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
/** Pool lanes: the core count of the machine the workloads were
 * sized on. Fixed so results do not depend on where they run. */
constexpr int32_t kPoolLanes = 4;
/** Per-thread trace ring of a traced session: large enough that the
 * biggest workload drops no span. */
constexpr size_t kTraceRing = size_t(1) << 18;
/** A workload's graph and initial weights are fixed, like a published
 * dataset and model; the run seed draws the sampled batches. */
constexpr uint64_t kDatasetSeed = 42;
constexpr float kLearningRate = 0.01f;
/** Fewest set-up timings setup_s is the median of. */
constexpr size_t kSetupSamples = 5;

/** One benchmark workload (README.md says why each exists). */
struct Workload
{
    std::string name;
    std::string dataset;
    double scale = 1.0;
    std::vector<int64_t> fanouts;
    int64_t hidden = 0;
    double budgetMib = 0.0;
    int32_t devices = 1;
    /** Feature-cache reservation: of the device on one device, of
     * each device on several. 0 = no cache. */
    double cacheMib = 0.0;
    /** Epochs per session. */
    int epochs = 2;
    /** Distinct inputs (seed streams of sampled batches) per run; more
     * of them steady the medians where the input decides much, as the
     * epoch-1 K search does. */
    int inputs = 1;
};

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"products_plan", "products_like", 0.2, {5, 10}, 32, 64.0, 1,
         0.0, 2, 1},
        {"reddit_train", "reddit_like", 1.0, {10, 25}, 128, 4096.0, 1,
         0.05 * 1024.0, 2, 4},
        {"arxiv_multi", "arxiv_like", 0.2, {5, 10}, 32, 2.5, 4, 0.625, 8,
         3},
    };
    return all;
}

/** The workload at about a tenth of its size, for the self-check. */
Workload
tiny(Workload w)
{
    w.scale /= 10.0;
    w.budgetMib = std::max(w.budgetMib / 10.0, 0.5);
    w.cacheMib /= 10.0;
    w.epochs = 2;
    w.inputs = std::min(w.inputs, 2);
    return w;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    bool tiny = false;
    bool fingerprint = false;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return argv[++i];
        };
        int64_t number = 0;
        if (flag == "--workload") {
            args.workload = next();
        } else if (flag == "--seed") {
            if (!envcfg::parseInt(next(), &number) || number < 0)
                fatal("--seed expects a non-negative integer");
            args.seed = uint64_t(number);
        } else if (flag == "--seconds") {
            if (!envcfg::parseDouble(next(), &args.seconds) ||
                args.seconds < 0.0)
                fatal("--seconds expects a non-negative number");
        } else if (flag == "--trace") {
            if (!envcfg::parseInt(next(), &number) ||
                (number != 0 && number != 1))
                fatal("--trace expects 0 or 1");
            args.trace = number == 1;
        } else if (flag == "--out-dir") {
            args.outDir = next();
        } else if (flag == "--tiny") {
            args.tiny = true;
        } else if (flag == "--fingerprint") {
            args.fingerprint = true;
        } else {
            fatal("unknown flag '", flag, "'");
        }
    }
    return args;
}

/** splitmix64 of (seed, salt): every random input of a run is drawn
 * from its own stream of the workload seed. */
uint64_t
derive(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

/** What one epoch did, from the public return values. */
struct EpochRecord
{
    double wallS = 0.0;
    int32_t k = 0;
    int32_t probes = 0;
    int64_t replans = 0;
    double loss = 0.0;
    double testAccuracy = 0.0;
    int64_t peakBytes = 0;
    /** Planner's worst micro-batch estimate plus standing
     * reservations: the figure it checked against capacity. */
    int64_t plannedPeakBytes = 0;
    /** Over capacity or skipped: counted against fit_rate. */
    bool failed = false;
    int64_t sampledEdges = 0;
    int64_t microBatches = 0;
    double redundancy = 0.0;
    double transferSimS = 0.0;
    double allreduceSimS = 0.0;
    double duplication = 1.0;
    double deviceImbalance = 1.0;
};

struct SessionResult
{
    /** Which of the run's inputs the session trained on. */
    int input = 0;
    double setupS = 0.0;
    double loadS = 0.0;
    std::vector<EpochRecord> epochs;
    std::vector<std::string> failures;
};

/** Output check: the micro-batches cover the batch's seeds exactly
 * once. */
bool
coversSeedsOnce(const MultiLayerBatch& full,
                const std::vector<MultiLayerBatch>& micros)
{
    const auto outputs = full.outputNodes();
    std::vector<int64_t> seeds(outputs.begin(), outputs.end());
    std::vector<int64_t> covered;
    covered.reserve(seeds.size());
    for (const MultiLayerBatch& micro : micros) {
        const auto part = micro.outputNodes();
        covered.insert(covered.end(), part.begin(), part.end());
    }
    std::sort(seeds.begin(), seeds.end());
    std::sort(covered.begin(), covered.end());
    return seeds == covered;
}

/** Summed micro-batch input nodes over the full batch's. */
double
redundancyRatio(const MultiLayerBatch& full,
                const std::vector<MultiLayerBatch>& micros)
{
    const double full_inputs = double(full.inputNodes().size());
    if (full_inputs == 0.0)
        return 0.0;
    return (double(inputNodeRedundancy(full, micros)) + full_inputs) /
           full_inputs;
}

SageConfig
sageConfig(const Workload& w, const Dataset& ds)
{
    SageConfig config;
    config.inputDim = ds.featureDim();
    config.hiddenDim = w.hidden;
    config.numClasses = ds.numClasses;
    config.numLayers = int64_t(w.fanouts.size());
    config.aggregator = AggregatorKind::Mean;
    return config;
}

Dataset
timedLoad(const Workload& w, double* seconds)
{
    const auto start = Clock::now();
    Dataset ds = loadCatalogDataset(w.dataset, w.scale, kDatasetSeed);
    *seconds = secondsSince(start);
    return ds;
}

/** What a session sets up before its first epoch (setup_s): the
 * dataset, the model and optimizer, the training stack and the test
 * batch. Members are built in declaration order. */
struct Setup
{
    Setup(const Workload& w, uint64_t seed)
        : multi(w.devices > 1), budget(int64_t(w.budgetMib * kMiB)),
          cacheBytes(int64_t(w.cacheMib * kMiB)),
          ds(timedLoad(w, &loadS)),
          // One budgeted device, or an unlimited host-side model for
          // the evaluation pass when the engine owns the devices.
          device(multi ? 0 : budget), scope(device),
          model(sageConfig(w, ds)),
          adam(model.parameters(), kLearningRate),
          trainer(ds, model, adam, &device, &transfer),
          planner(model.memorySpec(), budget)
    {
        if (!multi) {
            if (cacheBytes > 0) {
                cache = std::make_unique<FeatureCache>(
                    &device, cacheBytes,
                    ds.featureDim() * int64_t(sizeof(float)),
                    CachePolicy::Lru);
                trainer.setFeatureCache(cache.get());
            }
            resilient = std::make_unique<ResilientTrainer>(
                trainer, model.memorySpec(), partitioner, &device);
            resilient->setFeatureSource(&ds.features);
            resilient->setFeatureCache(cache.get());
        } else {
            MultiDeviceConfig config;
            config.numDevices = w.devices;
            config.deviceCapacityBytes = budget;
            config.interconnect = InterconnectConfig::nvlink();
            config.cacheBytesPerDevice = cacheBytes;
            config.cachePolicy = CachePolicy::Lru;
            engine = std::make_unique<MultiDeviceEngine>(ds, model, adam,
                                                         config);
            // The per-device cache is carved out of each device's
            // budget; the planner must size micro-batches for what is
            // left.
            planner.setReservedBytes(cacheBytes);
        }
        NeighborSampler test_sampler(ds.graph, w.fanouts,
                                     derive(seed, 3));
        testBatch = test_sampler.sample(ds.testNodes);
    }

    Setup(const Setup&) = delete;
    Setup& operator=(const Setup&) = delete;

    double loadS = 0.0;
    const bool multi;
    const int64_t budget;
    const int64_t cacheBytes;
    Dataset ds;
    DeviceMemoryModel device;
    DeviceMemoryModel::Scope scope;
    GraphSage model;
    Adam adam;
    TransferModel transfer;
    Trainer trainer;
    BettyPartitioner partitioner;
    MemoryAwarePlanner planner;
    std::unique_ptr<FeatureCache> cache;
    std::unique_ptr<ResilientTrainer> resilient;
    std::unique_ptr<MultiDeviceEngine> engine;
    MultiLayerBatch testBatch;
};

/** Seconds to build a Setup (its teardown is not timed). */
double
timeSetup(const Workload& w, uint64_t seed)
{
    const auto start = Clock::now();
    auto setup = std::make_unique<Setup>(w, seed);
    const double seconds = secondsSince(start);
    setup.reset();
    return seconds;
}

/**
 * One session: set up from scratch, then train w.epochs epochs. With
 * @p traced, tracing and metrics are on for the epochs (not the
 * set-up) and the caller reads them afterwards.
 */
SessionResult
runSession(const Workload& w, uint64_t seed, bool traced)
{
    SessionResult out;
    const auto setup_start = Clock::now();
    Setup s(w, seed);
    out.setupS = secondsSince(setup_start);
    out.loadS = s.loadS;

    if (traced) {
        obs::Metrics::reset();
        obs::Metrics::setEnabled(true);
        obs::Trace::setEnabled(true);
    }
    int32_t last_k = 1;
    for (int epoch = 1; epoch <= w.epochs; ++epoch) {
        EpochRecord record;
        MultiLayerBatch full;
        ResilientEpochResult single;
        PlanResult plan;
        MultiDeviceStats stats;
        const std::vector<MultiLayerBatch>* micros = nullptr;
        const auto epoch_start = Clock::now();
        {
            obs::TraceSpan epoch_span("bench/epoch");
            {
                obs::TraceSpan span("bench/sample", "sample");
                NeighborSampler sampler(s.ds.graph, w.fanouts,
                                        derive(seed, 100 + epoch));
                full = sampler.sample(s.ds.trainNodes);
            }
            if (!s.multi) {
                obs::TraceSpan span("bench/train", "compute");
                single = s.resilient->trainEpoch(full, epoch, last_k);
            } else {
                {
                    obs::TraceSpan span("bench/plan", "partition");
                    plan = s.planner.plan(full, s.partitioner, last_k);
                }
                if (plan.fits) {
                    obs::TraceSpan span("bench/train", "compute");
                    stats = s.engine->trainEpoch(plan.microBatches, epoch);
                }
            }
            obs::TraceSpan span("bench/eval", "compute");
            record.testAccuracy = s.trainer.evaluate(s.testBatch);
        }
        record.wallS = secondsSince(epoch_start);

        // Everything below reads return values outside the timed
        // region.
        record.sampledEdges = full.totalEdges();
        if (!s.multi) {
            const PlanResult& used = single.plan;
            record.k = used.k;
            record.probes = used.attempts;
            record.replans = single.replans;
            record.loss = single.stats.loss;
            record.peakBytes = single.stats.peakBytes;
            record.plannedPeakBytes =
                used.maxEstimatedPeak +
                (s.cache ? s.cache->reservedBytes() : 0);
            record.transferSimS = single.stats.transferSeconds;
            record.failed = single.skipped || single.stats.oom;
            if (!single.skipped) {
                last_k = used.k;
                micros = &used.microBatches;
            }
        } else {
            record.k = plan.k;
            record.probes = plan.attempts;
            record.loss = stats.loss;
            record.peakBytes = stats.maxDevicePeakBytes;
            record.plannedPeakBytes = plan.maxEstimatedPeak + s.cacheBytes;
            for (const double seconds : stats.deviceTransferSeconds)
                record.transferSimS += seconds;
            record.allreduceSimS = stats.allreduceSeconds;
            record.duplication = stats.duplicationFactor;
            double busiest = 0.0;
            double total = 0.0;
            for (const double seconds : stats.deviceSeconds) {
                busiest = std::max(busiest, seconds);
                total += seconds;
            }
            if (total > 0.0)
                record.deviceImbalance =
                    busiest * double(stats.deviceSeconds.size()) / total;
            record.failed = !plan.fits || stats.oom;
            if (plan.fits) {
                last_k = plan.k;
                micros = &plan.microBatches;
            }
        }
        const std::string where = "epoch " + std::to_string(epoch);
        if (micros) {
            record.microBatches = int64_t(micros->size());
            record.redundancy = redundancyRatio(full, *micros);
            if (!coversSeedsOnce(full, *micros))
                out.failures.push_back(
                    where + ": micro-batches do not cover the batch's "
                            "seeds exactly once");
            if (!std::isfinite(record.loss))
                out.failures.push_back(where + ": loss is not finite");
        }
        if (!std::isfinite(record.testAccuracy))
            out.failures.push_back(where +
                                   ": test accuracy is not finite");
        out.epochs.push_back(record);
    }
    if (traced) {
        obs::Trace::setEnabled(false);
        obs::Metrics::setEnabled(false);
    }
    if (out.epochs.size() >= 2 &&
        !(out.epochs.back().loss < out.epochs.front().loss))
        out.failures.push_back("final loss is not below the first "
                               "epoch's loss");
    return out;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Span totals of the traced session, on the main thread's lane. */
struct SpanAccount
{
    /** Summed duration per span name, outermost occurrences only. */
    std::map<std::string, double> total;
    /** Summed self time per span name. */
    std::map<std::string, double> self;
    /** Summed self time per layer. */
    std::map<std::string, double> layerSelf;
};

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.substr(0, prefix.size()) == prefix;
}

/**
 * The layer (src/ module) whose code a span's self time is spent in;
 * nullptr for spans that belong to their caller's layer (pool tasks,
 * chunk spans and the like).
 */
const char*
layerOf(std::string_view name, bool multi)
{
    if (name == "bench/epoch")
        return "unattributed";
    if (name == "bench/sample" || startsWith(name, "sample"))
        return "sampling";
    // evaluate_k's own time is the estimator loop over the
    // micro-batches; partitioning and extraction are child spans.
    if (name == "plan/evaluate_k")
        return "memory";
    if (name == "partition/extract_micro_batches")
        return "core";
    if (startsWith(name, "partition/"))
        return "partition";
    if (name == "bench/plan" || name == "epoch/plan" ||
        startsWith(name, "plan/"))
        return "core";
    if (startsWith(name, "kernel/"))
        return "kernels";
    // Around trainEpoch: the resilient loop on one device, the
    // engine's sharding and dispatch on several.
    if (name == "bench/train")
        return multi ? "train" : "robustness";
    if (startsWith(name, "resilient/"))
        return "robustness";
    if (name == "bench/eval" || startsWith(name, "train/") ||
        startsWith(name, "multi/"))
        return "train";
    return nullptr;
}

SpanAccount
accountSpans(bool multi, int32_t main_lane)
{
    std::vector<obs::TraceEvent> events;
    for (obs::TraceEvent& event : obs::Trace::snapshot())
        if (event.lane == main_lane && event.name)
            events.push_back(event);
    // Parents before children: earlier start first, longer first on
    // a tie.
    std::sort(events.begin(), events.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                  if (a.startUs != b.startUs)
                      return a.startUs < b.startUs;
                  return a.durUs > b.durUs;
              });
    struct Open
    {
        const obs::TraceEvent* event;
        int64_t endUs;
        const char* layer;
        int64_t childUs;
    };
    SpanAccount account;
    std::vector<Open> stack;
    auto close = [&account](const Open& open) {
        const double self =
            double(std::max<int64_t>(0, open.event->durUs - open.childUs)) /
            1e6;
        account.self[open.event->name] += self;
        account.layerSelf[open.layer] += self;
    };
    for (const obs::TraceEvent& event : events) {
        while (!stack.empty() && stack.back().endUs <= event.startUs) {
            close(stack.back());
            stack.pop_back();
        }
        const char* layer = layerOf(event.name, multi);
        if (!layer)
            layer = stack.empty() ? "unattributed" : stack.back().layer;
        const int64_t end = event.startUs + event.durUs;
        bool nested_in_same_name = false;
        for (const Open& open : stack)
            nested_in_same_name |=
                std::strcmp(open.event->name, event.name) == 0;
        if (!stack.empty())
            stack.back().childUs +=
                std::min(end, stack.back().endUs) - event.startUs;
        if (!nested_in_same_name)
            account.total[event.name] += double(event.durUs) / 1e6;
        stack.push_back({&event, end, layer, 0});
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
        close(*it);
    return account;
}

/** Peak resident memory of the process so far, MiB. */
double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Median wall of the epochs after the first (the first if alone). */
double
warmEpochMedian(const std::vector<EpochRecord>& epochs)
{
    std::vector<double> walls;
    for (size_t i = epochs.size() > 1 ? 1 : 0; i < epochs.size(); ++i)
        walls.push_back(epochs[i].wallS);
    return median(walls);
}

std::vector<Metric>
endToEndMetrics(const std::vector<SessionResult>& sessions,
                std::vector<double> setups, int64_t attempted,
                int64_t failed)
{
    std::vector<double> first_epochs;
    std::vector<double> later_epochs;
    int64_t peak = 0;
    for (const SessionResult& session : sessions) {
        first_epochs.push_back(session.epochs.front().wallS);
        for (size_t i = 1; i < session.epochs.size(); ++i)
            later_epochs.push_back(session.epochs[i].wallS);
        for (const EpochRecord& epoch : session.epochs)
            peak = std::max(peak, epoch.peakBytes);
    }
    // Per input, from its first session (later ones repeat it).
    std::vector<double> final_losses;
    std::vector<double> test_accuracies;
    for (const SessionResult& session : sessions)
        if (&session == &sessions[size_t(session.input)]) {
            final_losses.push_back(session.epochs.back().loss);
            test_accuracies.push_back(session.epochs.back().testAccuracy);
        }
    return {
        {"setup_s", median(setups), "s"},
        {"epoch1_s", median(first_epochs), "s"},
        {"epoch_s", median(later_epochs), "s"},
        {"peak_device_mib", double(peak) / kMiB, "MiB"},
        {"fit_rate", 1.0 - double(failed) / double(attempted), "ratio"},
        {"final_loss", median(final_losses), "nats"},
        {"test_acc", median(test_accuracies), "ratio"},
    };
}

int64_t
counter(const char* name)
{
    return obs::Metrics::counter(name).value();
}

/** Per-layer metrics of the traced session, per epoch unless the
 * entry says otherwise. */
std::vector<Metric>
perLayerMetrics(const Workload& w, const SessionResult& untraced,
                const SessionResult& traced, const SpanAccount& spans,
                double untraced_rss_mib)
{
    const double epochs = double(traced.epochs.size());
    auto total = [&spans](const char* name) {
        const auto it = spans.total.find(name);
        return it == spans.total.end() ? 0.0 : it->second;
    };
    auto mean = [&traced, epochs](double EpochRecord::*field) {
        double sum = 0.0;
        for (const EpochRecord& epoch : traced.epochs)
            sum += epoch.*field;
        return sum / epochs;
    };
    double worst_overshoot = 0.0;
    int64_t replans = 0;
    int64_t micro_batches = 0;
    int64_t sampled_edges = 0;
    for (const EpochRecord& epoch : traced.epochs) {
        if (epoch.plannedPeakBytes > 0)
            worst_overshoot =
                std::max(worst_overshoot, double(epoch.peakBytes) /
                                              double(epoch.plannedPeakBytes));
        replans += epoch.replans;
        micro_batches += epoch.microBatches;
        sampled_edges += epoch.sampledEdges;
    }
    const double epoch_wall = total("bench/epoch");
    const bool multi = w.devices > 1;
    const double plan_s = total("plan/search");
    const double gemm_s = total("kernel/gemm") + total("kernel/gemm_ta") +
                          total("kernel/gemm_tb");
    const double gemm_gflop = double(counter("kernel.gemm.flops")) / 1e9;
    const int64_t hits = counter("cache.hits");
    const int64_t lookups = hits + counter("cache.misses");
    const auto self_it = spans.self.find("plan/evaluate_k");
    const double estimate_s =
        self_it == spans.self.end() ? 0.0 : self_it->second;
    const auto unattributed_it = spans.layerSelf.find("unattributed");
    const double unattributed = unattributed_it == spans.layerSelf.end()
                                    ? 0.0
                                    : unattributed_it->second;
    const double untraced_epoch = warmEpochMedian(untraced.epochs);

    return {
        {"data.load_s", traced.loadS, "s"},
        {"sampling.sample_s", total("bench/sample") / epochs, "s"},
        {"sampling.edges", double(sampled_edges) / epochs, "count"},
        {"partition.reg_build_s", total("partition/reg_build") / epochs,
         "s"},
        {"partition.reg_edges",
         double(counter("partition.reg_edges")) / epochs, "count"},
        {"partition.kway_s",
         (total("partition/kway") + total("partition/kway_warm")) /
             epochs,
         "s"},
        // Last partition of the session.
        {"partition.edge_cut",
         double(obs::Metrics::gauge("partition.edge_cut").value()),
         "count"},
        {"partition.reg_builds",
         double(counter("partition.reg_builds")) / epochs, "count"},
        {"core.plan_s", plan_s / epochs, "s"},
        // The cold search of epoch 1.
        {"core.probes", double(traced.epochs.front().probes), "count"},
        // K of the last epoch.
        {"core.k", double(traced.epochs.back().k), "count"},
        {"core.extract_s",
         total("partition/extract_micro_batches") / epochs, "s"},
        {"core.redundancy", mean(&EpochRecord::redundancy), "ratio"},
        {"memory.estimate_s", estimate_s / epochs, "s"},
        // Worst epoch of the session.
        {"memory.peak_over_estimate", worst_overshoot, "ratio"},
        {"memory.transfer_mib",
         double(counter("transfer.bytes")) / kMiB / epochs, "MiB"},
        {"memory.transfer_sim_s", mean(&EpochRecord::transferSimS), "s"},
        {"memory.host_rss_mib", untraced_rss_mib, "MiB"},
        {"cache.hit_ratio",
         lookups > 0 ? double(hits) / double(lookups) : 0.0, "ratio"},
        {"cache.evictions", double(counter("cache.evictions")) / epochs,
         "count"},
        {"kernels.gemm_s", gemm_s / epochs, "s"},
        {"kernels.gemm_gflop", gemm_gflop / epochs, "GFLOP"},
        {"kernels.gemm_gflops", gemm_s > 0.0 ? gemm_gflop / gemm_s : 0.0,
         "GFLOP/s"},
        {"kernels.gather_aggregate_s",
         (total("kernel/gather_aggregate") +
          total("kernel/gather_aggregate_bwd")) /
             epochs,
         "s"},
        {"kernels.agg_edges", double(counter("kernel.agg.edges")) / epochs,
         "count"},
        {"train.train_s",
         (total("bench/train") - (multi ? 0.0 : plan_s)) / epochs, "s"},
        {"train.forward_s", total("train/forward") / epochs, "s"},
        {"train.backward_s", total("train/backward") / epochs, "s"},
        {"train.eval_s", total("bench/eval") / epochs, "s"},
        {"train.pipeline_wait_s",
         (total("train/pipeline_wait") + total("multi/dispatch_wait")) /
             epochs,
         "s"},
        {"train.micro_batches", double(micro_batches) / epochs, "count"},
        {"train.allreduce_sim_s", mean(&EpochRecord::allreduceSimS), "s"},
        {"train.duplication", mean(&EpochRecord::duplication), "ratio"},
        {"train.device_imbalance", mean(&EpochRecord::deviceImbalance),
         "ratio"},
        {"robustness.replans", double(replans) / epochs, "count"},
        {"obs.trace_overhead",
         warmEpochMedian(traced.epochs) / untraced_epoch - 1.0, "ratio"},
        {"obs.layer_coverage",
         epoch_wall > 0.0 ? 1.0 - unattributed / epoch_wall : 0.0,
         "ratio"},
    };
}

double
metricValue(const std::vector<Metric>& metrics, const char* name)
{
    for (const Metric& metric : metrics)
        if (metric.name == name)
            return metric.value;
    panic("no metric '", name, "'");
}

/** Self time per layer as a share of the traced epochs' wall, with
 * the counts that explain it. */
void
printLayerTable(const SpanAccount& spans, const std::vector<Metric>& m,
                double epochs)
{
    const auto wall_it = spans.total.find("bench/epoch");
    const double wall =
        wall_it == spans.total.end() ? 0.0 : wall_it->second;
    auto v = [&m](const char* name) {
        return TablePrinter::num(metricValue(m, name), 3);
    };
    const std::map<std::string, std::string> counts = {
        {"sampling", "edges " + v("sampling.edges")},
        {"partition", "REG edges " + v("partition.reg_edges") +
                          ", builds " + v("partition.reg_builds") +
                          ", cut " + v("partition.edge_cut")},
        {"core", "probes(epoch 1) " + v("core.probes") + ", K " +
                     v("core.k") + ", redundancy " +
                     v("core.redundancy")},
        {"memory", "transfer MiB " + v("memory.transfer_mib") +
                       ", peak/planned " +
                       v("memory.peak_over_estimate") +
                       ", cache hits " + v("cache.hit_ratio")},
        {"kernels", "GEMM GFLOP " + v("kernels.gemm_gflop") + " at " +
                        v("kernels.gemm_gflops") + " GFLOP/s, agg edges " +
                        v("kernels.agg_edges")},
        {"train", "micro-batches " + v("train.micro_batches") +
                      ", pipeline wait s " + v("train.pipeline_wait_s")},
        {"robustness", "replans " + v("robustness.replans")},
    };
    TablePrinter table("per-layer self time (traced session, per epoch)");
    table.setHeader({"layer", "self s", "share %", "counts"});
    for (const char* layer :
         {"sampling", "partition", "core", "memory", "kernels", "train",
          "robustness", "unattributed"}) {
        const auto it = spans.layerSelf.find(layer);
        const double self = it == spans.layerSelf.end() ? 0.0 : it->second;
        const auto count_it = counts.find(layer);
        table.addRow({layer, TablePrinter::num(self / epochs, 4),
                      TablePrinter::num(
                          wall > 0.0 ? 100.0 * self / wall : 0.0, 1),
                      count_it == counts.end() ? "" : count_it->second});
    }
    table.addRow({"epoch wall", TablePrinter::num(wall / epochs, 4),
                  "100.0", ""});
    table.print();
}

std::string
formatNumber(double value)
{
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

bool
writeResult(const std::string& path, bool correct, int64_t attempted,
            int64_t failed, const std::vector<Metric>& metrics,
            const std::vector<std::string>& failures,
            const std::vector<SessionResult>& sessions)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json += i ? ", " : "";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                formatNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}, \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i)
        json += (i ? ", \"" : "\"") + failures[i] + "\"";
    // Per-session (K, loss) sequences, for the record.
    json += "], \"sessions\": [";
    for (size_t s = 0; s < sessions.size(); ++s) {
        json += s ? ", [" : "[";
        for (size_t e = 0; e < sessions[s].epochs.size(); ++e)
            json += (e ? ", [" : "[") +
                    std::to_string(sessions[s].epochs[e].k) + ", " +
                    formatNumber(sessions[s].epochs[e].loss) + "]";
        json += "]";
    }
    json += "]}\n";
    FILE* file = std::fopen(path.c_str(), "w");
    if (!file)
        return false;
    const bool ok = std::fwrite(json.data(), 1, json.size(), file) ==
                    json.size();
    return std::fclose(file) == 0 && ok;
}

} // namespace

int
main(int argc, char** argv)
{
    setLogLevel(LogLevel::Warn);
    ThreadPool::setGlobalThreads(kPoolLanes);
    kernels::setKernelMode(kernels::KernelMode::Auto);
    const Args args = parseArgs(argc, argv);
    if (args.fingerprint) {
        std::printf("%s\n", perfbench::fingerprintJson().c_str());
        return 0;
    }

    const Workload* found = nullptr;
    for (const Workload& w : workloads())
        if (w.name == args.workload)
            found = &w;
    if (!found)
        fatal("unknown --workload '", args.workload,
              "' (products_plan, reddit_train or arxiv_multi)");
    const Workload w = args.tiny ? tiny(*found) : *found;
    std::printf("workload %s: %s scale %g, fanout", w.name.c_str(),
                w.dataset.c_str(), w.scale);
    for (const int64_t fanout : w.fanouts)
        std::printf(" %lld", (long long)fanout);
    std::printf(", hidden %lld, budget %g MiB x %d device(s), cache "
                "%g MiB, %d epochs per session, %d input(s), seed %llu, "
                "%s\n",
                (long long)w.hidden, w.budgetMib, w.devices, w.cacheMib,
                w.epochs, w.inputs, (unsigned long long)args.seed,
                args.trace ? "traced" : "untraced");

    if (args.trace)
        obs::Trace::setRingCapacity(kTraceRing);
    const int32_t main_lane = obs::Trace::currentLane();
    std::vector<SessionResult> sessions;
    const auto run_start = Clock::now();
    // Peak resident memory through the first session, which is
    // untraced in both modes.
    double first_session_rss_mib = 0.0;
    auto run = [&](int input, bool traced) {
        sessions.push_back(
            runSession(w, derive(args.seed, uint64_t(input)), traced));
        sessions.back().input = input;
        if (sessions.size() == 1)
            first_session_rss_mib = peakRssMib();
    };
    if (args.trace) {
        run(0, false);
        run(0, true);
    } else {
        // Cycle through the inputs until time is up, and at least once
        // more through the first, so every run checks determinism.
        while (sessions.size() <= size_t(w.inputs) ||
               secondsSince(run_start) < args.seconds)
            run(int(sessions.size() % size_t(w.inputs)), false);
    }

    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> failures;
    for (size_t s = 0; s < sessions.size(); ++s) {
        const SessionResult& session = sessions[s];
        for (const std::string& failure : session.failures)
            failures.push_back("session " + std::to_string(s + 1) + ", " +
                               failure);
        const SessionResult& first = sessions[size_t(session.input)];
        bool same = session.epochs.size() == first.epochs.size();
        for (size_t e = 0; e < session.epochs.size(); ++e) {
            attempted += 1;
            failed += session.epochs[e].failed ? 1 : 0;
            same = same && session.epochs[e].k == first.epochs[e].k &&
                   session.epochs[e].loss == first.epochs[e].loss;
        }
        if (!same)
            failures.push_back("session " + std::to_string(s + 1) +
                               ": (K, loss) sequence differs from session " +
                               std::to_string(session.input + 1) +
                               " on the same input");
    }

    std::printf("\n%zu session(s), %lld epoch(s), %lld over capacity "
                "or skipped\n",
                sessions.size(), (long long)attempted, (long long)failed);
    for (size_t s = 0; s < sessions.size(); ++s) {
        std::printf("session %zu (input %d): setup %.3f s; epochs", s + 1,
                    sessions[s].input + 1, sessions[s].setupS);
        for (const EpochRecord& epoch : sessions[s].epochs)
            std::printf(" [K=%d loss %.4f test %.3f %.3f s]", epoch.k,
                        epoch.loss, epoch.testAccuracy, epoch.wallS);
        std::printf("\n");
    }

    std::vector<Metric> metrics;
    if (args.trace) {
        const SpanAccount spans = accountSpans(w.devices > 1, main_lane);
        metrics = perLayerMetrics(w, sessions[0], sessions[1], spans,
                                  first_session_rss_mib);
        printLayerTable(spans, metrics, double(sessions[1].epochs.size()));
        const std::string trace_path = args.outDir + "/trace.json";
        if (obs::Trace::droppedEvents() > 0)
            failures.push_back(
                "trace dropped " +
                std::to_string(obs::Trace::droppedEvents()) + " event(s)");
        if (!obs::Trace::writeChromeTrace(trace_path))
            fatal("cannot write '", trace_path, "'");
        std::printf("wrote %s\n", trace_path.c_str());
    } else {
        // Set-up is cheap next to a session on some workloads; time
        // it alone until there are enough samples for a steady median.
        std::vector<double> setups;
        for (const SessionResult& session : sessions)
            setups.push_back(session.setupS);
        while (setups.size() < kSetupSamples)
            setups.push_back(timeSetup(w, derive(args.seed, 0)));
        metrics = endToEndMetrics(sessions, setups, attempted, failed);
    }

    std::printf("\nmetrics:\n");
    for (const Metric& metric : metrics)
        std::printf("  %-28s %.6g %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    for (const std::string& failure : failures)
        std::printf("CHECK FAILED: %s\n", failure.c_str());

    const bool correct = failures.empty();
    const std::string result_path = args.outDir + "/result.json";
    if (!writeResult(result_path, correct, attempted, failed, metrics,
                     failures, sessions))
        fatal("cannot write '", result_path, "'");
    return correct ? 0 : 1;
}
