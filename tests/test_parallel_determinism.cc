/**
 * @file
 * Determinism contract of the parallel batch-preparation engine:
 * sampled MultiLayerBatch blocks, REG edge lists, and Betty partition
 * assignments must be bit-identical for any global ThreadPool size
 * (1, 2, 8) and across repeated runs, on a power-law graph and a
 * bipartite-heavy hub graph that exercises the REG hubPairCap path.
 *
 * The K-way partitioner's restarts run concurrently on the same pool;
 * their winner (lowest cut, ties to the lowest run index) must not
 * depend on the pool size either.
 *
 * Each artifact is reduced to an FNV-1a hash; the expected values are
 * a committed golden corpus (tests/golden/, BETTY_GOLDEN_DIR), so any
 * platform- or schedule-dependent drift — not just thread-count
 * divergence within one process — fails loudly. Regenerate the corpus
 * with BETTY_UPDATE_GOLDEN=1 after an intentional output change.
 */
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/betty.h"
#include "data/synthetic.h"
#include "graph/csr_graph.h"
#include "partition/kway_partitioner.h"
#include "partition/partitioner.h"
#include "partition/reg.h"
#include "sampling/neighbor_sampler.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace betty {
namespace {

// -------------------------------------------------------------------
// FNV-1a over int64 streams.

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void
fnvMix(uint64_t& hash, int64_t value)
{
    auto bits = uint64_t(value);
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xffu;
        hash *= kFnvPrime;
    }
}

template <typename Range>
void
fnvMixRange(uint64_t& hash, const Range& range)
{
    fnvMix(hash, int64_t(range.size()));
    for (const auto value : range)
        fnvMix(hash, int64_t(value));
}

uint64_t
hashBatch(const MultiLayerBatch& batch)
{
    uint64_t hash = kFnvOffset;
    fnvMix(hash, batch.numLayers());
    for (const auto& block : batch.blocks) {
        fnvMix(hash, block.numDst());
        fnvMixRange(hash, block.srcNodes());
        fnvMixRange(hash, block.edgeOffsets());
        fnvMixRange(hash, block.edgeSources());
    }
    return hash;
}

uint64_t
hashReg(const WeightedGraph& reg)
{
    uint64_t hash = kFnvOffset;
    fnvMix(hash, reg.numNodes());
    fnvMix(hash, reg.numEdges());
    for (int64_t v = 0; v < reg.numNodes(); ++v) {
        fnvMix(hash, reg.vertexWeight(v));
        fnvMixRange(hash, reg.neighbors(v));
        fnvMixRange(hash, reg.edgeWeights(v));
    }
    return hash;
}

uint64_t
hashGroups(const std::vector<std::vector<int64_t>>& groups)
{
    uint64_t hash = kFnvOffset;
    fnvMix(hash, int64_t(groups.size()));
    for (const auto& group : groups)
        fnvMixRange(hash, group);
    return hash;
}

// -------------------------------------------------------------------
// Golden corpus.

std::string
goldenPath(const std::string& graph_name)
{
    return std::string(BETTY_GOLDEN_DIR) + "/" + graph_name +
           ".golden";
}

std::map<std::string, uint64_t>
readGolden(const std::string& path)
{
    std::map<std::string, uint64_t> golden;
    std::ifstream in(path);
    std::string key, hex;
    while (in >> key >> hex)
        golden[key] = std::stoull(hex, nullptr, 16);
    return golden;
}

void
checkAgainstGolden(const std::string& graph_name,
                   const std::map<std::string, uint64_t>& actual)
{
    const std::string path = goldenPath(graph_name);
    if (std::getenv("BETTY_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const auto& [key, value] : actual) {
            char hex[32];
            std::snprintf(hex, sizeof(hex), "%016llx",
                          (unsigned long long)value);
            out << key << " " << hex << "\n";
        }
        GTEST_SKIP() << "golden corpus regenerated: " << path;
    }
    const auto golden = readGolden(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden corpus " << path
        << " (generate with BETTY_UPDATE_GOLDEN=1)";
    EXPECT_EQ(golden.size(), actual.size());
    for (const auto& [key, value] : actual) {
        const auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
        EXPECT_EQ(it->second, value)
            << key << " drifted from the committed golden hash";
    }
}

// -------------------------------------------------------------------
// Fixture graphs.

/** Heavy-tailed synthetic graph (products_like-style hubs). */
CsrGraph
powerLawGraph()
{
    SyntheticSpec spec;
    spec.name = "determinism_power_law";
    spec.numNodes = 1500;
    spec.avgDegree = 9.0;
    spec.powerLawAlpha = 2.1; // heavy tail: strong hubs
    spec.featureDim = 4;      // features unused here; keep it cheap
    return makeSyntheticDataset(spec, 91).graph;
}

/**
 * Bipartite-heavy graph: a small hub layer feeding a wide destination
 * layer, so the output block's sources have huge fan-out and REG
 * construction takes the hubPairCap sampling path.
 */
CsrGraph
bipartiteHeavyGraph()
{
    constexpr int64_t kHubs = 48;
    constexpr int64_t kDsts = 600;
    std::vector<Edge> edges;
    Rng rng(1234);
    for (int64_t d = 0; d < kDsts; ++d) {
        const int64_t dst = kHubs + d;
        const int64_t fan = 6 + int64_t(rng.next() % 10);
        for (int64_t e = 0; e < fan; ++e) {
            const int64_t hub = int64_t(rng.next() % uint64_t(kHubs));
            edges.push_back({hub, dst});
            edges.push_back({dst, hub}); // keep hubs reachable too
        }
    }
    return CsrGraph(kHubs + kDsts, edges);
}

std::vector<int64_t>
seedNodes(const CsrGraph& graph, int64_t count, int64_t first)
{
    std::vector<int64_t> seeds;
    for (int64_t v = first; v < graph.numNodes() &&
                            int64_t(seeds.size()) < count;
         ++v)
        seeds.push_back(v);
    return seeds;
}

// -------------------------------------------------------------------
// One full preparation pipeline run, reduced to hashes.

struct PrepHashes
{
    uint64_t batch = 0;
    uint64_t reg = 0;
    uint64_t groups = 0;
};

PrepHashes
runPreparation(const CsrGraph& graph,
               const std::vector<int64_t>& seeds)
{
    NeighborSampler sampler(graph, {4, 6}, 7);
    const auto batch = sampler.sample(seeds);
    RegOptions opts;
    opts.hubPairCap = 64; // low cap: force the hub guard path
    const auto reg = buildReg(batch.blocks.back(), opts);
    BettyPartitioner partitioner;
    const auto groups = partitioner.partition(batch, 8);
    PrepHashes hashes;
    hashes.batch = hashBatch(batch);
    hashes.reg = hashReg(reg);
    hashes.groups = hashGroups(groups);
    return hashes;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<const char*>
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }

    CsrGraph
    makeGraph() const
    {
        return std::string(GetParam()) == "power_law"
                   ? powerLawGraph()
                   : bipartiteHeavyGraph();
    }
};

TEST_P(ParallelDeterminism, BitIdenticalAcrossThreadCountsAndRuns)
{
    const CsrGraph graph = makeGraph();
    const auto seeds = seedNodes(graph, 384, graph.numNodes() / 3);

    ThreadPool::setGlobalThreads(1);
    const PrepHashes serial = runPreparation(graph, seeds);

    for (const int32_t threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        for (int run = 0; run < 2; ++run) {
            const PrepHashes parallel = runPreparation(graph, seeds);
            EXPECT_EQ(parallel.batch, serial.batch)
                << "sampled blocks diverged at threads=" << threads
                << " run=" << run;
            EXPECT_EQ(parallel.reg, serial.reg)
                << "REG diverged at threads=" << threads
                << " run=" << run;
            EXPECT_EQ(parallel.groups, serial.groups)
                << "partition assignment diverged at threads="
                << threads << " run=" << run;
        }
    }

    checkAgainstGolden(GetParam(),
                       {{"batch", serial.batch},
                        {"reg", serial.reg},
                        {"groups", serial.groups}});
}

INSTANTIATE_TEST_SUITE_P(Graphs, ParallelDeterminism,
                         ::testing::Values("power_law",
                                           "bipartite_heavy"));

/** Element-wise REG comparison (sharper diagnostics than the hash):
 * the row blocks built on the pool must be unobservable in the
 * adjacency arrays themselves, not just in a digest, at every pool
 * size and with a hub cap small enough that most sources are sampled.
 */
TEST(ParallelDeterminism, RegAdjacencyElementwiseIdentical)
{
    const CsrGraph graph = bipartiteHeavyGraph();
    NeighborSampler sampler(graph, {4, 6}, 7);
    const auto batch =
        sampler.sample(seedNodes(graph, 256, graph.numNodes() / 3));
    RegOptions opts;
    opts.hubPairCap = 8;

    ThreadPool::setGlobalThreads(1);
    const auto serial = buildReg(batch.blocks.back(), opts);
    for (const int32_t threads : {2, 4, 8}) {
        ThreadPool::setGlobalThreads(threads);
        const auto parallel = buildReg(batch.blocks.back(), opts);
        ASSERT_EQ(serial.numNodes(), parallel.numNodes());
        ASSERT_EQ(serial.numEdges(), parallel.numEdges())
            << "threads " << threads;
        for (int64_t v = 0; v < serial.numNodes(); ++v) {
            EXPECT_EQ(serial.vertexWeight(v), parallel.vertexWeight(v));
            const auto s_nbrs = serial.neighbors(v);
            const auto p_nbrs = parallel.neighbors(v);
            const auto s_weights = serial.edgeWeights(v);
            const auto p_weights = parallel.edgeWeights(v);
            ASSERT_EQ(s_nbrs.size(), p_nbrs.size())
                << "threads " << threads << " vertex " << v;
            for (size_t i = 0; i < s_nbrs.size(); ++i) {
                EXPECT_EQ(s_nbrs[i], p_nbrs[i])
                    << "threads " << threads << " vertex " << v
                    << " neighbor " << i;
                EXPECT_EQ(s_weights[i], p_weights[i])
                    << "threads " << threads << " vertex " << v
                    << " weight " << i;
            }
        }
    }
    ThreadPool::setGlobalThreads(1);
}

// -------------------------------------------------------------------
// Concurrent K-way restarts.

class KwayRestarts : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

/** Two disjoint equal unit-weight cliques: at K = 2 every restart can
 * separate them at cut 0, so the tie-break alone picks the winner. */
WeightedGraph
twoCliques(int64_t size)
{
    std::vector<WeightedEdge> edges;
    for (int64_t c = 0; c < 2; ++c)
        for (int64_t i = 0; i < size; ++i)
            for (int64_t j = i + 1; j < size; ++j)
                edges.push_back({c * size + i, c * size + j, 1});
    return WeightedGraph(2 * size, edges);
}

TEST_F(KwayRestarts, IdenticalAcrossThreadCounts)
{
    const CsrGraph graph = powerLawGraph();
    NeighborSampler sampler(graph, {4, 6}, 7);
    const auto batch =
        sampler.sample(seedNodes(graph, 384, graph.numNodes() / 3));
    const WeightedGraph reg = buildReg(batch.blocks.back());
    KwayOptions opts;
    opts.k = 8;
    opts.restarts = 3;
    MetisBaselinePartitioner metis(graph);

    ThreadPool::setGlobalThreads(1);
    const auto serial = kwayPartition(reg, opts);
    const auto serial_metis = metis.partition(batch, 8);
    for (const int32_t threads : {2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(kwayPartition(reg, opts), serial)
            << "threads=" << threads;
        EXPECT_EQ(metis.partition(batch, 8), serial_metis)
            << "metis baseline, threads=" << threads;
    }
}

TEST_F(KwayRestarts, TiedCutsGoToRunZero)
{
    const WeightedGraph cliques = twoCliques(40);
    KwayOptions opts;
    opts.k = 2;
    opts.restarts = 1;

    // Run r of a multi-restart call is the single run seeded with
    // seed + r * 0x9e3779b9. Each one reaches cut 0.
    ThreadPool::setGlobalThreads(1);
    const auto run0 = kwayPartition(cliques, opts);
    bool labels_differ = false;
    for (uint64_t run = 0; run < 3; ++run) {
        KwayOptions single = opts;
        single.seed = opts.seed + run * 0x9e3779b9ULL;
        const auto parts = kwayPartition(cliques, single);
        EXPECT_EQ(cliques.cutCost(parts), 0) << "run " << run;
        labels_differ = labels_differ || parts != run0;
    }
    // The tie is visible: some run labels the cliques differently.
    EXPECT_TRUE(labels_differ);

    opts.restarts = 3;
    for (const int32_t threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        EXPECT_EQ(kwayPartition(cliques, opts), run0)
            << "threads=" << threads;
    }
}

/** What a fresh partitioner returns at @p k: a one-shot solve on a
 * freshly built REG. */
std::vector<std::vector<int64_t>>
freshBettyGroups(const MultiLayerBatch& batch, KwayOptions opts,
                 int32_t k)
{
    opts.k = k;
    if (k == 1) {
        const auto outputs = batch.outputNodes();
        return {std::vector<int64_t>(outputs.begin(), outputs.end())};
    }
    return groupByPart(batch.outputNodes(),
                       kwayPartition(buildReg(batch.blocks.back()), opts),
                       k);
}

/** A 4000-node ring sampled from every 10th node: no two outputs
 * share an in-neighbour, so the REG has no edges and coarsening stops
 * on the 95% rule at its first matching. */
MultiLayerBatch
edgelessRegBatch()
{
    std::vector<Edge> edges;
    for (int64_t v = 0; v < 4000; ++v) {
        edges.push_back({v, (v + 1) % 4000});
        edges.push_back({(v + 1) % 4000, v});
    }
    const CsrGraph ring(4000, edges);
    std::vector<int64_t> seeds;
    for (int64_t v = 0; v < 4000; v += 10)
        seeds.push_back(v);
    return NeighborSampler(ring, {2, 2}, 7).sample(seeds);
}

TEST_F(KwayRestarts, ReusedHierarchyMatchesFreshSolveAtEveryPoolSize)
{
    const CsrGraph graph = powerLawGraph();
    NeighborSampler sampler(graph, {4, 6}, 7);
    struct Case
    {
        const char* name;
        MultiLayerBatch batch;
    };
    const std::vector<Case> cases = {
        {"power law",
         sampler.sample(seedNodes(graph, 384, graph.numNodes() / 3))},
        {"48 outputs", sampler.sample(seedNodes(graph, 48, 0))},
        {"edgeless REG", edgelessRegBatch()},
    };
    ASSERT_EQ(buildReg(cases[2].batch.blocks.back()).numEdges(), 0);

    std::vector<int32_t> ascending;
    for (int32_t k = 1; k <= 20; ++k)
        ascending.push_back(k);
    std::vector<int32_t> shuffled = ascending;
    Rng rng(17);
    rng.shuffle(shuffled);
    const std::vector<std::vector<int32_t>> orders = {
        ascending,
        std::vector<int32_t>(ascending.rbegin(), ascending.rend()),
        shuffled};

    for (const Case& c : cases) {
        for (const int32_t restarts : {1, 3}) {
            BettyOptions options;
            options.kway.restarts = restarts;
            ThreadPool::setGlobalThreads(1);
            std::vector<std::vector<std::vector<int64_t>>> fresh;
            for (const int32_t k : ascending)
                fresh.push_back(freshBettyGroups(c.batch, options.kway, k));
            for (const int32_t threads : {1, 2, 4}) {
                ThreadPool::setGlobalThreads(threads);
                for (const auto& order : orders) {
                    BettyPartitioner partitioner(options);
                    for (const int32_t k : order)
                        EXPECT_EQ(partitioner.partition(c.batch, k),
                                  fresh[size_t(k - 1)])
                            << c.name << ", restarts " << restarts
                            << ", threads " << threads << ", first K "
                            << order.front() << ", K " << k;
                }
            }
        }
    }
}

TEST_F(KwayRestarts, ResampledBatchDropsTheHierarchy)
{
    const CsrGraph graph = powerLawGraph();
    NeighborSampler sampler(graph, {4, 6}, 7);
    ThreadPool::setGlobalThreads(2);
    MultiLayerBatch batch =
        sampler.sample(seedNodes(graph, 384, graph.numNodes() / 3));
    BettyPartitioner partitioner;
    // Deep levels first (small K), so the stale hierarchy would be
    // reusable at every K below.
    for (const int32_t k : {2, 6, 12})
        partitioner.partition(batch, k);

    // A different batch sampled into the same object.
    const MultiLayerBatch* address = &batch;
    batch = sampler.sample(seedNodes(graph, 384, 100));
    ASSERT_EQ(&batch, address);
    for (const int32_t k : {12, 3, 6, 2}) {
        EXPECT_EQ(partitioner.partition(batch, k),
                  freshBettyGroups(batch, KwayOptions{}, k))
            << "K " << k;
        // Disjoint outputs, then a new K at every call: each is cold.
        EXPECT_FALSE(partitioner.lastRunWasWarm()) << "K " << k;
    }
}

} // namespace
} // namespace betty
