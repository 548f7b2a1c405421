#include "partition/reg.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace betty {

namespace {

/**
 * Sources per enumeration block. Fixed (never derived from the thread
 * count) so the work decomposition — and therefore the set of sorted
 * pair runs — is identical for any pool size; only the schedule
 * varies. ~4k sources is coarse enough to amortize task overhead and
 * fine enough to balance hub-heavy blocks across workers.
 */
constexpr int64_t kSourceBlock = 4096;

/** Column view of the output block: the destinations of each source,
 * ascending (a CSR transpose of the block's dst->src adjacency). */
struct SourceCsr
{
    std::vector<int64_t> offsets; // size numSrc + 1
    std::vector<int64_t> dsts;
};

SourceCsr
invertBlock(const Block& block)
{
    const auto& dst_offsets = block.edgeOffsets();
    const auto& sources = block.edgeSources();
    SourceCsr csr;
    csr.offsets.assign(size_t(block.numSrc()) + 1, 0);
    for (int64_t s : sources)
        ++csr.offsets[size_t(s) + 1];
    for (size_t s = 0; s + 1 < csr.offsets.size(); ++s)
        csr.offsets[s + 1] += csr.offsets[s];
    csr.dsts.resize(sources.size());
    std::vector<int64_t> fill(csr.offsets.begin(), csr.offsets.end() - 1);
    // Destinations are visited in increasing order, so every source's
    // list comes out sorted (duplicates adjacent).
    for (int64_t d = 0; d < block.numDst(); ++d)
        for (int64_t e = dst_offsets[size_t(d)];
             e < dst_offsets[size_t(d) + 1]; ++e)
            csr.dsts[size_t(fill[size_t(sources[size_t(e)])]++)] = d;
    return csr;
}

/** The co-destination pairs of one source block: distinct packed keys
 * (lo_dst * num_dst + hi_dst), ascending, with their pair counts. */
struct PairRun
{
    std::vector<int64_t> keys;
    std::vector<int64_t> counts;
};

/** Enumerate, sort and run-length count the pairs of sources [lo, hi). */
PairRun
blockPairs(const SourceCsr& csr, int64_t lo, int64_t hi,
           int64_t num_dst, const RegOptions& opts)
{
    std::vector<int64_t> keys;
    std::vector<int64_t> dsts;
    for (int64_t s = lo; s < hi; ++s) {
        // A destination can sample the same source more than once in a
        // multigraph; shared-neighbor counts are over distinct nodes.
        dsts.assign(csr.dsts.begin() + csr.offsets[size_t(s)],
                    csr.dsts.begin() + csr.offsets[size_t(s) + 1]);
        dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
        if (dsts.size() < 2)
            continue;

        const int64_t limit =
            (opts.hubPairCap > 0 &&
             int64_t(dsts.size()) > opts.hubPairCap)
                ? opts.hubPairCap
                : int64_t(dsts.size());
        // Deterministic stride sample keeps the guard reproducible.
        const double step = double(dsts.size()) / double(limit);
        for (int64_t a = 0; a < limit; ++a) {
            const int64_t i = dsts[size_t(double(a) * step)];
            for (int64_t b = a + 1; b < limit; ++b) {
                const int64_t j = dsts[size_t(double(b) * step)];
                if (i == j)
                    continue;
                keys.push_back(std::min(i, j) * num_dst +
                               std::max(i, j));
            }
        }
    }
    std::sort(keys.begin(), keys.end());

    PairRun run;
    for (size_t i = 0; i < keys.size();) {
        size_t j = i + 1;
        while (j < keys.size() && keys[j] == keys[i])
            ++j;
        run.keys.push_back(keys[i]);
        run.counts.push_back(int64_t(j - i));
        i = j;
    }
    return run;
}

/**
 * Merge the sorted runs into one edge list ordered by (u, v), summing
 * the counts of a key that several blocks share. Ties pop in block
 * order; sums are exact, so the order could not change a weight.
 */
std::vector<WeightedEdge>
mergeRuns(const std::vector<PairRun>& runs, int64_t num_dst)
{
    using Head = std::pair<int64_t, size_t>; // (key, run index)
    std::priority_queue<Head, std::vector<Head>, std::greater<Head>>
        heap;
    std::vector<size_t> next(runs.size(), 0);
    size_t max_edges = 0;
    for (size_t r = 0; r < runs.size(); ++r) {
        max_edges += runs[r].keys.size();
        if (!runs[r].keys.empty())
            heap.push({runs[r].keys.front(), r});
    }

    std::vector<WeightedEdge> edges;
    edges.reserve(max_edges);
    int64_t last_key = -1;
    while (!heap.empty()) {
        const auto [key, r] = heap.top();
        heap.pop();
        const int64_t count = runs[r].counts[next[r]];
        if (key == last_key) {
            edges.back().weight += count;
        } else {
            edges.push_back({key / num_dst, key % num_dst, count});
            last_key = key;
        }
        if (++next[r] < runs[r].keys.size())
            heap.push({runs[r].keys[next[r]], r});
    }
    return edges;
}

} // namespace

WeightedGraph
buildReg(const Block& last_block, const RegOptions& opts)
{
    BETTY_TRACE_SPAN_CAT("partition/reg_build", "partition");
    const int64_t num_dst = last_block.numDst();
    const int64_t num_src = last_block.numSrc();
    const SourceCsr csr = invertBlock(last_block);

    // c_ij = sum over sources of [i in dsts(s)][j in dsts(s)]:
    // enumerate co-destination pairs per source. Each fixed block of
    // sources sorts its own packed pair keys into a counted run (no
    // sharing, no locks, no hashing); the runs are then merged. The
    // edge list comes out sorted by endpoint pair with exact sums, so
    // it is byte-identical for any thread count.
    const int64_t num_blocks =
        num_src == 0 ? 0 : (num_src + kSourceBlock - 1) / kSourceBlock;
    std::vector<PairRun> runs(static_cast<size_t>(num_blocks));
    ThreadPool::global().parallelFor(
        0, num_blocks, 1, [&](int64_t block_lo, int64_t block_hi) {
            for (int64_t block = block_lo; block < block_hi;
                 ++block) {
                const int64_t lo = block * kSourceBlock;
                const int64_t hi =
                    std::min(lo + kSourceBlock, num_src);
                runs[size_t(block)] =
                    blockPairs(csr, lo, hi, num_dst, opts);
            }
        });
    const std::vector<WeightedEdge> edges = mergeRuns(runs, num_dst);
    runs.clear(); // not needed while the graph is built

    std::vector<int64_t> vertex_weights;
    if (opts.degreeVertexWeights) {
        vertex_weights.resize(size_t(num_dst));
        for (int64_t d = 0; d < num_dst; ++d)
            vertex_weights[size_t(d)] = 1 + last_block.inDegree(d);
    }

    if (obs::Metrics::enabled()) {
        static obs::Counter& builds =
            obs::Metrics::counter("partition.reg_builds");
        static obs::Counter& reg_edges =
            obs::Metrics::counter("partition.reg_edges");
        builds.increment();
        reg_edges.add(int64_t(edges.size()));
    }
    return WeightedGraph(num_dst, edges, std::move(vertex_weights));
}

} // namespace betty
