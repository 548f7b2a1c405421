#include "partition/reg.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace betty {

namespace {

/**
 * REG rows per build block. Fixed (never derived from the thread
 * count) so the blocks, and each block's rows, are the same for any
 * pool size; only the schedule varies. 256 rows balance hub-heavy
 * rows across lanes while keeping per-block overhead negligible.
 */
constexpr int64_t kRowBlock = 256;

/** Compressed rows: row r lists ids[offsets[r] .. offsets[r + 1]). */
struct Csr
{
    std::vector<int64_t> offsets;
    std::vector<int64_t> ids;
};

/** The transpose of the rows @p offsets / @p ids over @p num_cols
 * columns: row c lists, ascending, every row that holds c (once per
 * time it holds it). */
Csr
transpose(const std::vector<int64_t>& offsets,
          const std::vector<int64_t>& ids, int64_t num_cols)
{
    Csr t;
    t.offsets.assign(size_t(num_cols) + 1, 0);
    for (int64_t c : ids)
        ++t.offsets[size_t(c) + 1];
    for (size_t c = 0; c < size_t(num_cols); ++c)
        t.offsets[c + 1] += t.offsets[c];
    t.ids.resize(ids.size());
    std::vector<int64_t> fill(t.offsets.begin(), t.offsets.end() - 1);
    for (size_t r = 0; r + 1 < offsets.size(); ++r)
        for (int64_t e = offsets[r]; e < offsets[r + 1]; ++e)
            t.ids[size_t(fill[size_t(ids[size_t(e)])]++)] = int64_t(r);
    return t;
}

/**
 * Each source's effective destinations: its distinct destinations in
 * ascending order, stride-sampled down to opts.hubPairCap when it has
 * more (the hub guard). Sources with fewer than two left pair with
 * nothing and get an empty row.
 */
Csr
effectiveDestinations(const Block& block, const RegOptions& opts)
{
    // A destination that sampled a source twice appears twice in the
    // source's row, adjacently.
    Csr eff = transpose(block.edgeOffsets(), block.edgeSources(),
                        block.numSrc());

    // Compact in place: dedup (counts are over distinct nodes), then
    // the deterministic stride sample. The step is >= 1, so sampled
    // positions strictly increase (the sample stays distinct and
    // ascending) and every write lands at or before the position it
    // reads.
    int64_t write = 0;
    int64_t row_begin = 0;
    for (size_t s = 0; s + 1 < eff.offsets.size(); ++s) {
        const int64_t row_end = eff.offsets[s + 1];
        const auto begin = eff.ids.begin() + row_begin;
        const int64_t distinct = int64_t(
            std::unique(begin, eff.ids.begin() + row_end) - begin);
        const int64_t limit =
            opts.hubPairCap > 0 && distinct > opts.hubPairCap
                ? opts.hubPairCap
                : distinct;
        if (limit >= 2) {
            const double step = double(distinct) / double(limit);
            for (int64_t a = 0; a < limit; ++a)
                eff.ids[size_t(write++)] =
                    begin[ptrdiff_t(double(a) * step)];
        }
        eff.offsets[s + 1] = write;
        row_begin = row_end;
    }
    eff.ids.resize(size_t(write));
    return eff;
}

/** One block's REG rows, back to back; rowEnd[r] is the end of the
 * block's r-th row in targets/weights. */
struct RowBlock
{
    std::vector<int64_t> rowEnd;
    std::vector<int64_t> targets;
    std::vector<int64_t> weights;
};

/**
 * Rows [lo, hi) of C = AᵀA: for row i, every source s holding i
 * counts one shared neighbour for each other destination j it holds.
 * A dense per-lane accumulator takes the counts; the touched ids are
 * sorted, emitted and their slots zeroed, so the accumulator is all
 * zero between rows.
 */
RowBlock
buildRows(const Csr& eff, const Csr& by_dst, int64_t num_dst,
          int64_t lo, int64_t hi)
{
    thread_local std::vector<int32_t> count;
    thread_local std::vector<int64_t> touched;
    if (count.size() < size_t(num_dst))
        count.resize(size_t(num_dst), 0);

    RowBlock block;
    block.rowEnd.reserve(size_t(hi - lo));
    for (int64_t i = lo; i < hi; ++i) {
        touched.clear();
        for (int64_t e = by_dst.offsets[size_t(i)];
             e < by_dst.offsets[size_t(i) + 1]; ++e) {
            const int64_t s = by_dst.ids[size_t(e)];
            for (int64_t f = eff.offsets[size_t(s)];
                 f < eff.offsets[size_t(s) + 1]; ++f) {
                const int64_t j = eff.ids[size_t(f)];
                if (j != i && count[size_t(j)]++ == 0)
                    touched.push_back(j);
            }
        }
        std::sort(touched.begin(), touched.end());
        for (int64_t j : touched) {
            block.targets.push_back(j);
            block.weights.push_back(count[size_t(j)]);
            count[size_t(j)] = 0;
        }
        block.rowEnd.push_back(int64_t(block.targets.size()));
    }
    return block;
}

} // namespace

WeightedGraph
buildReg(const Block& last_block, const RegOptions& opts)
{
    BETTY_TRACE_SPAN_CAT("partition/reg_build", "partition");
    const int64_t num_dst = last_block.numDst();
    // A pair count never exceeds the number of sources.
    BETTY_ASSERT(
        last_block.numSrc() <= std::numeric_limits<int32_t>::max(),
        "too many sources for the REG's 32-bit pair counts");

    // c_ij = sum over sources of [i in eff(s)][j in eff(s)], built one
    // row i at a time (Gustavson's row-wise sparse product). Fixed
    // blocks of rows run on the pool, each into its own buffers; the
    // counts are exact integers and each row's ids come out sorted,
    // so every row, and the whole CSR, is byte-identical for any pool
    // size.
    const Csr eff = effectiveDestinations(last_block, opts);
    const Csr by_dst = transpose(eff.offsets, eff.ids, num_dst);
    const int64_t num_blocks = (num_dst + kRowBlock - 1) / kRowBlock;
    std::vector<RowBlock> blocks(static_cast<size_t>(num_blocks));
    ThreadPool::global().parallelFor(
        0, num_blocks, 1, [&](int64_t block_lo, int64_t block_hi) {
            for (int64_t b = block_lo; b < block_hi; ++b)
                blocks[size_t(b)] = buildRows(
                    eff, by_dst, num_dst, b * kRowBlock,
                    std::min(num_dst, (b + 1) * kRowBlock));
        });

    // Concatenate the blocks' rows into the final CSR arrays.
    std::vector<int64_t> offsets(size_t(num_dst) + 1, 0);
    std::vector<int64_t> block_start(size_t(num_blocks) + 1, 0);
    for (int64_t b = 0; b < num_blocks; ++b) {
        const RowBlock& block = blocks[size_t(b)];
        const int64_t base = block_start[size_t(b)];
        for (size_t r = 0; r < block.rowEnd.size(); ++r)
            offsets[size_t(b * kRowBlock) + r + 1] =
                base + block.rowEnd[r];
        block_start[size_t(b) + 1] =
            base + int64_t(block.targets.size());
    }
    const size_t num_entries = size_t(offsets.back());
    std::vector<int64_t> targets(num_entries);
    std::vector<int64_t> weights(num_entries);
    ThreadPool::global().parallelFor(
        0, num_blocks, 1, [&](int64_t block_lo, int64_t block_hi) {
            for (int64_t b = block_lo; b < block_hi; ++b) {
                RowBlock& block = blocks[size_t(b)];
                const size_t at = size_t(block_start[size_t(b)]);
                std::copy(block.targets.begin(), block.targets.end(),
                          targets.begin() + ptrdiff_t(at));
                std::copy(block.weights.begin(), block.weights.end(),
                          weights.begin() + ptrdiff_t(at));
                block = RowBlock(); // free it as soon as it is copied
            }
        });

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
        reg_edges.add(int64_t(num_entries / 2));
    }
    return WeightedGraph(std::move(offsets), std::move(targets),
                         std::move(weights), std::move(vertex_weights));
}

} // namespace betty
