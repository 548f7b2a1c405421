#include "partition/coarsen.h"

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace betty {

std::vector<int64_t>
heavyEdgeMatching(const WeightedGraph& graph, Rng& rng)
{
    const int64_t n = graph.numNodes();
    std::vector<int64_t> match(size_t(n), -1);
    const std::vector<int64_t> order = rng.permutation(n);

    for (int64_t v : order) {
        if (match[size_t(v)] != -1)
            continue;
        const auto nbrs = graph.neighbors(v);
        const auto wts = graph.edgeWeights(v);
        int64_t best = -1;
        int64_t best_weight = -1;
        for (size_t i = 0; i < nbrs.size(); ++i) {
            const int64_t u = nbrs[i];
            if (u == v || match[size_t(u)] != -1)
                continue;
            if (wts[i] > best_weight) {
                best_weight = wts[i];
                best = u;
            }
        }
        if (best == -1) {
            match[size_t(v)] = v;
        } else {
            match[size_t(v)] = best;
            match[size_t(best)] = v;
        }
    }
    return match;
}

CoarseLevel
coarsen(const WeightedGraph& graph, const std::vector<int64_t>& matching)
{
    const int64_t n = graph.numNodes();
    BETTY_ASSERT(int64_t(matching.size()) == n, "matching size mismatch");

    CoarseLevel level;
    level.fineToCoarse.assign(size_t(n), -1);

    // Assign coarse ids: each matched pair (or singleton) becomes one
    // coarse vertex; the smaller endpoint claims the id.
    int64_t coarse_count = 0;
    for (int64_t v = 0; v < n; ++v) {
        if (level.fineToCoarse[size_t(v)] != -1)
            continue;
        const int64_t partner = matching[size_t(v)];
        BETTY_ASSERT(partner >= 0 && partner < n &&
                         matching[size_t(partner)] == v,
                     "bad matching entry");
        level.fineToCoarse[size_t(v)] = coarse_count;
        level.fineToCoarse[size_t(partner)] = coarse_count;
        ++coarse_count;
    }

    std::vector<int64_t> coarse_vwgt(size_t(coarse_count), 0);
    for (int64_t v = 0; v < n; ++v)
        coarse_vwgt[size_t(level.fineToCoarse[size_t(v)])] +=
            graph.vertexWeight(v);

    // Contract straight into CSR. Coarse vertex c's row is the union of
    // its members' rows mapped through fineToCoarse: intra-pair edges
    // drop out and parallel edges sum in slot[cu], the position of cu
    // in the row being built (positions grow, so a slot set by an
    // earlier row is below row_begin and reads as unset).
    std::vector<int64_t> offsets(size_t(coarse_count) + 1, 0);
    std::vector<int64_t> targets;
    std::vector<int64_t> weights;
    targets.reserve(size_t(2 * graph.numEdges()));
    weights.reserve(size_t(2 * graph.numEdges()));
    {
        std::vector<int64_t> slot(size_t(coarse_count), -1);
        int64_t c = 0;
        for (int64_t v = 0; v < n; ++v) {
            if (level.fineToCoarse[size_t(v)] != c)
                continue; // v is the second member of an earlier pair
            const int64_t row_begin = int64_t(targets.size());
            const int64_t members[2] = {v, matching[size_t(v)]};
            const int64_t num_members = members[1] == v ? 1 : 2;
            for (int64_t m = 0; m < num_members; ++m) {
                const int64_t member = members[m];
                const auto nbrs = graph.neighbors(member);
                const auto wts = graph.edgeWeights(member);
                for (size_t i = 0; i < nbrs.size(); ++i) {
                    const int64_t cu =
                        level.fineToCoarse[size_t(nbrs[i])];
                    if (cu == c)
                        continue;
                    int64_t& at = slot[size_t(cu)];
                    if (at >= row_begin) {
                        weights[size_t(at)] += wts[i];
                    } else {
                        at = int64_t(targets.size());
                        targets.push_back(cu);
                        weights.push_back(wts[i]);
                    }
                }
            }
            offsets[size_t(++c)] = int64_t(targets.size());
        }
    }

    // The rows hold neighbours in first-seen order. Transposing sorts
    // them: walking rows in ascending order appends each row id to its
    // neighbours' rows, and symmetry keeps every row's length.
    std::vector<int64_t> sorted_targets(targets.size());
    std::vector<int64_t> sorted_weights(weights.size());
    {
        std::vector<int64_t> fill(offsets.begin(), offsets.end() - 1);
        for (int64_t cv = 0; cv < coarse_count; ++cv) {
            for (int64_t i = offsets[size_t(cv)];
                 i < offsets[size_t(cv) + 1]; ++i) {
                const int64_t at = fill[size_t(targets[size_t(i)])]++;
                sorted_targets[size_t(at)] = cv;
                sorted_weights[size_t(at)] = weights[size_t(i)];
            }
        }
    }

    level.graph = WeightedGraph(std::move(offsets),
                                std::move(sorted_targets),
                                std::move(sorted_weights),
                                std::move(coarse_vwgt));
    return level;
}

} // namespace betty
