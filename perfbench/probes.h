/**
 * @file
 * Machine fingerprint for benchmark results: what ran (core count,
 * CPU model, compiler, build type, effective optimisation flags) and
 * two measured machine peaks that per-kernel rates are read against —
 * single-core FMA throughput and stream-copy bandwidth.
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <string>

namespace perfbench {

/** The fingerprint as one JSON object, probes included. */
std::string fingerprintJson();

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
