#include "probes.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define PERFBENCH_X86 1
#endif

#include "kernels/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_CXX_FLAGS_CONFIG
#define PERFBENCH_CXX_FLAGS_CONFIG ""
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTrials = 5;
constexpr int kAccumulators = 12;
constexpr int64_t kFmaIterations = 4'000'000;
constexpr size_t kCopyBytes = size_t(64) << 20;

/** Keeps probe results observable so the loops are not elided. */
volatile double probe_sink = 0.0;

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

#ifdef PERFBENCH_X86
/** 12 independent 8-lane FMA chains: enough in flight to cover the
 * FMA latency on every current x86 core. */
__attribute__((target("avx2,fma"))) double
fmaLoopAvx2(int64_t iterations)
{
    __m256 acc[kAccumulators];
    for (int j = 0; j < kAccumulators; ++j)
        acc[j] = _mm256_set1_ps(float(j) * 1e-3f);
    const __m256 a = _mm256_set1_ps(0.999999f);
    const __m256 b = _mm256_set1_ps(1e-6f);
    for (int64_t it = 0; it < iterations; ++it)
        for (int j = 0; j < kAccumulators; ++j)
            acc[j] = _mm256_fmadd_ps(acc[j], a, b);
    __m256 sum = acc[0];
    for (int j = 1; j < kAccumulators; ++j)
        sum = _mm256_add_ps(sum, acc[j]);
    float lanes[8];
    _mm256_storeu_ps(lanes, sum);
    double total = 0.0;
    for (const float lane : lanes)
        total += lane;
    return total;
}
#endif

double
fmaLoopScalar(int64_t iterations)
{
    float acc[kAccumulators * 8];
    for (int j = 0; j < kAccumulators * 8; ++j)
        acc[j] = float(j) * 1e-3f;
    for (int64_t it = 0; it < iterations; ++it)
        for (float& value : acc)
            value = value * 0.999999f + 1e-6f;
    double total = 0.0;
    for (const float value : acc)
        total += value;
    return total;
}

bool
hasAvx2Fma()
{
#ifdef PERFBENCH_X86
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

std::string
cpuModel()
{
#ifdef PERFBENCH_X86
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u)
        return "unknown";
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    return first == std::string::npos
               ? "unknown"
               : model.substr(first, last - first + 1);
#else
    return "unknown";
#endif
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Single-core peak of an independent-accumulator FMA loop
 * (AVX2/FMA when the CPU has it), GFLOP/s; best of several trials. */
double
fmaPeakGflops()
{
    const bool avx2 = hasAvx2Fma();
    double best = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
        const auto start = Clock::now();
#ifdef PERFBENCH_X86
        probe_sink = probe_sink + (avx2 ? fmaLoopAvx2(kFmaIterations)
                                        : fmaLoopScalar(kFmaIterations));
#else
        probe_sink = probe_sink + fmaLoopScalar(kFmaIterations);
#endif
        const double elapsed = seconds(start);
        // Both loops do kAccumulators * 8 multiply-adds per iteration.
        const double flops =
            double(kFmaIterations) * kAccumulators * 8 * 2;
        best = std::max(best, flops / elapsed / 1e9);
    }
    return best;
}

/** memcpy bandwidth over buffers far larger than the last-level
 * cache, GB/s counting bytes read plus bytes written; best of several
 * trials. */
double
copyPeakGbs()
{
    std::vector<char> source(kCopyBytes, 1);
    std::vector<char> target(kCopyBytes, 0);
    double best = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
        const auto start = Clock::now();
        std::memcpy(target.data(), source.data(), kCopyBytes);
        const double elapsed = seconds(start);
        probe_sink = probe_sink + target[size_t(trial) * 4096];
        best = std::max(best, 2.0 * double(kCopyBytes) / elapsed / 1e9);
    }
    return best;
}

} // namespace

std::string
fingerprintJson()
{
    const std::string cxx_flags = PERFBENCH_CXX_FLAGS;
    const std::string config_flags = PERFBENCH_CXX_FLAGS_CONFIG;
    std::string effective = cxx_flags;
    if (!effective.empty() && !config_flags.empty())
        effective += ' ';
    effective += config_flags;

    char numbers[160];
    std::snprintf(numbers, sizeof(numbers),
                  "\"fma_peak_gflops\": %.6g, \"copy_peak_gbs\": %.6g",
                  fmaPeakGflops(), copyPeakGbs());
    return "{\"nproc\": " +
           std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"cpu_model\": " + jsonString(cpuModel()) +
           ", \"compiler\": " + jsonString(compilerName()) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           // What the library's own BETTY_BUILD_FLAGS fingerprint
           // records (CMAKE_CXX_FLAGS only), beside the flags the
           // build type adds on top.
           ", \"cxx_flags\": " + jsonString(cxx_flags) +
           ", \"cxx_flags_config\": " + jsonString(config_flags) +
           ", \"effective_flags\": " + jsonString(effective) +
           ", \"kernel_backend\": " +
           jsonString(betty::kernels::backendName(
               betty::kernels::activeBackend())) +
           ", " + numbers + "}";
}

} // namespace perfbench
