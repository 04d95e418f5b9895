#include "report.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/json_out.hh"
#include "common/simd.hh"
#include "stats/summary.hh"

#ifndef ETPU_PERFBENCH_COMPILER
#define ETPU_PERFBENCH_COMPILER "unknown"
#endif
#ifndef ETPU_PERFBENCH_BUILD_TYPE
#define ETPU_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ETPU_PERFBENCH_NATIVE
#define ETPU_PERFBENCH_NATIVE "OFF"
#endif

namespace perfbench
{

double
elapsedS(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
RequestOutcomes::okRate() const
{
    uint64_t n = attempted();
    return n ? static_cast<double>(okLatencyMs.size()) /
                   static_cast<double>(n)
             : 0.0;
}

std::optional<LatencySummary>
summarizeLatency(const RequestOutcomes &outcomes, double failed_ms,
                 uint64_t min_samples)
{
    if (outcomes.attempted() < min_samples || outcomes.attempted() == 0)
        return std::nullopt;
    std::vector<double> pooled = outcomes.okLatencyMs;
    pooled.insert(pooled.end(), outcomes.failed, failed_ms);
    LatencySummary s;
    s.samples = outcomes.attempted();
    s.p50Ms = etpu::stats::quantile(pooled, 0.50);
    s.p99Ms = etpu::stats::quantile(std::move(pooled), 0.99);
    return s;
}

double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

/** The CPU brand string from CPUID (no file reads needed). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; i++) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        std::string brand(reinterpret_cast<const char *>(regs),
                          sizeof(regs));
        brand.resize(brand.find('\0') == std::string::npos
                         ? brand.size()
                         : brand.find('\0'));
        size_t first = brand.find_first_not_of(' ');
        size_t last = brand.find_last_not_of(' ');
        if (first != std::string::npos)
            return brand.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

} // namespace

std::string
environmentJson(const std::string &revision)
{
    const char *simd_env = std::getenv("ETPU_SIMD");
    std::ostringstream out;
    out << "{\"nproc\":" << std::thread::hardware_concurrency()
        << ",\"cpu\":" << etpu::jsonQuote(cpuModel())
        << ",\"simd_detected\":"
        << etpu::jsonQuote(etpu::simdTierName(etpu::detectSimdTier()))
        << ",\"simd_active\":"
        << etpu::jsonQuote(etpu::simdTierName(etpu::simdTier()))
        << ",\"ETPU_SIMD\":"
        << etpu::jsonQuote(simd_env ? simd_env : "")
        << ",\"compiler\":" << etpu::jsonQuote(ETPU_PERFBENCH_COMPILER)
        << ",\"build_type\":"
        << etpu::jsonQuote(ETPU_PERFBENCH_BUILD_TYPE)
        << ",\"ETPU_NATIVE\":" << etpu::jsonQuote(ETPU_PERFBENCH_NATIVE)
        << ",\"revision\":" << etpu::jsonQuote(revision) << "}";
    return out.str();
}

void
Result::add(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string
fmtFull(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08x", v);
    return buf;
}

std::string
Result::json() const
{
    std::ostringstream out;
    out << "{\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); i++) {
        const MetricValue &m = metrics[i];
        out << (i ? "," : "") << etpu::jsonQuote(m.name)
            << ":{\"value\":" << fmtFull(m.value)
            << ",\"unit\":" << etpu::jsonQuote(m.unit) << "}";
    }
    out << "}}";
    return out.str();
}

} // namespace perfbench
