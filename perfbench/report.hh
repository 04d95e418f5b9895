/**
 * @file
 * The benchmark's own arithmetic and output: the request-outcome
 * summary behind ok_rate and the latency percentiles, process resource
 * readings, the environment fingerprint and the one-line JSON result
 * every run ends with. Percentiles are etpu::stats::quantile (linear
 * interpolation between the closest ranks).
 */

#ifndef ETPU_PERFBENCH_REPORT_HH
#define ETPU_PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock readings. */
double elapsedS(Clock::time_point from, Clock::time_point to);

/**
 * Outcome of a set of requests: answered-ok latencies plus the count
 * of requests that failed (error response, failed output check, or no
 * answer after the client's retries).
 */
struct RequestOutcomes
{
    std::vector<double> okLatencyMs;
    uint64_t failed = 0;

    uint64_t attempted() const { return okLatencyMs.size() + failed; }

    /** ok requests / attempted; 0 when nothing was attempted. */
    double okRate() const;
};

/** Latency percentiles of a RequestOutcomes set. */
struct LatencySummary
{
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    uint64_t samples = 0;
};

/** Requests a run needs before it may print a p99 (ten lie beyond). */
inline constexpr uint64_t minRequestsForP99 = 1000;

/**
 * Pool @p outcomes into p50/p99. Each failed request joins the pool
 * as a sample of @p failed_ms, which the caller makes longer than any
 * answered request (the timed phase's length: it missed any latency
 * limit), so failures push the percentiles up instead of vanishing
 * from them.
 * With fewer than @p min_samples attempts there are not ten samples
 * beyond the p99, and the summary is refused (nullopt) rather than
 * printed.
 */
std::optional<LatencySummary>
summarizeLatency(const RequestOutcomes &outcomes, double failed_ms,
                 uint64_t min_samples = minRequestsForP99);

/** CPU seconds (user + system) this process has used so far. */
double processCpuS();

/** Peak resident set size of this process, in MB (2^20 bytes). */
double peakRssMb();

/**
 * The environment a result was measured on, as one JSON object:
 * nproc, CPU model, detected and active SIMD tier, ETPU_SIMD,
 * compiler and version, build type, ETPU_NATIVE and the source
 * revision (@p revision, supplied by the caller).
 */
std::string environmentJson(const std::string &revision);

/** One named metric of the result line. */
struct MetricValue
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result of one run, printed as the last line of stdout. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<MetricValue> metrics;

    void add(std::string name, double value, std::string unit);

    /**
     * {"correct":...,"attempted":N,"failed":N,"metrics":{name:
     * {"value":v,"unit":"u"},...}} with every value printed at full
     * (round-trip) precision.
     */
    std::string json() const;
};

/** A double at round-trip precision, or 0 for a non-finite value. */
std::string fmtFull(double v);

/** "0x%08x", the form digests print in. */
std::string hex32(uint32_t v);

} // namespace perfbench

#endif // ETPU_PERFBENCH_REPORT_HH
