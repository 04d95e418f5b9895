/**
 * @file
 * etpu_perfbench: one seeded run of one benchmark workload.
 *
 *   etpu_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --work-dir DIR [--trace-out PATH] [--revision TEXT]
 *   etpu_perfbench --list-metrics
 *
 * Prints the environment fingerprint, the output digest and a metric
 * table, then, as the last stdout line, one JSON object with the
 * keys correct, attempted, failed and metrics: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. perfbench/
 * run.py builds this binary and is the command to run.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "report.hh"
#include "workloads.hh"

namespace perfbench
{

const std::vector<LayerMetricDef> &
layerCatalog()
{
    static const std::vector<LayerMetricDef> catalog = {
        {"nasbench.enumerate_s", "s", "lower"},
        {"nasbench.build_network_us", "us", "lower"},
        {"nasbench.structural_us", "us", "lower"},
        {"nasbench.fingerprint_us", "us", "lower"},
        {"nasbench.shard_encode_us", "us", "lower"},
        {"tpusim.lower_us", "us", "lower"},
        {"tpusim.annotate_us", "us", "lower"},
        {"tpusim.simulate_us", "us", "lower"},
        {"tpusim.evaluate_us", "us", "lower"},
        {"gnn.checkpoint_load_ms", "ms", "lower"},
        {"gnn.featurize_us", "us", "lower"},
        {"gnn.predict_us", "us", "lower"},
        {"pipeline.write_us", "us", "lower"},
        {"pipeline.write_overhead_pct", "%", "lower"},
        {"pipeline.bytes_written", "bytes", "lower"},
        {"query.index_build_s", "s", "lower"},
        {"query.filter_us.p50", "us", "lower"},
        {"query.filter_us.p99", "us", "lower"},
        {"query.topk_us.p50", "us", "lower"},
        {"query.topk_us.p99", "us", "lower"},
        {"query.pareto_us.p50", "us", "lower"},
        {"query.pareto_us.p99", "us", "lower"},
        {"query.bucket_us.p50", "us", "lower"},
        {"query.bucket_us.p99", "us", "lower"},
        {"query.archive_insert_us", "us", "lower"},
        {"serve.parse_us", "us", "lower"},
        {"serve.execute_us.count.p50", "us", "lower"},
        {"serve.execute_us.count.p99", "us", "lower"},
        {"serve.execute_us.rows.p50", "us", "lower"},
        {"serve.execute_us.rows.p99", "us", "lower"},
        {"serve.execute_us.topk.p50", "us", "lower"},
        {"serve.execute_us.topk.p99", "us", "lower"},
        {"serve.execute_us.pareto.p50", "us", "lower"},
        {"serve.execute_us.pareto.p99", "us", "lower"},
        {"serve.execute_us.bucket.p50", "us", "lower"},
        {"serve.execute_us.bucket.p99", "us", "lower"},
        {"serve.execute_us.characterize.p50", "us", "lower"},
        {"serve.execute_us.characterize.p99", "us", "lower"},
        {"serve.transport_us", "us", "lower"},
        {"serve.response_bytes.count", "bytes", "lower"},
        {"serve.response_bytes.rows", "bytes", "lower"},
        {"serve.response_bytes.topk", "bytes", "lower"},
        {"serve.response_bytes.pareto", "bytes", "lower"},
        {"serve.response_bytes.bucket", "bytes", "lower"},
        {"serve.response_bytes.characterize", "bytes", "lower"},
        {"serve.overloaded", "count", "lower"},
        {"serve.errors", "count", "lower"},
        {"client.retries", "count", "lower"},
        {"client.reconnects", "count", "lower"},
        {"search.proposals", "count", "lower"},
        {"search.sim_evals", "count", "higher"},
        {"search.memo_hits", "count", "lower"},
        {"search.invalid_moves", "count", "lower"},
        {"search.restarts", "count", "lower"},
        {"search.sims_per_proposal", "ratio", "higher"},
        {"search.memo_hit_rate", "ratio", "lower"},
        {"search.propose_us", "us", "lower"},
        {"coverage_pct", "%", "higher"},
        {"trace_overhead_pct", "%", "lower"},
        {"cpu_util", "ratio", "higher"},
        {"common.parallel_speedup_2w", "ratio", "higher"},
    };
    return catalog;
}

void
LayerValues::set(std::string_view name, double value)
{
    for (const LayerMetricDef &d : layerCatalog()) {
        if (name == d.name) {
            values_[std::string(name)] = value;
            return;
        }
    }
    etpu_panic("per-layer metric ", name, " is not in the catalog");
}

double
LayerValues::get(std::string_view name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
setRunSummary(LayerValues &layers, double coverage_pct,
              double traced_wall_s, double untraced_wall_s,
              double cpu_util)
{
    layers.set("coverage_pct", coverage_pct);
    if (untraced_wall_s > 0.0) {
        layers.set("trace_overhead_pct",
                   100.0 * (traced_wall_s / untraced_wall_s - 1.0));
    }
    layers.set("cpu_util", cpu_util);
}

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
perCallUs(const std::map<std::string, LayerTotals> &totals,
          std::string_view name)
{
    auto it = totals.find(std::string(name));
    if (it == totals.end() || it->second.calls == 0)
        return 0.0;
    return it->second.totalS * 1e6 /
           static_cast<double>(it->second.calls);
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "etpu_perfbench: " << why
              << "\nusage: etpu_perfbench --workload "
                 "campaign_sim|serve_mixed|search_open"
                 "\n                      --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n"
                 "                      [--trace-out PATH] "
                 "[--revision TEXT]\n"
                 "       etpu_perfbench --list-metrics\n";
    std::exit(2);
}

uint64_t
parseCount(const std::string &text, const std::string &flag)
{
    uint64_t v = 0;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || ptr != text.data() + text.size())
        usage(flag + " expects a non-negative integer, got \"" + text +
              "\"");
    return v;
}

void
printTable(const Result &r)
{
    for (const MetricValue &m : r.metrics) {
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string revision = "unknown";
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--list-metrics") {
            for (const LayerMetricDef &d : layerCatalog())
                std::printf("%s %s %s\n", d.name, d.unit, d.better);
            return 0;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string value = argv[++i];
        if (arg == "--workload") {
            opts.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            opts.seed = parseCount(value, arg);
            have_seed = true;
        } else if (arg == "--seconds") {
            uint64_t s = parseCount(value, arg);
            if (s < 1 || s > 600)
                usage("--seconds expects 1..600");
            opts.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace expects 0 or 1");
            opts.trace = value == "1";
            have_trace = true;
        } else if (arg == "--work-dir") {
            opts.workDir = value;
        } else if (arg == "--trace-out") {
            opts.traceOut = value;
        } else if (arg == "--revision") {
            revision = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace ||
        opts.workDir.empty()) {
        usage("--workload, --seed, --seconds, --trace and --work-dir are "
              "required");
    }
    if (opts.traceOut.empty())
        opts.traceOut = opts.workDir + "/trace.tsv";
    std::filesystem::create_directories(opts.workDir);

    std::printf("env %s\n", environmentJson(revision).c_str());
    std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    std::fflush(stdout);

    WorkloadOutput out;
    if (opts.workload == "campaign_sim")
        out = runCampaign(opts);
    else if (opts.workload == "serve_mixed")
        out = runServeMixed(opts);
    else if (opts.workload == "search_open")
        out = runSearchOpen(opts);
    else
        usage("unknown workload \"" + opts.workload + "\"");

    std::printf("digest workload=%s seed=%llu %s\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                out.digest.c_str());
    std::printf("check attempted=%llu failed=%llu correct=%s\n",
                static_cast<unsigned long long>(out.result.attempted),
                static_cast<unsigned long long>(out.result.failed),
                out.result.correct ? "true" : "false");

    Result printed = out.result;
    if (opts.trace) {
        printed.metrics.clear();
        for (const LayerMetricDef &d : layerCatalog())
            printed.add(d.name, out.layers.get(d.name), d.unit);
        std::printf("end-to-end (traced run's untraced phase):\n");
        printTable(out.result);
        std::printf("per-layer:\n");
    } else {
        std::printf("end-to-end:\n");
    }
    printTable(printed);
    std::printf("%s\n", printed.json().c_str());
    std::fflush(stdout);
    return 0;
}
