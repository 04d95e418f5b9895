/**
 * @file
 * The three seeded workloads and the per-layer metric catalog they
 * report into. Each workload makes its inputs from the seed, sets
 * itself up (timed as setup_s), runs an untimed warm-up, then repeats
 * fixed seeded work units for the requested seconds with tracing off.
 * A traced run (--trace 1) then re-drives a fixed subset of the same
 * work through the modules' public functions under spans.
 */

#ifndef ETPU_PERFBENCH_WORKLOADS_HH
#define ETPU_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "report.hh"
#include "trace.hh"

namespace perfbench
{

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for caches and checkpoints (required). */
    std::string workDir;
    /** Where the traced run writes its spans (TSV). */
    std::string traceOut;
};

/** One per-layer metric of the catalog. */
struct LayerMetricDef
{
    const char *name;
    const char *unit;
    const char *better; //!< "lower" or "higher"
};

/**
 * Every per-layer metric a traced run prints, in print order. A layer
 * a workload never calls reports 0 (e.g. tpusim.* on serve_mixed),
 * which is the "no change" side of the layer-to-workload map.
 */
const std::vector<LayerMetricDef> &layerCatalog();

/** Per-layer values a traced run fills in (names from the catalog). */
class LayerValues
{
  public:
    /** Set @p name; panics on a name missing from the catalog. */
    void set(std::string_view name, double value);

    /** Value of @p name, 0 when unset. */
    double get(std::string_view name) const;

  private:
    std::map<std::string, double, std::less<>> values_;
};

/** What a workload hands back to main(). */
struct WorkloadOutput
{
    Result result;        //!< end-to-end metrics + attempted/failed
    LayerValues layers;   //!< filled only by a traced run
    std::string digest;   //!< CRC32 of the seed's deterministic output
};

/** Seeded cell sample + sharded builds on the simulator. */
WorkloadOutput runCampaign(const RunOptions &opts);

/** In-process server answering two closed-loop seeded clients. */
WorkloadOutput runServeMixed(const RunOptions &opts);

/** Seeded open-mode searches, alternating sa and evo. */
WorkloadOutput runSearchOpen(const RunOptions &opts);

/**
 * Fill the catalog's summary rows every workload reports:
 * coverage_pct, trace_overhead_pct (traced vs untraced wall of the
 * same work) and cpu_util.
 */
void setRunSummary(LayerValues &layers, double coverage_pct,
                   double traced_wall_s, double untraced_wall_s,
                   double cpu_util);

/** Derive a per-purpose seed from the workload seed (splitmix64). */
uint64_t subSeed(uint64_t seed, uint64_t stream);

/** Per-call mean of the spans named @p name, in microseconds. */
double perCallUs(const std::map<std::string, LayerTotals> &totals,
                 std::string_view name);

} // namespace perfbench

#endif // ETPU_PERFBENCH_WORKLOADS_HH
