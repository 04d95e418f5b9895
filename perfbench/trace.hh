/**
 * @file
 * In-memory span recorder for the traced runs. The benchmark opens a
 * span around each of its own calls into a module's public function;
 * spans nest on one thread, carry the id of the cell block or request
 * they belong to, and stay in memory until the run ends, when they
 * can be written out as a TSV file. A layer's self time is its span's
 * duration minus the part its child spans cover.
 *
 * Layer spans are named "<module>.<what>" after the src/ module whose
 * function they time (nasbench, tpusim, gnn, pipeline, query, serve,
 * client, search, common). Spans the benchmark uses only to group
 * work start with "bench." and never count as layer time.
 */

#ifndef ETPU_PERFBENCH_TRACE_HH
#define ETPU_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** One recorded span. */
struct Span
{
    uint32_t name = 0;     //!< Tracer::names() index
    uint32_t parent = 0;   //!< index + 1 of the enclosing span, 0 = root
    uint64_t tag = 0;      //!< cell-block or request id
    uint64_t calls = 1;    //!< calls one span covers (bulk replays)
    int64_t startNs = 0;
    int64_t endNs = 0;

    int64_t durationNs() const { return endNs - startNs; }
};

/** Per-name totals over a finished trace. */
struct LayerTotals
{
    uint64_t calls = 0;
    double selfS = 0.0;  //!< summed self time
    double totalS = 0.0; //!< summed span durations
    std::vector<double> durationsUs; //!< per span, in record order
};

/** Single-threaded span recorder; inert when disabled. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_; }

    /** Tag attached to spans opened from now on. */
    void setTag(uint64_t tag) { tag_ = tag; }

    /** Open a span; prefer the Scope guard. @return its handle. */
    uint32_t open(std::string_view name, uint64_t calls = 1);

    /** Close the innermost open span (handle from open()). */
    void close(uint32_t handle);

    /**
     * Append a finished span measured elsewhere (self-tests build
     * span trees with known times this way). @p parent is the index
     * + 1 of an earlier span, 0 for a root. @return its handle.
     */
    uint32_t append(std::string_view name, uint32_t parent,
                    int64_t start_ns, int64_t end_ns, uint64_t calls = 1);

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::string_view name, uint64_t calls = 1)
            : tracer_(t.enabled() ? &t : nullptr),
              handle_(tracer_ ? t.open(name, calls) : 0)
        {
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(handle_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        uint32_t handle_;
    };

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<std::string> &names() const { return names_; }

    /** Self time of every span, in seconds (index-aligned). */
    std::vector<double> selfTimesS() const;

    /** Totals per span name. */
    std::map<std::string, LayerTotals> totals() const;

    /**
     * Summed self time of the layer spans (every name not starting
     * with "bench.") nested under spans named @p root, divided by the
     * summed duration of those roots, in percent.
     */
    double coveragePct(std::string_view root) const;

    /** Summed duration of the spans named @p name, in seconds. */
    double totalS(std::string_view name) const;

    /** Write every span as TSV (name, id, parent, tag, calls, times). */
    bool write(const std::string &path) const;

  private:
    uint32_t intern(std::string_view name);
    static int64_t nowNs();

    bool enabled_;
    uint64_t tag_ = 0;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_; //!< open span index + 1
    std::vector<std::string> names_;
    std::map<std::string, uint32_t, std::less<>> ids_;
};

} // namespace perfbench

#endif // ETPU_PERFBENCH_TRACE_HH
