/**
 * @file
 * campaign_sim: the paper's characterization campaign. Set-up
 * enumerates the full 423,624-cell space the way etpu_build_dataset
 * does and draws a seeded 16,384-cell sample; it runs twice before the
 * timed phase and once after it. The timed phase runs
 * pipeline::buildDatasetSharded at 1 worker over one 1,024-cell block
 * of the sample at a time into a fresh cache file (characterize,
 * encode, CRC, flush, rename), the 16 blocks in order, cycling, until
 * the run's seconds are spent and every block has run three times.
 * Every cache is checked outside the timed call.
 *
 * A block's latency is its fastest call, and setup_s the fastest
 * set-up. The host's noise only adds time: a shared VM alternates
 * between a fast and a ~1.5x slower state every few seconds, so the
 * mean or median of the calls jumps with the share of the run spent in
 * the slow state, while the fastest of several repeats spread over the
 * run does not. The sample is small enough that a pass over all blocks
 * takes well under a second, so each block runs dozens of times and a
 * fast spell of a second covers every block.
 *
 * The traced run re-drives each block through the modules' public
 * functions in the pipeline's order and requires the bytes to match
 * the block's cache from the timed run exactly. It also replays the
 * sample through the learned backend's calls for the gnn rows.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "arch/config.hh"
#include "common/checksum.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "gnn/predict_context.hh"
#include "gnn/predictor.hh"
#include "nasbench/dataset.hh"
#include "nasbench/enumerator.hh"
#include "nasbench/network.hh"
#include "pipeline/builder.hh"
#include "stats/summary.hh"
#include "tpusim/compiler.hh"
#include "tpusim/simulator.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace etpu;

constexpr size_t kSampleCells = 16'384;
/** Set-ups before the timed phase; one more runs after it. */
constexpr int kSetupsBefore = 2;
/**
 * Cells per timed call and per re-driven chunk (a multiple of
 * gnn::predictBatchBlock): short enough for a call to fit in one of
 * the host's fast spells.
 */
constexpr size_t kBlockCells = 1024;
/** Timed calls of each block at least; its latency is the fastest. */
constexpr size_t kRunsPerBlock = 3;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Seeded Fisher-Yates prefix of the enumerated space. */
std::vector<nas::CellSpec>
drawSample(std::vector<nas::CellSpec> &space, uint64_t seed, size_t n)
{
    Rng rng(subSeed(seed, 1));
    for (size_t i = 0; i < n; i++) {
        size_t j = i + rng.uniformInt(space.size() - i);
        std::swap(space[i], space[j]);
    }
    return {space.begin(), space.begin() + static_cast<ptrdiff_t>(n)};
}

/**
 * The learned replay's input: seeded, randomly initialised fast-
 * profile models (latent 8, one message-passing step) for latency and
 * energy on V1-V3. Inference cost depends on the architecture, not on
 * trained weights, so nothing is trained.
 */
void
writeCheckpoint(const std::string &path, uint64_t seed)
{
    gnn::CheckpointBundle bundle;
    uint64_t stream = 100;
    for (auto metric :
         {gnn::TargetMetric::Latency, gnn::TargetMetric::Energy}) {
        for (int c = 0; c < nas::numAccelerators; c++) {
            Rng rng(subSeed(seed, stream++));
            gnn::ModelConfig cfg;
            cfg.latent = 8;
            cfg.messagePassingSteps = 1;
            gnn::Predictor p;
            p.name = gnn::modelName(metric, c);
            p.model.init(cfg, rng);
            p.targetMean = metric == gnn::TargetMetric::Latency ? 1.0 : 2.0;
            p.targetStd = 0.5;
            bundle.models.push_back(std::move(p));
        }
    }
    if (!gnn::saveCheckpoint(path, bundle))
        etpu_fatal("cannot write the benchmark checkpoint ", path);
}

/** Count the records of a reloaded cache that fail the check. */
uint64_t
checkCache(const std::string &path, const std::vector<nas::CellSpec> &cells)
{
    nas::Dataset ds;
    if (!nas::Dataset::load(path, ds) || ds.size() != cells.size())
        return cells.size();
    uint64_t bad = 0;
    for (size_t i = 0; i < cells.size(); i++) {
        const nas::ModelRecord &r = ds.records[i];
        bool ok = r.spec == cells[i];
        for (size_t c = 0; c < nas::numAccelerators; c++) {
            ok = ok && std::isfinite(r.latencyMs[c]) &&
                 std::isfinite(r.energyMj[c]) && r.latencyMs[c] > 0.0f &&
                 r.energyMj[c] > 0.0f;
        }
        bad += ok ? 0 : 1;
    }
    return bad;
}

/** Summed self time of the spans named @p span per cell, in us. */
double
perCellUs(const std::map<std::string, LayerTotals> &totals,
          const std::string &span, double cells)
{
    auto it = totals.find(span);
    return it == totals.end() ? 0.0 : it->second.selfS * 1e6 / cells;
}

/** The gnn rows, from a trace of the learned path over @p cells. */
void
setGnnLayers(LayerValues &layers,
             const std::map<std::string, LayerTotals> &totals, double cells)
{
    layers.set("gnn.featurize_us", perCellUs(totals, "gnn.featurize", cells));
    layers.set("gnn.predict_us", perCellUs(totals, "gnn.predict", cells) /
                                     (2.0 * nas::numAccelerators));
    layers.set("gnn.checkpoint_load_ms",
               perCallUs(totals, "gnn.checkpoint_load") * 1e-3);
}

/**
 * The traced re-drive: the calls buildDatasetSharded makes at 1
 * worker, each under a span, on the simulator or (for the gnn rows)
 * the learned backend. One CampaignReplay stands for one build call:
 * it loads the checkpoint once and keeps one set of per-worker state.
 */
class CampaignReplay
{
  public:
    CampaignReplay(Tracer &tracer, bool learned,
                   const std::string &model_path)
        : tracer_(tracer), learned_(learned)
    {
        for (const auto &cfg : arch::allConfigs()) {
            compilers_.emplace_back(cfg);
            simulators_.emplace_back(cfg);
        }
        if (!learned_)
            return;
        Tracer::Scope s(tracer_, "gnn.checkpoint_load");
        if (!gnn::loadCheckpoint(model_path, bundle_))
            etpu_fatal("cannot reload checkpoint ", model_path);
        for (int c = 0; c < nas::numAccelerators; c++) {
            auto idx = static_cast<size_t>(c);
            latency_[idx] = bundle_.find(
                gnn::modelName(gnn::TargetMetric::Latency, c));
            energy_[idx] =
                bundle_.find(gnn::modelName(gnn::TargetMetric::Energy, c));
        }
    }

    // The model pointers point into bundle_.
    CampaignReplay(const CampaignReplay &) = delete;
    CampaignReplay &operator=(const CampaignReplay &) = delete;

    /** Characterize @p n cells into @p out[0..n). */
    void
    characterize(const nas::CellSpec *cells, size_t n, nas::ModelRecord *out)
    {
        if (learned_)
            predict(cells, n, out);
        else
            simulate(cells, n, out);
    }

    /** Encode @p records as a one-shard cache at @p path; the bytes. */
    std::string
    write(const std::vector<nas::ModelRecord> &records,
          const std::string &path)
    {
        nas::ShardSegment seg;
        {
            Tracer::Scope s(tracer_, "nasbench.shard_encode",
                            records.size());
            seg = nas::encodeShardSegment(records.data(), records.size());
        }
        Tracer::Scope s(tracer_, "pipeline.write", records.size());
        std::string bytes = nas::encodeCacheHeader(1, records.size());
        bytes += seg.bytes;
        std::string partial = path + ".partial";
        std::ofstream file(partial, std::ios::binary | std::ios::trunc);
        file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        file.close();
        std::filesystem::rename(partial, path);
        return bytes;
    }

  private:
    void
    simulate(const nas::CellSpec *cells, size_t n, nas::ModelRecord *out)
    {
        for (size_t i = 0; i < n; i++) {
            const nas::CellSpec &cell = cells[i];
            nas::ModelRecord &rec = out[i];
            rec.spec = cell;
            {
                Tracer::Scope s(tracer_, "nasbench.build_network");
                nas::buildNetworkInto(cell, net_);
            }
            {
                Tracer::Scope s(tracer_, "tpusim.lower");
                sim::Compiler::lower(net_, &cell, prog_);
            }
            for (size_t c = 0; c < simulators_.size(); c++) {
                {
                    Tracer::Scope s(tracer_, "tpusim.annotate");
                    compilers_[c].annotate(net_, prog_);
                }
                sim::PerfResult r;
                {
                    Tracer::Scope s(tracer_, "tpusim.simulate");
                    r = simulators_[c].run(prog_, scratch_);
                }
                rec.latencyMs[c] = static_cast<float>(r.latencyMs);
                rec.energyMj[c] = static_cast<float>(r.energyMj);
            }
            Tracer::Scope s(tracer_, "nasbench.structural");
            pipeline::fillStructuralFields(rec, cell, net_);
        }
    }

    void
    predict(const nas::CellSpec *cells, size_t n, nas::ModelRecord *out)
    {
        for (size_t b = 0; b < n; b += gnn::predictBatchBlock) {
            size_t len = std::min(gnn::predictBatchBlock, n - b);
            {
                Tracer::Scope s(tracer_, "gnn.featurize", len);
                ctx_.featurizeBatch(cells + b, len);
            }
            for (size_t c = 0; c < nas::numAccelerators; c++) {
                latencyOut_[c].resize(len);
                energyOut_[c].resize(len);
                {
                    Tracer::Scope s(tracer_, "gnn.predict", len);
                    ctx_.predictBatched(*latency_[c], latencyOut_[c].data());
                }
                Tracer::Scope s(tracer_, "gnn.predict", len);
                ctx_.predictBatched(*energy_[c], energyOut_[c].data());
            }
            for (size_t i = 0; i < len; i++) {
                const nas::CellSpec &cell = cells[b + i];
                nas::ModelRecord &rec = out[b + i];
                rec.spec = cell;
                {
                    Tracer::Scope s(tracer_, "nasbench.build_network");
                    nas::buildNetworkInto(cell, net_);
                }
                {
                    Tracer::Scope s(tracer_, "nasbench.structural");
                    pipeline::fillStructuralFields(rec, cell, net_);
                }
                for (size_t c = 0; c < nas::numAccelerators; c++) {
                    rec.latencyMs[c] = static_cast<float>(latencyOut_[c][i]);
                    rec.energyMj[c] = static_cast<float>(energyOut_[c][i]);
                }
            }
        }
    }

    Tracer &tracer_;
    bool learned_;
    std::vector<sim::Compiler> compilers_;
    std::vector<sim::Simulator> simulators_;
    nas::Network net_;
    sim::Program prog_;
    sim::SimScratch scratch_;
    gnn::CheckpointBundle bundle_;
    std::array<const gnn::Predictor *, nas::numAccelerators> latency_{};
    std::array<const gnn::Predictor *, nas::numAccelerators> energy_{};
    gnn::PredictContext ctx_;
    std::array<std::vector<double>, nas::numAccelerators> latencyOut_;
    std::array<std::vector<double>, nas::numAccelerators> energyOut_;
};

} // namespace

WorkloadOutput
runCampaign(const RunOptions &opts)
{
    WorkloadOutput out;
    const std::string dir = opts.workDir + "/campaign";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string cache = dir + "/block.bin";

    // One shard, pinned so $ETPU_SHARDS cannot change the cache bytes.
    pipeline::ShardedBuildOptions build;
    build.threads = 1;
    build.shards = 1;

    // Set-up: enumerate the full space, draw the sample.
    std::vector<double> setup_s, enumerate_s;
    auto setUp = [&] {
        auto t0 = Clock::now();
        std::vector<nas::CellSpec> space = nas::enumerateCells();
        auto t1 = Clock::now();
        std::vector<nas::CellSpec> drawn =
            drawSample(space, opts.seed, kSampleCells);
        auto t2 = Clock::now();
        enumerate_s.push_back(elapsedS(t0, t1));
        setup_s.push_back(elapsedS(t0, t2));
        return drawn;
    };
    std::vector<nas::CellSpec> sample;
    for (int r = 0; r < kSetupsBefore; r++)
        sample = setUp();
    std::vector<std::vector<nas::CellSpec>> blocks;
    for (size_t b = 0; b < sample.size(); b += kBlockCells) {
        blocks.emplace_back(sample.begin() + static_cast<ptrdiff_t>(b),
                            sample.begin() +
                                static_cast<ptrdiff_t>(b + kBlockCells));
    }

    // Untimed warm-up: the same call on the first block.
    pipeline::buildDatasetSharded(blocks[0], cache, build);

    // Timed phase: block calls in order, cycling, until the seconds are
    // spent and every block has run kRunsPerBlock times.
    std::vector<std::string> first_bytes(blocks.size());
    std::vector<uint32_t> first_crc(blocks.size(), 0);
    std::vector<char> first_ok(blocks.size(), 0);
    std::vector<double> best_s(blocks.size(), 1e300);
    uint64_t calls = 0, cells_failed = 0, cells_attempted = 0;
    const double cpu0 = processCpuS();
    const auto start = Clock::now();
    for (size_t k = 0; k < kRunsPerBlock * blocks.size() ||
                       elapsedS(start, Clock::now()) < opts.seconds;
         k++, calls++) {
        const size_t b = k % blocks.size();
        auto t0 = Clock::now();
        pipeline::buildDatasetSharded(blocks[b], cache, build);
        best_s[b] = std::min(best_s[b], elapsedS(t0, Clock::now()));

        std::string bytes = readFile(cache);
        uint32_t crc = crc32(bytes.data(), bytes.size());
        cells_attempted += blocks[b].size();
        if (k < blocks.size()) {
            first_crc[b] = crc;
            uint64_t bad = checkCache(cache, blocks[b]);
            first_ok[b] = bad == 0;
            cells_failed += bad;
            first_bytes[b] = std::move(bytes);
        } else if (crc != first_crc[b] || !first_ok[b]) {
            cells_failed += blocks[b].size();
        }
    }
    const double wall = elapsedS(start, Clock::now());
    const double cpu_util = (processCpuS() - cpu0) / wall;
    if (setUp() != sample) {
        etpu_warn("a repeated set-up drew another sample");
        cells_failed += sample.size();
    }

    double best_total_s = 0.0;
    std::vector<double> best_ms;
    for (double s : best_s) {
        best_total_s += s;
        best_ms.push_back(s * 1e3);
    }
    std::printf("timed: %llu calls of %zu cells in %.3f s\n",
                static_cast<unsigned long long>(calls), kBlockCells, wall);

    Result &res = out.result;
    res.attempted = cells_attempted;
    res.failed = cells_failed;
    res.correct = cells_failed == 0;
    res.add("throughput_per_s",
            static_cast<double>(sample.size()) / best_total_s, "1/s");
    res.add("latency_p50_ms", stats::quantile(best_ms, 0.50), "ms");
    res.add("latency_p99_ms", stats::quantile(best_ms, 0.99), "ms");
    res.add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
            "s");
    res.add("ok_rate",
            static_cast<double>(cells_attempted - cells_failed) /
                static_cast<double>(cells_attempted),
            "ratio");
    res.add("peak_rss_mb", peakRssMb(), "MB");
    uint32_t digest = 0;
    size_t cache_bytes = 0;
    for (const std::string &bytes : first_bytes) {
        digest = crc32(bytes.data(), bytes.size(), digest);
        cache_bytes += bytes.size();
    }
    out.digest = "crc32=" + hex32(digest) + " (caches of " +
                 std::to_string(blocks.size()) + " blocks of " +
                 std::to_string(kBlockCells) + " cells, " +
                 std::to_string(cache_bytes) + " bytes)";

    if (!opts.trace)
        return out;

    // --- Traced run ----------------------------------------------------
    LayerValues &layers = out.layers;
    layers.set("nasbench.enumerate_s",
               *std::min_element(enumerate_s.begin(), enumerate_s.end()));
    layers.set("pipeline.bytes_written", static_cast<double>(cache_bytes));

    // The re-drive, each block once with spans off and once on (in
    // alternating order, so host speed swings hit both sides alike).
    // Both sides must rebuild the block's cache bit for bit.
    Tracer tracer(true);
    Tracer untraced(false);
    CampaignReplay traced_side(tracer, false, "");
    CampaignReplay plain_side(untraced, false, "");
    std::vector<nas::ModelRecord> recs(kBlockCells);
    double wall_off = 0.0, wall_on = 0.0;
    for (size_t b = 0; b < blocks.size(); b++) {
        for (int side = 0; side < 2; side++) {
            const bool traced = (b + side) % 2 == 1;
            Tracer &t = traced ? tracer : untraced;
            CampaignReplay &replay = traced ? traced_side : plain_side;
            auto t0 = Clock::now();
            std::string bytes;
            {
                t.setTag(b);
                Tracer::Scope chunk(t, "bench.chunk", kBlockCells);
                replay.characterize(blocks[b].data(), kBlockCells,
                                    recs.data());
                bytes = replay.write(recs, dir + "/redrive.bin");
            }
            (traced ? wall_on : wall_off) += elapsedS(t0, Clock::now());
            if (bytes != first_bytes[b]) {
                etpu_warn("re-driven cache of block ", b,
                          " differs from the timed run's cache");
                res.correct = false;
            }
        }
    }

    const auto totals = tracer.totals();
    const double cells = static_cast<double>(sample.size());
    for (const char *span :
         {"nasbench.build_network", "nasbench.structural",
          "nasbench.shard_encode", "pipeline.write", "tpusim.lower",
          "tpusim.annotate", "tpusim.simulate"}) {
        layers.set(std::string(span) + "_us",
                   perCellUs(totals, span, cells));
    }
    setRunSummary(layers, tracer.coveragePct("bench.chunk"), wall_on,
                  wall_off, cpu_util);
    if (!tracer.write(opts.traceOut))
        etpu_warn("cannot write spans to ", opts.traceOut);
    std::printf("traced: %zu spans written to %s\n", tracer.spans().size(),
                opts.traceOut.c_str());

    // The gnn rows: the sample replayed through the learned backend's
    // calls (a seeded fast-profile checkpoint), so the gnn layer is
    // measured too.
    {
        const std::string model = dir + "/model.ckpt";
        writeCheckpoint(model, opts.seed);
        Tracer gnn_tracer(true);
        CampaignReplay replay(gnn_tracer, true, model);
        for (const std::vector<nas::CellSpec> &block : blocks)
            replay.characterize(block.data(), block.size(), recs.data());
        setGnnLayers(layers, gnn_tracer.totals(), cells);
    }

    // The write path's share: the sharded build against the in-memory
    // build of the same cells (alternating, best of two each).
    double sharded = 1e300, in_memory = 1e300;
    for (int round = 0; round < 2; round++) {
        auto t0 = Clock::now();
        pipeline::buildDatasetSharded(sample, cache, build);
        auto t1 = Clock::now();
        pipeline::buildDataset(sample, 1, build.backend);
        auto t2 = Clock::now();
        sharded = std::min(sharded, elapsedS(t0, t1));
        in_memory = std::min(in_memory, elapsedS(t1, t2));
    }
    layers.set("pipeline.write_overhead_pct",
               100.0 * (sharded / in_memory - 1.0));

    // The same cells at 2 workers (the task runtime), not gated.
    double one = 1e300, two = 1e300;
    pipeline::ShardedBuildOptions wide = build;
    for (int round = 0; round < 2; round++) {
        for (unsigned w : {1u, 2u}) {
            wide.threads = w;
            auto t0 = Clock::now();
            pipeline::buildDatasetSharded(sample, cache, wide);
            double &best = w == 1 ? one : two;
            best = std::min(best, elapsedS(t0, Clock::now()));
        }
    }
    layers.set("common.parallel_speedup_2w", one / two);
    return out;
}

} // namespace perfbench
