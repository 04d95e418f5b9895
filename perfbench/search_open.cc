/**
 * @file
 * search_open: the design-space search. A seeded list of 6
 * search::runSearch calls in open mode at default limits, objectives
 * latency,accuracy, budget 20,000 simulations each, alternating sa and
 * evo, at 1 worker. Set-up is the open space and the search drivers:
 * each search of the list run at the budget that only seeds it (sa: 8
 * chains, evo: a population of 24), which constructs the driver and its
 * evaluator and simulates its initial cells. The timed phase runs the
 * list in order, cycling, until the run's seconds are spent and every
 * search has run twice (about 25-35 s on a 4-vCPU VM), with one
 * set-up before each search; a repeated search must reproduce its
 * first front exactly, and so must the traced run's pass. A search's
 * time is its fastest run and setup_s the fastest set-up: the host's
 * noise only adds time.
 *
 * The traced run spans each runSearch call of one more pass and reads
 * its counts. Propose, fingerprint, evaluate and archive costs are
 * replayed from outside on seeded cells and multiplied by the counts;
 * the coverage of that product is an estimate.
 */

#include <algorithm>
#include <cstdio>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "query/pareto.hh"
#include "search/evaluate.hh"
#include "search/moves.hh"
#include "search/search.hh"
#include "stats/summary.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace etpu;

constexpr size_t kSearchesPerPass = 6;
/** Timed runs of each search at least; its latency is the fastest. */
constexpr size_t kRunsPerSearch = 2;
constexpr uint64_t kBudget = 20'000;
constexpr uint64_t kWarmupBudget = 1000;
/** Budgets that only seed a driver: SA's 8 chains, evo's population. */
constexpr uint64_t kSeedBudgetSa = 8;
constexpr uint64_t kSeedBudgetEvo = 24;
constexpr size_t kReplayCells = 2048;
constexpr size_t kReplayMoves = 200'000;
constexpr size_t kArchiveReplays = 20;

std::vector<search::SearchOptions>
searchList(uint64_t seed)
{
    auto objectives = search::parseObjectives("latency,accuracy");
    if (!objectives)
        etpu_panic("bad objective spec");
    std::vector<search::SearchOptions> list(kSearchesPerPass);
    for (size_t i = 0; i < list.size(); i++) {
        search::SearchOptions &o = list[i];
        o.seed = subSeed(seed, 300 + i);
        o.budget = kBudget;
        o.algo = i % 2 ? search::Algo::Evolution : search::Algo::Annealing;
        o.objectives = *objectives;
        o.threads = 1;
    }
    return list;
}

/** Number of front members that fail the output check. */
uint64_t
checkResult(const search::SearchResult &r, uint64_t budget)
{
    if (r.stats.simEvals > budget || r.front.empty())
        return 1;
    const bool max_x = r.objectives[0].maximize;
    const bool max_y = r.objectives[1].maximize;
    auto no_worse = [](double a, double b, bool maximize) {
        return maximize ? a >= b : a <= b;
    };
    for (const search::FrontCell &a : r.front) {
        if (!a.cell.valid())
            return 1;
        for (const search::FrontCell &b : r.front) {
            if (&a == &b)
                continue;
            bool dominated = no_worse(b.x, a.x, max_x) &&
                             no_worse(b.y, a.y, max_y) &&
                             (b.x != a.x || b.y != a.y);
            if (dominated)
                return 1;
        }
    }
    return 0;
}

/** CRC32 of a search's deterministic output (front + counts). */
uint32_t
resultCrc(const search::SearchResult &r)
{
    std::string text;
    for (const search::FrontCell &f : r.front) {
        text += f.cell.str();
        text.append(reinterpret_cast<const char *>(&f.x), sizeof(f.x));
        text.append(reinterpret_cast<const char *>(&f.y), sizeof(f.y));
        text += '\n';
    }
    const search::SearchStats &s = r.stats;
    for (uint64_t v : {s.simEvals, s.proposals, s.invalidMoves, s.restarts,
                       s.memoHits, s.generations}) {
        text.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }
    return crc32(text.data(), text.size());
}

/** Seeded valid cells: random chains walked by a few random moves. */
std::vector<nas::CellSpec>
replayCells(uint64_t seed)
{
    Rng rng(subSeed(seed, 400));
    nas::SpaceLimits limits;
    std::vector<nas::CellSpec> cells;
    while (cells.size() < kReplayCells) {
        std::vector<nas::Op> ops(1 + rng.uniformInt(5));
        for (nas::Op &op : ops)
            op = nas::interiorOps[rng.uniformInt(3)];
        nas::CellSpec cell = nas::makeChainCell(ops);
        uint64_t moves = rng.uniformInt(7);
        for (uint64_t m = 0; m < moves; m++) {
            search::MoveUndo undo;
            search::proposeMove(cell, rng, limits, undo);
        }
        cells.push_back(std::move(cell));
    }
    return cells;
}

} // namespace

WorkloadOutput
runSearchOpen(const RunOptions &opts)
{
    WorkloadOutput out;
    const std::vector<search::SearchOptions> list = searchList(opts.seed);

    // Set-up: the open space, then every search's driver seeded.
    std::vector<double> setup_s;
    search::SearchSpace space;
    auto setUp = [&] {
        auto t0 = Clock::now();
        space = search::makeOpenSpace();
        for (const search::SearchOptions &o : list) {
            search::SearchOptions seeding = o;
            seeding.budget = o.algo == search::Algo::Evolution
                                 ? kSeedBudgetEvo
                                 : kSeedBudgetSa;
            search::runSearch(space, seeding);
        }
        setup_s.push_back(elapsedS(t0, Clock::now()));
    };
    setUp();

    // Untimed warm-up: a short search of each algorithm.
    for (size_t i = 0; i < 2; i++) {
        search::SearchOptions warm = list[i];
        warm.budget = kWarmupBudget;
        search::runSearch(space, warm);
    }

    // Timed phase: searches in list order, cycling, until the seconds
    // are spent and every search has run at least twice. A search's
    // latency is its fastest run: a host slowdown during one run of
    // one search would otherwise set the p99 of so few samples.
    std::vector<uint32_t> first_crc(list.size(), 0);
    std::vector<double> best_ms(list.size(), 1e300);
    std::vector<uint64_t> sims(list.size(), 0);
    double first_pass_s = 0.0;
    uint64_t all_sims = 0, failed = 0, attempted = 0;
    uint32_t digest = 0;
    const double cpu0 = processCpuS();
    const auto start = Clock::now();
    for (size_t k = 0; k < kRunsPerSearch * list.size() ||
                       elapsedS(start, Clock::now()) < opts.seconds;
         k++) {
        const size_t i = k % list.size();
        setUp();
        auto t0 = Clock::now();
        search::SearchResult r = search::runSearch(space, list[i]);
        double s = elapsedS(t0, Clock::now());
        best_ms[i] = std::min(best_ms[i], s * 1e3);
        attempted++;
        all_sims += r.stats.simEvals;
        uint32_t crc = resultCrc(r);
        if (k < list.size()) {
            sims[i] = r.stats.simEvals;
            first_pass_s += s;
            first_crc[i] = crc;
            digest = crc32(&crc, sizeof(crc), digest);
            failed += checkResult(r, list[i].budget);
        } else if (crc != first_crc[i]) {
            failed++;
        }
    }
    const double wall = elapsedS(start, Clock::now());
    const double cpu_util = (processCpuS() - cpu0) / wall;
    std::printf("timed: %llu searches (%llu failed) in %.3f s, %llu "
                "simulations\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), wall,
                static_cast<unsigned long long>(all_sims));

    // Throughput: one pass over the list at each search's fastest run.
    double list_sims = 0.0, list_ms = 0.0;
    for (size_t i = 0; i < list.size(); i++) {
        list_sims += static_cast<double>(sims[i]);
        list_ms += best_ms[i];
    }
    Result &res = out.result;
    res.attempted = attempted;
    res.failed = failed;
    res.correct = failed == 0;
    res.add("throughput_per_s", list_sims / (list_ms * 1e-3), "1/s");
    res.add("latency_p50_ms", stats::quantile(best_ms, 0.50), "ms");
    res.add("latency_p99_ms", stats::quantile(best_ms, 0.99), "ms");
    res.add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
            "s");
    res.add("ok_rate",
            static_cast<double>(attempted - failed) /
                static_cast<double>(attempted),
            "ratio");
    res.add("peak_rss_mb", peakRssMb(), "MB");
    out.digest = "crc32=" + hex32(digest) + " (fronts and counts of " +
                 std::to_string(list.size()) + " searches, budget " +
                 std::to_string(kBudget) + ")";

    if (!opts.trace)
        return out;

    // --- Traced run ----------------------------------------------------
    LayerValues &layers = out.layers;
    Tracer tracer(true);
    search::SearchStats sum;
    double traced_s = 0.0;
    for (size_t i = 0; i < list.size(); i++) {
        tracer.setTag(i);
        auto t0 = Clock::now();
        search::SearchResult r;
        {
            Tracer::Scope s(tracer, "search.run");
            r = search::runSearch(space, list[i]);
        }
        traced_s += elapsedS(t0, Clock::now());
        if (resultCrc(r) != first_crc[i])
            res.correct = false;
        sum.proposals += r.stats.proposals;
        sum.simEvals += r.stats.simEvals;
        sum.memoHits += r.stats.memoHits;
        sum.invalidMoves += r.stats.invalidMoves;
        sum.restarts += r.stats.restarts;
    }
    layers.set("search.proposals", static_cast<double>(sum.proposals));
    layers.set("search.sim_evals", static_cast<double>(sum.simEvals));
    layers.set("search.memo_hits", static_cast<double>(sum.memoHits));
    layers.set("search.invalid_moves",
               static_cast<double>(sum.invalidMoves));
    layers.set("search.restarts", static_cast<double>(sum.restarts));
    const double proposals = static_cast<double>(sum.proposals);
    layers.set("search.sims_per_proposal",
               static_cast<double>(sum.simEvals) / proposals);
    layers.set("search.memo_hit_rate",
               static_cast<double>(sum.memoHits) / proposals);

    // Replays on seeded cells, one bulk span per layer.
    std::vector<nas::CellSpec> cells = replayCells(opts.seed);
    {
        Rng rng(subSeed(opts.seed, 401));
        nas::SpaceLimits limits;
        Tracer::Scope s(tracer, "search.propose", kReplayMoves);
        for (size_t i = 0; i < kReplayMoves; i++) {
            nas::CellSpec &cell = cells[i % cells.size()];
            search::MoveUndo undo;
            if (search::proposeMove(cell, rng, limits, undo))
                search::rollbackMove(cell, undo);
        }
    }
    uint64_t sink = 0;
    {
        Tracer::Scope s(tracer, "nasbench.fingerprint", kReplayMoves);
        for (size_t i = 0; i < kReplayMoves; i++)
            sink ^= cells[i % cells.size()].fingerprint().lo;
    }
    std::vector<search::CellMetrics> metrics(cells.size());
    {
        // One generation's batch at a time: 8 (sa chains), 24 (evo).
        search::SimEvaluator evaluator(1);
        size_t batch = 8;
        for (size_t off = 0; off < cells.size(); off += batch) {
            batch = batch == 8 ? 24 : 8;
            size_t n = std::min(batch, cells.size() - off);
            Tracer::Scope s(tracer, "tpusim.evaluate", n);
            evaluator.evaluateBatch(cells.data() + off, n,
                                    metrics.data() + off);
        }
    }
    {
        const auto &objs = list[0].objectives;
        Tracer::Scope s(tracer, "query.archive_insert",
                        kArchiveReplays * metrics.size());
        for (size_t rep = 0; rep < kArchiveReplays; rep++) {
            query::ParetoArchive2D archive(objs[0].maximize,
                                           objs[1].maximize);
            for (const search::CellMetrics &m : metrics) {
                sink += archive.insert(
                    search::objectiveValue(m, objs[0], list[0].config),
                    search::objectiveValue(m, objs[1], list[0].config));
            }
        }
    }
    std::printf("replay checksum %llu\n",
                static_cast<unsigned long long>(sink & 0xff));

    auto totals = tracer.totals();
    const double propose_us = perCallUs(totals, "search.propose");
    const double fingerprint_us = perCallUs(totals, "nasbench.fingerprint");
    const double evaluate_us = perCallUs(totals, "tpusim.evaluate");
    const double archive_us = perCallUs(totals, "query.archive_insert");
    layers.set("search.propose_us", propose_us);
    layers.set("nasbench.fingerprint_us", fingerprint_us);
    layers.set("tpusim.evaluate_us", evaluate_us);
    layers.set("query.archive_insert_us", archive_us);

    // Estimated coverage: replayed per-call costs times exact counts
    // (move draws = proposals + invalid moves; one fingerprint per
    // proposal; one evaluation and one archive insert per simulation).
    const double sims_d = static_cast<double>(sum.simEvals);
    const double moves = proposals + static_cast<double>(sum.invalidMoves);
    const double explained_us = moves * propose_us +
                                proposals * fingerprint_us +
                                sims_d * (evaluate_us + archive_us);
    const double search_total_s = tracer.totalS("search.run");
    std::printf("coverage (estimate): %.1f%% of %.3f s in runSearch\n",
                explained_us * 1e-4 / search_total_s, search_total_s);
    setRunSummary(layers, explained_us * 1e-4 / search_total_s, traced_s,
                  first_pass_s, cpu_util);
    if (!tracer.write(opts.traceOut))
        etpu_warn("cannot write spans to ", opts.traceOut);
    std::printf("traced: %zu spans written to %s\n", tracer.spans().size(),
                opts.traceOut.c_str());
    return out;
}

} // namespace perfbench
