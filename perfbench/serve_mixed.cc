/**
 * @file
 * serve_mixed: the read side of the system. Input preparation
 * (untimed) characterizes every cell of the <=6-vertex sub-space
 * (64,542 cells) into a cache. Set-up is Server::start(): stream the
 * cache, build and warm the index, start 2 workers; setup_s is the
 * fastest of three set-ups before the timed phase and three after it.
 * The timed phase is
 * 2 closed-loop client::ServeClient connections on loopback, each
 * cycling through its own seeded list of count, rows, topk, pareto,
 * bucket and characterize (1-16 cells) requests whose filter
 * thresholds, k, metrics and objective pairs are drawn from the seed.
 * The op mix is bench_serve's request stream, 2:1:2:1:1:1.
 *
 * Each pass over a connection's list is a fixed unit of work; the
 * latency percentiles and throughput come from each connection's
 * fastest complete pass. The host's noise only adds time (a shared VM
 * alternates between a fast and a ~1.5x slower state every few
 * seconds), and the fastest of several passes spread over the run
 * does not jump with the share of the run spent in the slow state.
 *
 * Every first-pass response is parsed with serve/json and checked;
 * later passes must repeat it byte for byte. The traced run drives a
 * ServeEngine over the same cache with the same lines, without
 * sockets, and also calls the DatasetIndex function behind each op.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "client/serve_client.hh"
#include "common/checksum.hh"
#include "common/json_out.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/signal.hh"
#include "nasbench/dataset.hh"
#include "nasbench/enumerator.hh"
#include "pipeline/builder.hh"
#include "query/dataset_index.hh"
#include "query/row_format.hh"
#include "serve/engine.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "stats/summary.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace etpu;

constexpr unsigned kConnections = 2;
constexpr unsigned kWorkers = 2;
constexpr size_t kRequestsPerPass = 1600;
constexpr size_t kWarmupRequests = 50;
/** Set-ups before the timed phase, and again after it. */
constexpr int kSetupsEachSide = 3;
constexpr size_t kTraceChunk = 50;

/** The request ops the mix draws, in metric-name order. */
constexpr serve::RequestOp kOps[] = {
    serve::RequestOp::Count,  serve::RequestOp::Rows,
    serve::RequestOp::TopK,   serve::RequestOp::Pareto,
    serve::RequestOp::Bucket, serve::RequestOp::Characterize,
};
constexpr const char *kOpNames[] = {"count",  "rows",   "topk",
                                    "pareto", "bucket", "characterize"};
constexpr size_t kNumOps = std::size(kOps);
/**
 * Share of each op in a request list, in eighths: bench_serve's fixed
 * 8-request stream (two count, one rows, two topk, one pareto, one
 * bucket, one characterize).
 */
constexpr unsigned kOpWeights[] = {2, 1, 2, 1, 1, 1};
constexpr unsigned kWeightTotal = 8;
static_assert(kRequestsPerPass % kWeightTotal == 0);

/** One pre-generated request line and what it asks for. */
struct GenRequest
{
    std::string line;
    size_t op = 0;    //!< index into kOps
    size_t cells = 0; //!< characterize: cells requested
};

/** Draws seeded requests whose parameters come from the dataset. */
class RequestGenerator
{
  public:
    RequestGenerator(const nas::Dataset &ds, uint64_t seed)
        : ds_(ds), rng_(seed)
    {
    }

    /**
     * A list of @p n requests holding each op exactly in proportion to
     * its weight, in seeded order, so every seed sends the same mix.
     */
    std::vector<GenRequest>
    list(size_t n)
    {
        std::vector<size_t> ops;
        for (size_t o = 0; o < kNumOps; o++)
            ops.insert(ops.end(), n * kOpWeights[o] / kWeightTotal, o);
        for (size_t i = ops.size(); i > 1; i--)
            std::swap(ops[i - 1], ops[rng_.uniformInt(i)]);
        std::vector<GenRequest> out;
        for (size_t op : ops)
            out.push_back(next(op));
        return out;
    }

  private:
    GenRequest
    next(size_t op)
    {
        GenRequest g;
        g.op = op;
        std::string body;
        switch (kOps[g.op]) {
          case serve::RequestOp::Count:
            body = "\"op\":\"count\"" +
                   filterField(rng_.uniformInt(10) == 0
                                   ? 0
                                   : 1 + rng_.uniformInt(3));
            break;
          case serve::RequestOp::Rows:
            body = "\"op\":\"rows\",\"limit\":" +
                   std::to_string(1 + rng_.uniformInt(32)) +
                   filterField(1 + rng_.uniformInt(2));
            break;
          case serve::RequestOp::TopK: {
              static const char *by[] = {
                  "accuracy",   "params",     "macs",       "latency@V1",
                  "latency@V2", "latency@V3", "energy@V1",  "energy@V2",
                  "energy@V3"};
              body = "\"op\":\"topk\",\"k\":" +
                     std::to_string(1 + rng_.uniformInt(32)) +
                     ",\"by\":\"" + by[rng_.uniformInt(std::size(by))] +
                     "\",\"order\":\"" +
                     (rng_.uniformInt(2) ? "asc" : "desc") + "\"" +
                     filterField(rng_.uniformInt(2));
              break;
          }
          case serve::RequestOp::Pareto: {
              std::string cfg = std::to_string(1 + rng_.uniformInt(3));
              std::string cfg2 = std::to_string(1 + rng_.uniformInt(3));
              static const char *forms[] = {
                  "accuracy:max,latency@V%s:min",
                  "accuracy:max,energy@V%s:min",
                  "accuracy:max,params:min",
                  "latency@V%s:min,energy@V%s:min"};
              std::string spec = forms[rng_.uniformInt(std::size(forms))];
              for (const std::string *c : {&cfg, &cfg2}) {
                  size_t at = spec.find("%s");
                  if (at != std::string::npos)
                      spec.replace(at, 2, *c);
              }
              body = "\"op\":\"pareto\",\"objectives\":" +
                     jsonQuote(spec) + filterField(rng_.uniformInt(2));
              break;
          }
          case serve::RequestOp::Bucket:
            body = bucketBody() + filterField(rng_.uniformInt(2));
            break;
          default: {
              g.cells = 1 + rng_.uniformInt(16);
              body = "\"op\":\"characterize\",\"cells\":[";
              for (size_t i = 0; i < g.cells; i++) {
                  body += (i ? "," : "") +
                          jsonQuote(randomRecord().spec.str());
              }
              body += "]";
          }
        }
        g.line = "{" + body + "}";
        return g;
    }

    const nas::ModelRecord &
    randomRecord()
    {
        return ds_.records[rng_.uniformInt(ds_.size())];
    }

    /** A metric name and its value on a random record. */
    std::pair<std::string, double>
    drawMetricValue(bool integer_ok)
    {
        const nas::ModelRecord &r = randomRecord();
        int c = static_cast<int>(rng_.uniformInt(3));
        auto cfg = static_cast<size_t>(c);
        std::string v = "@V" + std::to_string(c + 1);
        switch (rng_.uniformInt(integer_ok ? 7 : 4)) {
          case 0: return {"accuracy", r.accuracy};
          case 1: return {"latency" + v, r.latencyMs[cfg]};
          case 2: return {"energy" + v, r.energyMj[cfg]};
          case 3: return {"params", static_cast<double>(r.params)};
          case 4: return {"depth", r.depth};
          case 5: return {"width", r.width};
          default: return {"conv3x3", r.numConv3x3};
        }
    }

    std::string
    filterField(uint64_t clauses)
    {
        if (!clauses)
            return "";
        static const char *ops[] = {"<", "<=", ">", ">="};
        std::string expr;
        for (uint64_t i = 0; i < clauses; i++) {
            auto [name, value] = drawMetricValue(true);
            char num[64];
            std::snprintf(num, sizeof(num), "%.6f", value);
            expr += (i ? "," : "") + name +
                    ops[rng_.uniformInt(std::size(ops))] + num;
        }
        return ",\"filter\":" + jsonQuote(expr);
    }

    std::string
    bucketBody()
    {
        static const char *aggs[] = {"accuracy",  "latency@V1",
                                     "latency@V2", "energy@V3",
                                     "params"};
        std::string agg = aggs[rng_.uniformInt(std::size(aggs))];
        if (rng_.uniformInt(2)) {
            std::string second = aggs[rng_.uniformInt(std::size(aggs))];
            if (second != agg)
                agg += "," + second;
        }
        std::string body;
        if (rng_.uniformInt(2)) {
            static const char *keys[] = {"depth",   "width",
                                         "conv3x3", "conv1x1",
                                         "maxpool", "winner"};
            body = std::string("\"op\":\"bucket\",\"key\":\"") +
                   keys[rng_.uniformInt(std::size(keys))] + "\"";
        } else {
            auto [name, first] = drawMetricValue(false);
            std::vector<double> edges = {first};
            size_t n = 2 + rng_.uniformInt(4);
            for (size_t i = 1; i < n; i++) {
                // Same metric, other records: edges from the data.
                double v = first;
                for (int tries = 0; tries < 8 && v == first; tries++) {
                    const nas::ModelRecord &r = randomRecord();
                    v = name == "accuracy" ? r.accuracy
                        : name == "params"
                            ? static_cast<double>(r.params)
                            : name.rfind("latency", 0) == 0
                                ? r.latencyMs[static_cast<size_t>(
                                      name.back() - '1')]
                                : r.energyMj[static_cast<size_t>(
                                      name.back() - '1')];
                }
                edges.push_back(v);
            }
            std::sort(edges.begin(), edges.end());
            edges.erase(std::unique(edges.begin(), edges.end()),
                        edges.end());
            if (edges.size() < 2)
                edges.push_back(edges.back() + 1.0);
            body = "\"op\":\"bucket\",\"key\":\"" + name +
                   "\",\"edges\":[";
            for (size_t i = 0; i < edges.size(); i++) {
                char num[64];
                std::snprintf(num, sizeof(num), "%.9g", edges[i]);
                body += (i ? "," : "") + std::string(num);
            }
            body += "]";
        }
        return body + ",\"agg\":" + jsonQuote(agg);
    }

    const nas::Dataset &ds_;
    Rng rng_;
};

/** The line ServeClient puts on the wire for request @p id. */
std::string
withId(const std::string &line, uint64_t id)
{
    return "{\"id\":" + std::to_string(id) + "," + line.substr(1);
}

/** Whether a first-pass response passes the output check. */
bool
responseOk(const std::string &line, const GenRequest &req)
{
    auto doc = serve::parseJson(line);
    if (!doc || !doc->isObject())
        return false;
    const serve::JsonValue *status = doc->find("status");
    if (!status || !status->isString() || status->string != "ok")
        return false;
    if (kOps[req.op] != serve::RequestOp::Characterize)
        return true;
    const serve::JsonValue *rows = doc->find("rows");
    const serve::JsonValue *total = doc->find("total");
    return rows && rows->isArray() && rows->array.size() == req.cells &&
           total && total->isNumber() &&
           total->number == static_cast<double>(req.cells);
}

/** One timed request. */
struct Sample
{
    uint32_t index = 0; //!< position in the connection's list
    uint32_t pass = 0;
    double ms = 0.0;
    bool answered = false; //!< ok response, equal to pass 0 if later
};

/** A connection's list, first-pass responses and samples. */
struct Connection
{
    std::vector<GenRequest> requests;
    std::vector<std::string> firstResponse;
    std::vector<uint32_t> firstCrc;
    std::vector<char> firstOk;
    std::vector<Sample> samples;
    /** Wall seconds of each complete pass over the list. */
    std::vector<double> passS;
    client::ClientCounters counters;
};

void
clientLoop(uint16_t port, uint64_t seed, Clock::time_point deadline,
           Connection &conn)
{
    client::ClientOptions copts;
    copts.port = port;
    copts.seed = seed;
    client::ServeClient cli(copts);
    const size_t n = conn.requests.size();
    Clock::time_point pass_start;
    for (size_t k = 0; k < n || Clock::now() < deadline; k++) {
        const size_t i = k % n;
        if (i == 0)
            pass_start = Clock::now();
        Sample s;
        s.index = static_cast<uint32_t>(i);
        s.pass = static_cast<uint32_t>(k / n);
        auto t0 = Clock::now();
        client::CallResult r = cli.call(conn.requests[i].line);
        s.ms = elapsedS(t0, Clock::now()) * 1e3;
        s.answered = r.answered && r.ok;
        if (s.answered) {
            // Later passes carry other ids; compare what follows them.
            std::string_view body(r.line);
            body.remove_prefix(std::min(body.size(), body.find(',')));
            uint32_t crc = crc32(body.data(), body.size());
            if (s.pass == 0) {
                conn.firstCrc[i] = crc;
                conn.firstResponse[i] = std::move(r.line);
            } else {
                s.answered = crc == conn.firstCrc[i];
            }
        }
        conn.samples.push_back(s);
        if (i == n - 1)
            conn.passS.push_back(elapsedS(pass_start, Clock::now()));
    }
    conn.counters = cli.counters();
}

std::unique_ptr<serve::Server>
makeServer(const std::string &cache)
{
    serve::ServerOptions so;
    so.workers = kWorkers;
    so.queueCapacity = 1024; // closed-loop clients cannot fill it
    so.engine.datasetPath = cache;
    resetShutdownSignals();
    auto server = std::make_unique<serve::Server>(std::move(so));
    if (!server->start())
        etpu_fatal("cannot bind the benchmark's listen socket");
    return server;
}

} // namespace

WorkloadOutput
runServeMixed(const RunOptions &opts)
{
    WorkloadOutput out;
    const std::string dir = opts.workDir + "/serve";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string cache = dir + "/subspace6.bin";

    // Input preparation (untimed): the <=6-vertex sub-space's cache
    // and the seeded request lists drawn from its records.
    {
        auto cells = nas::enumerateCells({6, 9});
        pipeline::ShardedBuildOptions build;
        pipeline::buildDatasetSharded(cells, cache, build);
    }
    nas::Dataset ds;
    if (!nas::Dataset::load(cache, ds))
        etpu_fatal("cannot reload the prepared cache ", cache);
    std::vector<Connection> conns(kConnections);
    for (unsigned c = 0; c < kConnections; c++) {
        RequestGenerator gen(ds, subSeed(opts.seed, 10 + c));
        Connection &conn = conns[c];
        conn.requests = gen.list(kRequestsPerPass);
        for (const GenRequest &g : conn.requests) {
            if (!serve::parseRequest(g.line).ok)
                etpu_panic("generated an invalid request: ", g.line);
        }
        conn.firstResponse.resize(kRequestsPerPass);
        conn.firstCrc.resize(kRequestsPerPass);
        conn.firstOk.resize(kRequestsPerPass);
    }

    // Set-up, repeated: Server::start() builds and warms everything.
    std::vector<double> setup_s;
    std::unique_ptr<serve::Server> server;
    auto setUp = [&] {
        server.reset();
        auto t0 = Clock::now();
        server = makeServer(cache);
        setup_s.push_back(elapsedS(t0, Clock::now()));
    };
    for (int r = 0; r < kSetupsEachSide; r++)
        setUp();
    std::thread run([&server] { server->run(); });
    const uint16_t port = server->port();

    // Untimed warm-up: both connections' first requests, concurrently.
    {
        std::vector<std::thread> warm;
        for (unsigned c = 0; c < kConnections; c++) {
            warm.emplace_back([&, c] {
                client::ClientOptions copts;
                copts.port = port;
                client::ServeClient cli(copts);
                for (size_t i = 0; i < kWarmupRequests; i++)
                    cli.call(conns[c].requests[i].line);
            });
        }
        for (std::thread &t : warm)
            t.join();
    }

    // Timed phase.
    const double cpu0 = processCpuS();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opts.seconds));
    {
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kConnections; c++) {
            clients.emplace_back(clientLoop, port,
                                 subSeed(opts.seed, 20 + c), deadline,
                                 std::ref(conns[c]));
        }
        for (std::thread &t : clients)
            t.join();
    }
    const double wall = elapsedS(start, Clock::now());
    const double cpu_util = (processCpuS() - cpu0) / wall;
    server->requestStop();
    run.join();
    const uint64_t server_overloaded = server->counters().overloaded;
    const uint64_t server_errors = server->counters().errors;
    for (int r = 0; r < kSetupsEachSide; r++)
        setUp();
    server.reset();

    // Output check: parse every first-pass response. Every request
    // counts toward ok_rate; the percentiles and throughput pool each
    // connection's fastest complete pass.
    RequestOutcomes all, best;
    double best_ok_per_s = 0.0;
    uint32_t digest = 0;
    uint64_t retries = 0, reconnects = 0;
    for (Connection &conn : conns) {
        for (size_t i = 0; i < kRequestsPerPass; i++) {
            conn.firstOk[i] =
                responseOk(conn.firstResponse[i], conn.requests[i]);
            std::string framed = conn.firstResponse[i] + "\n";
            digest = crc32(framed.data(), framed.size(), digest);
        }
        const size_t best_pass = static_cast<size_t>(
            std::min_element(conn.passS.begin(), conn.passS.end()) -
            conn.passS.begin());
        const uint64_t best_ok_before = best.okLatencyMs.size();
        for (const Sample &s : conn.samples) {
            const bool ok = s.answered && conn.firstOk[s.index];
            for (RequestOutcomes *o : {&all, &best}) {
                if (o == &best && s.pass != best_pass)
                    continue;
                if (ok)
                    o->okLatencyMs.push_back(s.ms);
                else
                    o->failed++;
            }
        }
        best_ok_per_s +=
            static_cast<double>(best.okLatencyMs.size() - best_ok_before) /
            conn.passS[best_pass];
        retries += conn.counters.retries;
        reconnects += conn.counters.reconnects;
    }
    auto latency = summarizeLatency(best, wall * 1e3);
    if (!latency) {
        etpu_fatal("serve_mixed pooled only ", best.attempted(),
                   " requests; a p99 needs at least ", minRequestsForP99);
    }
    std::printf("timed: %llu requests (%llu failed) in %.3f s over %u "
                "connections; fastest passes %.3f s, %.3f s\n",
                static_cast<unsigned long long>(all.attempted()),
                static_cast<unsigned long long>(all.failed), wall,
                kConnections,
                *std::min_element(conns[0].passS.begin(),
                                  conns[0].passS.end()),
                *std::min_element(conns[1].passS.begin(),
                                  conns[1].passS.end()));

    Result &res = out.result;
    res.attempted = all.attempted();
    res.failed = all.failed;
    res.correct = all.failed == 0;
    res.add("throughput_per_s", best_ok_per_s, "1/s");
    res.add("latency_p50_ms", latency->p50Ms, "ms");
    res.add("latency_p99_ms", latency->p99Ms, "ms");
    res.add("setup_s", *std::min_element(setup_s.begin(), setup_s.end()),
            "s");
    res.add("ok_rate", all.okRate(), "ratio");
    res.add("peak_rss_mb", peakRssMb(), "MB");
    out.digest = "crc32=" + hex32(digest) + " (first-pass response lines of " +
                 std::to_string(kConnections) + " x " +
                 std::to_string(kRequestsPerPass) + " requests)";

    if (!opts.trace)
        return out;

    // --- Traced run: the same lines through a socketless engine -------
    LayerValues &layers = out.layers;
    layers.set("serve.overloaded", static_cast<double>(server_overloaded));
    layers.set("serve.errors", static_cast<double>(server_errors));
    layers.set("client.retries", static_cast<double>(retries));
    layers.set("client.reconnects", static_cast<double>(reconnects));

    Tracer tracer(true);
    query::DatasetIndex idx;
    {
        auto t0 = Clock::now();
        if (!query::DatasetIndex::buildFromCache(cache, idx))
            etpu_fatal("cannot index ", cache);
        idx.warm(query::rowMetrics());
        layers.set("query.index_build_s", elapsedS(t0, Clock::now()));
    }
    serve::EngineOptions eopts;
    eopts.datasetPath = cache;
    serve::ServeEngine engine(eopts, 1);
    const std::vector<std::string> header =
        serve::ServeEngine::characterizeHeader();

    std::vector<std::string> exec_span(kNumOps);
    for (size_t o = 0; o < kNumOps; o++)
        exec_span[o] = std::string("serve.execute.") + kOpNames[o];
    std::vector<uint32_t> rows;
    std::vector<std::vector<std::string>> char_rows;
    auto redrive = [&](Tracer &t, unsigned c, size_t begin, size_t end) {
        Tracer::Scope root(t, "bench.chunk");
        const Connection &conn = conns[c];
        for (size_t i = begin; i < end; i++) {
            const GenRequest &g = conn.requests[i];
            t.setTag((uint64_t{c} << 32) | i);
            Tracer::Scope request(t, "bench.request");
            std::string line = withId(g.line, i + 1);
            serve::ParsedRequest p;
            {
                Tracer::Scope s(t, "serve.parse");
                p = serve::parseRequest(line);
            }
            const serve::Request &req = p.req;
            std::string response;
            {
                Tracer::Scope s(t, exec_span[g.op]);
                if (req.op == serve::RequestOp::Characterize) {
                    char_rows.clear();
                    engine.characterize(req.cells, 0, char_rows);
                    response = serve::okResponse(
                        req.id, serve::rowsPayload(header, char_rows,
                                                   char_rows.size()));
                } else {
                    response = engine.execute(req);
                }
            }
            switch (req.op) {
              case serve::RequestOp::Count:
              case serve::RequestOp::Rows: {
                  Tracer::Scope s(t, "query.filter");
                  idx.filterRows(req.filter, rows);
                  break;
              }
              case serve::RequestOp::TopK: {
                  Tracer::Scope s(t, "query.topk");
                  idx.topK(req.by, req.k, req.order, rows, &req.filter);
                  break;
              }
              case serve::RequestOp::Pareto: {
                  Tracer::Scope s(t, "query.pareto");
                  idx.paretoFront(req.objectives, rows, &req.filter);
                  break;
              }
              case serve::RequestOp::Bucket: {
                  Tracer::Scope s(t, "query.bucket");
                  if (req.edges.empty())
                      idx.groupBy(req.bucketKey, req.aggs, &req.filter);
                  else
                      idx.bucketBy(req.bucketKey, req.edges, req.aggs,
                                   &req.filter);
                  break;
              }
              default:
                break;
            }
            if (!response.empty() && response.back() == '\n')
                response.pop_back();
            if (response != conn.firstResponse[i]) {
                etpu_warn("socketless re-drive of request ", i,
                          " on connection ", c,
                          " differs from the served response");
                res.correct = false;
            }
        }
    };
    // Each chunk of requests once with spans off and once on, in
    // alternating order, so host drift hits both sides alike.
    Tracer untraced(false);
    double wall_off = 0.0, wall_on = 0.0;
    size_t chunk = 0;
    for (unsigned c = 0; c < kConnections; c++) {
        for (size_t begin = 0; begin < kRequestsPerPass;
             begin += kTraceChunk, chunk++) {
            size_t end = std::min(begin + kTraceChunk, kRequestsPerPass);
            for (int side = 0; side < 2; side++) {
                const bool traced = (chunk + side) % 2 == 1;
                auto t0 = Clock::now();
                redrive(traced ? tracer : untraced, c, begin, end);
                (traced ? wall_on : wall_off) += elapsedS(t0, Clock::now());
            }
        }
    }

    auto totals = tracer.totals();
    auto durations = [&](const std::string &name) {
        auto it = totals.find(name);
        return it == totals.end() ? std::vector<double>{}
                                  : it->second.durationsUs;
    };
    for (const char *q : {"filter", "topk", "pareto", "bucket"}) {
        auto d = durations(std::string("query.") + q);
        std::string base = std::string("query.") + q + "_us";
        layers.set(base + ".p50", stats::quantile(d, 0.50));
        layers.set(base + ".p99", stats::quantile(d, 0.99));
    }
    layers.set("serve.parse_us",
               stats::quantile(durations("serve.parse"), 0.50));
    for (size_t o = 0; o < kNumOps; o++) {
        auto d = durations(exec_span[o]);
        std::string base = std::string("serve.execute_us.") + kOpNames[o];
        layers.set(base + ".p50", stats::quantile(d, 0.50));
        layers.set(base + ".p99", stats::quantile(d, 0.99));
    }

    // Transport: the served (untraced) latency of each first-pass
    // request minus its traced parse + execute.
    std::map<uint64_t, double> server_side_us;
    const auto &names = tracer.names();
    for (const Span &s : tracer.spans()) {
        const std::string &name = names[s.name];
        if (name == "serve.parse" || name.rfind("serve.execute.", 0) == 0)
            server_side_us[s.tag] += static_cast<double>(s.durationNs()) * 1e-3;
    }
    std::vector<double> transport_us;
    std::vector<double> bytes_sum(kNumOps, 0.0), bytes_n(kNumOps, 0.0);
    for (unsigned c = 0; c < kConnections; c++) {
        const Connection &conn = conns[c];
        for (const Sample &s : conn.samples) {
            if (s.pass != 0 || !s.answered)
                continue;
            uint64_t tag = (uint64_t{c} << 32) | s.index;
            transport_us.push_back(s.ms * 1e3 - server_side_us[tag]);
        }
        for (size_t i = 0; i < kRequestsPerPass; i++) {
            size_t op = conn.requests[i].op;
            bytes_sum[op] +=
                static_cast<double>(conn.firstResponse[i].size() + 1);
            bytes_n[op] += 1.0;
        }
    }
    layers.set("serve.transport_us", stats::quantile(transport_us, 0.50));
    for (size_t o = 0; o < kNumOps; o++) {
        layers.set(std::string("serve.response_bytes.") + kOpNames[o],
                   bytes_n[o] ? bytes_sum[o] / bytes_n[o] : 0.0);
    }
    setRunSummary(layers, tracer.coveragePct("bench.chunk"), wall_on,
                  wall_off, cpu_util);
    if (!tracer.write(opts.traceOut))
        etpu_warn("cannot write spans to ", opts.traceOut);
    std::printf("traced: %zu spans written to %s\n", tracer.spans().size(),
                opts.traceOut.c_str());
    return out;
}

} // namespace perfbench
