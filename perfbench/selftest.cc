/**
 * @file
 * Self-tests for the benchmark's own arithmetic: the latency
 * percentiles on known inputs, self time and coverage on a hand-built
 * span tree, the serve p99 refusal under 1,000 requests, and a request
 * that fails after the client's retries lowering ok_rate. (The
 * quartiles behind the run-to-run spread live in spread.py; run.py
 * --selftest checks them.)
 *
 * Run: python3 perfbench/run.py --selftest (exit code 0 = all pass).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "client/serve_client.hh"
#include "common/socket.hh"
#include "report.hh"
#include "trace.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
expectNear(const char *what, double got, double want)
{
    bool ok = std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want));
    std::printf("%s %s: got %.15g want %.15g\n", ok ? "PASS" : "FAIL", what,
                got, want);
    failures += ok ? 0 : 1;
}

void
expectTrue(const char *what, bool cond)
{
    std::printf("%s %s\n", cond ? "PASS" : "FAIL", what);
    failures += cond ? 0 : 1;
}

void
testPercentiles()
{
    // 1..1000 ms in reverse order: ranks interpolate linearly.
    RequestOutcomes ramp;
    for (int i = 1000; i >= 1; i--)
        ramp.okLatencyMs.push_back(i);
    auto s = summarizeLatency(ramp, 1e6);
    expectTrue("1..1000 summarized", s.has_value());
    if (s) {
        expectNear("p50 of 1..1000", s->p50Ms, 500.5);
        expectNear("p99 of 1..1000", s->p99Ms, 990.01);
        expectNear("samples of 1..1000", static_cast<double>(s->samples),
                   1000);
    }
}

void
testSelfTime()
{
    // root [0,100] > A [10,40], B [50,90] > B1 [60,70] (B1 groups, is
    // no layer). Self: root 30, A 30, B 30, B1 10.
    Tracer t(true);
    uint32_t root = t.append("bench.root", 0, 0, 100);
    t.append("nasbench.a", root, 10, 40);
    uint32_t b = t.append("tpusim.b", root, 50, 90);
    t.append("bench.b1", b, 60, 70);
    auto self = t.selfTimesS();
    expectNear("self time of root", self[0], 30e-9);
    expectNear("self time of A", self[1], 30e-9);
    expectNear("self time of B", self[2], 30e-9);
    expectNear("self time of B1", self[3], 10e-9);
    expectNear("coverage of layer spans", t.coveragePct("bench.root"), 60.0);
    auto totals = t.totals();
    expectNear("total of B", totals["tpusim.b"].totalS, 40e-9);
    expectNear("self of B", totals["tpusim.b"].selfS, 30e-9);

    // Live spans nest through the scope guard.
    Tracer live(true);
    {
        Tracer::Scope outer(live, "bench.outer");
        Tracer::Scope inner(live, "query.inner", 3);
    }
    expectTrue("live spans recorded", live.spans().size() == 2);
    expectTrue("inner span's parent is outer",
               live.spans()[1].parent == 1 && live.spans()[1].calls == 3);
    Tracer off(false);
    {
        Tracer::Scope s(off, "query.ignored");
    }
    expectTrue("disabled tracer records nothing", off.spans().empty());
}

void
testLatencySummary()
{
    RequestOutcomes few;
    few.okLatencyMs.assign(999, 1.0);
    expectTrue("999 requests: p99 refused",
               !summarizeLatency(few, 1000.0).has_value());
    few.okLatencyMs.push_back(1.0);
    expectTrue("1000 requests: p99 printed",
               summarizeLatency(few, 1000.0).has_value());

    // Failures count as slower than every answered request.
    RequestOutcomes mixed;
    for (int i = 0; i < 980; i++)
        mixed.okLatencyMs.push_back(1.0 + i * 0.001);
    mixed.failed = 20;
    auto s = summarizeLatency(mixed, 5000.0);
    expectTrue("mixed outcomes summarized", s.has_value());
    if (s) {
        expectNear("p99 lands on a failure", s->p99Ms, 5000.0);
        expectNear("p50 stays on answered requests", s->p50Ms,
                   (mixed.okLatencyMs[499] + mixed.okLatencyMs[500]) / 2);
    }
    expectNear("ok_rate with 20 failures", mixed.okRate(), 0.98);
}

void
testFailedRequestLowersOkRate()
{
    // A port nothing listens on: bind an ephemeral one, then close it.
    uint16_t port = 0;
    {
        etpu::SocketFd listener = etpu::listenTcp(0, port);
        expectTrue("ephemeral port bound", listener.valid() && port != 0);
    }
    etpu::client::ClientOptions copts;
    copts.port = port;
    copts.maxAttempts = 2;
    copts.backoffBaseMs = 1;
    copts.backoffMaxMs = 2;
    copts.connectTimeoutMs = 200;
    copts.callTimeoutMs = 200;
    etpu::client::ServeClient cli(copts);
    etpu::client::CallResult r = cli.call(R"({"op":"ping"})");
    expectTrue("request fails after retries",
               !r.answered && cli.counters().failures == 1 &&
                   cli.counters().retries == 1);

    RequestOutcomes outcomes;
    outcomes.okLatencyMs.assign(1499, 1.0);
    if (!r.answered || !r.ok)
        outcomes.failed++;
    expectNear("ok_rate counts the failed request", outcomes.okRate(),
               1499.0 / 1500.0);
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testLatencySummary();
    testFailedRequestLowersOkRate();
    std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS",
                failures);
    return failures ? 1 : 0;
}
