/**
 * @file
 * Live-telemetry unit tests: the Prometheus exposition (naming,
 * typing, cumulative histogram buckets, escaping), the client-side
 * stats sampler (JSON flattening, windowed rates, counter-reset
 * guards), the histogram percentile estimator, the host-phase
 * profiler (accumulation, cross-thread merge, reset) and the span
 * tracer's Chrome trace-event structure.
 */

#include <cmath>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "obs/prof.hh"
#include "obs/sampler.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

using namespace facsim;

// ---------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------

TEST(PromDump, NamesAreSanitizedWithThePrefix)
{
    EXPECT_EQ(obs::promName("serve.requests"), "facsim_serve_requests");
    EXPECT_EQ(obs::promName("hier.l1d.mshr-full"),
              "facsim_hier_l1d_mshr_full");
    EXPECT_EQ(obs::promName("a b/c"), "facsim_a_b_c");
}

TEST(PromDump, EveryKindGetsHelpTypeAndValueLines)
{
    uint64_t c = 0;
    double level = 2.5;
    obs::DistData d;
    obs::Registry reg;
    obs::Group &g = reg.root().group("t");
    g.counter("events", "things that happened", &c);
    ++c;
    ++c;
    g.formula("level", "current level", [&] { return level; });
    g.formula("twice", "level doubled", [&] { return level * 2; });
    g.distribution("lat", "latencies", [&] { return d; });
    d.sample(1.0);
    d.sample(3.0);

    std::string p = reg.promDump();
    EXPECT_NE(p.find("# HELP facsim_t_events things that happened"),
              std::string::npos);
    EXPECT_NE(p.find("# TYPE facsim_t_events counter"), std::string::npos);
    EXPECT_NE(p.find("facsim_t_events 2\n"), std::string::npos);
    EXPECT_NE(p.find("# TYPE facsim_t_level gauge"), std::string::npos);
    EXPECT_NE(p.find("facsim_t_level 2.5\n"), std::string::npos);
    EXPECT_NE(p.find("# TYPE facsim_t_twice gauge"), std::string::npos);
    EXPECT_NE(p.find("facsim_t_twice 5\n"), std::string::npos);
    // Distributions expose as a summary plus min/max gauges.
    EXPECT_NE(p.find("# TYPE facsim_t_lat summary"), std::string::npos);
    EXPECT_NE(p.find("facsim_t_lat_sum 4\n"), std::string::npos);
    EXPECT_NE(p.find("facsim_t_lat_count 2\n"), std::string::npos);
    EXPECT_NE(p.find("facsim_t_lat_min 1\n"), std::string::npos);
    EXPECT_NE(p.find("facsim_t_lat_max 3\n"), std::string::npos);
}

TEST(PromDump, HistogramBucketsAreCumulativeWithInf)
{
    obs::Histogram h(0.0, 10.0, 2);
    obs::Registry reg;
    reg.root().group("t").histogram("v", "values", &h);
    h.sample(-1.0);  // underflow
    h.sample(2.0);   // bucket [0,5)
    h.sample(7.0);   // bucket [5,10)
    h.sample(12.0);  // overflow

    std::string p = reg.promDump();
    EXPECT_NE(p.find("# TYPE facsim_t_v histogram"), std::string::npos);
    // Underflow seeds the first cumulative bucket: le="5" holds the
    // underflow sample plus the [0,5) one.
    EXPECT_NE(p.find("facsim_t_v_bucket{le=\"5\"} 2\n"),
              std::string::npos);
    EXPECT_NE(p.find("facsim_t_v_bucket{le=\"10\"} 3\n"),
              std::string::npos);
    // +Inf covers everything, overflow included.
    EXPECT_NE(p.find("facsim_t_v_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(p.find("facsim_t_v_count 4\n"), std::string::npos);
}

TEST(PromDump, HelpTextIsEscaped)
{
    uint64_t c = 0;
    obs::Registry reg;
    reg.root().group("t").counter("c", "line one\nline two \\ end", &c);
    std::string p = reg.promDump();
    EXPECT_NE(p.find("line one\\nline two \\\\ end"), std::string::npos);
}

// ---------------------------------------------------------------------
// Histogram percentile estimator
// ---------------------------------------------------------------------

TEST(HistogramPercentile, InterpolatesInsideTheCrossingBucket)
{
    obs::Histogram h(0.0, 100.0, 10);
    // 100 samples uniform in [0,100): percentiles track the identity.
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0 + 1e-9);
    EXPECT_NEAR(h.percentile(0.9), 90.0, 10.0 + 1e-9);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(HistogramPercentile, EdgeMassSaturatesAtTheRange)
{
    obs::Histogram h(0.0, 10.0, 2);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty
    h.sample(-5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // all underflow -> lo
    h.sample(50.0);
    h.sample(60.0);
    h.sample(70.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.9), 10.0);  // overflow -> hi
}

// ---------------------------------------------------------------------
// Stats JSON parsing + sampler
// ---------------------------------------------------------------------

TEST(StatsSampler, ParsesARealRegistryDump)
{
    uint64_t c = 1;
    obs::DistData d;
    obs::Registry reg;
    obs::Group &g = reg.root().group("serve");
    g.counter("requests", "requests", &c);
    g.distribution("lat", "latencies", [&] { return d; });
    d.sample(4.0);
    d.sample(8.0);

    obs::StatsSnapshot snap;
    std::string err;
    ASSERT_TRUE(obs::parseStatsJson(reg.jsonDump(), &snap, &err)) << err;
    EXPECT_EQ(snap["serve.requests"], 1.0);
    // Nested distribution objects flatten to dotted leaves.
    EXPECT_EQ(snap["serve.lat.count"], 2.0);
    EXPECT_EQ(snap["serve.lat.mean"], 6.0);
    // The top-level "stats" wrapper is stripped, schema_version kept.
    EXPECT_EQ(snap["schema_version"], 1.0);
    EXPECT_EQ(snap.count("stats"), 0u);
}

TEST(StatsSampler, MalformedJsonIsRejected)
{
    obs::StatsSnapshot snap;
    std::string err;
    EXPECT_FALSE(obs::parseStatsJson("", &snap, &err));
    EXPECT_FALSE(obs::parseStatsJson("{\"a\":", &snap, &err));
    EXPECT_FALSE(obs::parseStatsJson("{\"a\":1} trailing", &snap, &err));
    EXPECT_FALSE(obs::parseStatsJson("[1,2]", &snap, &err));
}

TEST(StatsSampler, WindowedRatesComeFromDeltas)
{
    obs::StatsSampler s;
    EXPECT_FALSE(s.hasWindow());
    s.push({{"reqs", 100.0}, {"gauge", 5.0}}, 10.0);
    EXPECT_FALSE(s.hasWindow());
    EXPECT_EQ(s.value("reqs"), 100.0);
    s.push({{"reqs", 150.0}, {"gauge", 3.0}}, 12.0);
    ASSERT_TRUE(s.hasWindow());
    EXPECT_DOUBLE_EQ(s.windowSeconds(), 2.0);
    EXPECT_DOUBLE_EQ(s.delta("reqs"), 50.0);
    EXPECT_DOUBLE_EQ(s.rate("reqs"), 25.0);
    EXPECT_EQ(s.value("reqs"), 150.0);
    EXPECT_EQ(s.resets(), 1u);  // the gauge went down; counted once

    // Keys missing on either side never contribute a rate.
    EXPECT_DOUBLE_EQ(s.rate("absent"), 0.0);
    EXPECT_DOUBLE_EQ(s.value("absent"), 0.0);
}

TEST(StatsSampler, CounterResetClampsTheRateToZero)
{
    obs::StatsSampler s;
    s.push({{"reqs", 1000.0}}, 0.0);
    s.push({{"reqs", 10.0}}, 1.0);  // daemon restarted mid-watch
    ASSERT_TRUE(s.hasWindow());
    EXPECT_DOUBLE_EQ(s.delta("reqs"), 0.0);
    EXPECT_DOUBLE_EQ(s.rate("reqs"), 0.0);
    EXPECT_EQ(s.resets(), 1u);

    // The next window is clean again.
    s.push({{"reqs", 30.0}}, 2.0);
    EXPECT_DOUBLE_EQ(s.rate("reqs"), 20.0);
    EXPECT_EQ(s.resets(), 1u);
}

// ---------------------------------------------------------------------
// Host-phase profiler
// ---------------------------------------------------------------------

TEST(Prof, PhaseNamesAreStable)
{
    EXPECT_STREQ(obs::profPhaseName(obs::ProfPhase::BlockTranslate),
                 "translate");
    EXPECT_STREQ(obs::profPhaseName(obs::ProfPhase::Encode), "encode");
}

TEST(Prof, ScopesAccumulateAndResetClears)
{
    if (!obs::profCompiledIn())
        GTEST_SKIP() << "built with -DFACSIM_PROF=OFF";
    obs::profReset();
    {
        FACSIM_PROF_SCOPE(Drain);
    }
    {
        FACSIM_PROF_SCOPE(Drain);
    }
    obs::DistData t = obs::profSnapshot(obs::ProfPhase::Drain);
    EXPECT_EQ(t.count, 2u);
    EXPECT_GE(t.sum, 0.0);
    EXPECT_GE(t.max, t.min);
    EXPECT_EQ(obs::profSnapshot(obs::ProfPhase::CacheSave).count, 0u);

    obs::profReset();
    EXPECT_EQ(obs::profSnapshot(obs::ProfPhase::Drain).count, 0u);
}

TEST(Prof, ThreadsMergeIntoOneTallyEvenAfterExit)
{
    if (!obs::profCompiledIn())
        GTEST_SKIP() << "built with -DFACSIM_PROF=OFF";
    obs::profReset();
    std::vector<std::thread> ts;
    for (int i = 0; i < 4; ++i) {
        ts.emplace_back([] {
            for (int j = 0; j < 10; ++j) {
                FACSIM_PROF_SCOPE(Warmup);
            }
        });
    }
    for (std::thread &t : ts)
        t.join();  // retired accumulators must still be counted
    {
        FACSIM_PROF_SCOPE(Warmup);
    }
    EXPECT_EQ(obs::profSnapshot(obs::ProfPhase::Warmup).count, 41u);
    obs::profReset();
}

TEST(Prof, RegisteredStatsRenderTheTallies)
{
    if (!obs::profCompiledIn())
        GTEST_SKIP() << "built with -DFACSIM_PROF=OFF";
    obs::profReset();
    {
        FACSIM_PROF_SCOPE(CacheLoad);
    }
    obs::Registry reg;
    obs::registerProfStats(reg.root().group("prof"));
    std::string js = reg.jsonDump();
    EXPECT_NE(js.find("\"prof.cache_load\""), std::string::npos);

    obs::StatsSnapshot snap;
    std::string err;
    ASSERT_TRUE(obs::parseStatsJson(js, &snap, &err)) << err;
    EXPECT_EQ(snap["prof.cache_load.count"], 1.0);
    EXPECT_EQ(snap["prof.translate.count"], 0.0);
    obs::profReset();
}

// ---------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------

TEST(SpanTracer, EmitsWellFormedChromeTraceEvents)
{
    std::ostringstream out;
    {
        obs::SpanTracer tr(out);
        tr.nameThisThread("conn");
        tr.instant("received", 7);
        obs::SpanTracer::Clock::time_point t0 =
            obs::SpanTracer::Clock::now();
        tr.complete("request", 7,
                    t0 - std::chrono::microseconds(50), t0);
        tr.finish();
    }
    std::string s = out.str();
    EXPECT_EQ(s.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_EQ(s.substr(s.size() - 3), "]}\n");
    EXPECT_NE(s.find("\"name\":\"thread_name\""), std::string::npos);
    EXPECT_NE(s.find("\"conn-0\""), std::string::npos);
    EXPECT_NE(s.find("\"name\":\"received\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(s.find("\"args\":{\"req\":7}"), std::string::npos);
}

TEST(SpanTracer, ThreadsGetDenseDistinctTracks)
{
    std::ostringstream out;
    obs::SpanTracer tr(out);
    tr.nameThisThread("main");
    tr.instant("a", 1);
    std::thread t([&] {
        tr.nameThisThread("worker");
        tr.instant("b", 2);
    });
    t.join();
    tr.finish();
    std::string s = out.str();
    EXPECT_NE(s.find("\"main-0\""), std::string::npos);
    EXPECT_NE(s.find("\"worker-1\""), std::string::npos);
    EXPECT_NE(s.find("\"tid\":1"), std::string::npos);
}

TEST(SpanTracer, ReqScopesNestAndRestore)
{
    EXPECT_EQ(obs::currentSpanReqId(), 0u);
    {
        obs::SpanReqScope outer(11);
        EXPECT_EQ(obs::currentSpanReqId(), 11u);
        {
            obs::SpanReqScope inner(22);
            EXPECT_EQ(obs::currentSpanReqId(), 22u);
        }
        EXPECT_EQ(obs::currentSpanReqId(), 11u);
    }
    EXPECT_EQ(obs::currentSpanReqId(), 0u);
}

TEST(SpanTracer, ProfScopesEmitSpansOnlyWhenAttached)
{
    if (!obs::profCompiledIn())
        GTEST_SKIP() << "built with -DFACSIM_PROF=OFF";
    std::ostringstream out;
    {
        obs::SpanTracer tr(out);
        obs::setSpanTracer(&tr);
        obs::SpanReqScope req(99);
        {
            FACSIM_PROF_SCOPE(Encode);
        }
        obs::setSpanTracer(nullptr);
        {
            FACSIM_PROF_SCOPE(Encode);  // detached: no event
        }
        tr.finish();
    }
    std::string s = out.str();
    size_t n = 0;
    for (size_t at = s.find("\"name\":\"encode\"");
         at != std::string::npos;
         at = s.find("\"name\":\"encode\"", at + 1))
        ++n;
    EXPECT_EQ(n, 1u);
    EXPECT_NE(s.find("\"args\":{\"req\":99}"), std::string::npos);
    obs::profReset();
}
