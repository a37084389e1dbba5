/**
 * @file
 * The traced run's layer replay. Each program's issue stream is
 * recorded once through Pipeline::onIssue; each layer's public calls
 * are then timed on that recorded stream (and on the request and
 * response bodies the serve phase captured), so every per-layer cost
 * is host time per call of one module, measured from outside it.
 *
 * Modelled-machine counts (model.*) come from the same replay's
 * timing runs: exact integers per seed, which a host-speed change must
 * leave identical.
 */

#include <cstdio>
#include <filesystem>

#include "cpu/profiler.hh"
#include "phases.hh"
#include "serve/cache.hh"
#include "serve/wire.hh"
#include "sim/config.hh"
#include "sim/request_codec.hh"
#include "sim/stats.hh"

namespace facbench
{

using namespace facsim;

namespace
{

/** Instructions recorded and replayed per program. */
constexpr uint64_t kReplayInsts = 50000;
/** Detailed instructions per drain window. */
constexpr uint64_t kDrainWindow = 3000;

/**
 * Every replay measurement is taken this many times and the median
 * reported: one pass is tens of milliseconds, short enough for a host
 * hiccup to land on it.
 */
constexpr int kRepeats = 5;

/** Defeat dead-code elimination of a replay loop's results. */
volatile uint64_t g_sink;

/** Median of @p fn() over kRepeats calls. */
template <class Fn>
double
repeated(Fn &&fn)
{
    std::vector<double> v;
    for (int i = 0; i < kRepeats; ++i)
        v.push_back(fn());
    return median(v);
}

/** Host ns per call of @p fn's @p calls calls, median of kRepeats. */
template <class Fn>
double
medianNs(uint64_t calls, Fn &&fn)
{
    return repeated([&] {
        Clock::time_point t0 = Clock::now();
        fn();
        return calls ? since(t0) * 1e9 / static_cast<double>(calls) : 0.0;
    });
}

PipelineConfig
zooConfig()
{
    PipelineConfig c = predictorPipelineConfig("fac+stride+waymemo", 32);
    c.hierarchy = modernHierarchy();
    return c;
}

struct Stream
{
    std::string workload;
    BuildOptions build;
    std::vector<ExecRecord> recs;
};

/** Per-program detailed runs of one configuration, timed. */
struct RunTotals
{
    double nsPerInst = 0.0;  ///< median over the repeats
    PipeStats st;            ///< summed counters of one pass
    uint64_t l2Accesses = 0, l2Misses = 0;
    std::vector<double> buildUs;
};

void
addStats(PipeStats &a, const PipeStats &b)
{
    a.cycles += b.cycles;
    a.insts += b.insts;
    a.loads += b.loads;
    a.stores += b.stores;
    a.dcacheAccesses += b.dcacheAccesses;
    a.dcacheMisses += b.dcacheMisses;
    a.loadsSpeculated += b.loadsSpeculated;
    a.loadSpecFailures += b.loadSpecFailures;
    a.storesSpeculated += b.storesSpeculated;
    a.storeSpecFailures += b.storeSpecFailures;
    a.strideSpeculated += b.strideSpeculated;
    a.strideSpecFailures += b.strideSpecFailures;
    a.wayMemoTagReadsSaved += b.wayMemoTagReadsSaved;
}

RunTotals
timedRuns(const std::vector<Stream> &streams, const PipelineConfig &cfg,
          const char *span, double inject)
{
    Span s(span);
    RunTotals t;
    t.nsPerInst = repeated([&] {
        bool first = t.buildUs.empty();
        double seconds = 0.0;
        uint64_t insts = 0;
        for (const Stream &st : streams) {
            Clock::time_point b0 = Clock::now();
            auto m = std::make_unique<Machine>(workload(st.workload),
                                               st.build);
            t.buildUs.push_back(since(b0) * 1e6);
            Pipeline pipe(cfg, m->emulator());
            Clock::time_point t0 = Clock::now();
            PipeStats ps = runPipeline(pipe, kReplayInsts, inject);
            seconds += since(t0);
            insts += ps.insts;
            if (!first)
                continue;
            addStats(t.st, ps);
            HierarchyStats hs = pipe.hierarchyStats();
            if (hs.levels.size() > 1) {
                t.l2Accesses += hs.levels[1].accesses;
                t.l2Misses += hs.levels[1].misses;
            }
        }
        return seconds * 1e9 / insts;
    });
    return t;
}

serve::CacheKey
keyOf(const Exchange &x)
{
    serve::CacheKey k;
    k.kind = static_cast<uint8_t>(x.timing ? serve::WireKind::Timing
                                           : serve::WireKind::Profile);
    k.requestFp = ser::fnv1a(x.request.data(), x.request.size());
    ser::TryReader r(x.request.data(), x.request.size());
    if (x.timing) {
        TimingRequest t;
        decodeTimingRequest(r, &t);
        k.configFp = configFingerprint(t.pipe);
        k.workloadFp = workloadFingerprint(t.workload, t.build);
    } else {
        ProfileRequest p;
        decodeProfileRequest(r, &p);
        k.workloadFp = workloadFingerprint(p.workload, p.build);
    }
    return k;
}

} // namespace

std::map<std::string, double>
runLayerReplay(const Options &o, const std::vector<std::string> &libraries,
               const std::vector<Exchange> &exchanges, Report &r)
{
    Span top("replay");
    const double inject = o.injectDelay;
    PipelineConfig fac = facPipelineConfig(32);
    PipelineConfig zoo = zooConfig();

    // Record every program's issue stream once.
    std::vector<Stream> streams;
    {
        Span s("replay.record");
        for (const WorkloadInfo &w : allWorkloads()) {
            Stream st;
            st.workload = w.name;
            st.build.policy = CodeGenPolicy::withSupport();
            st.build.seed = buildSeed(o);
            Machine m(w, st.build);
            Pipeline pipe(fac, m.emulator());
            st.recs.reserve(kReplayInsts);
            pipe.onIssue([&](const Pipeline::IssueEvent &e) {
                st.recs.push_back(e.rec);
            });
            pipe.run(kReplayInsts);
            streams.push_back(std::move(st));
        }
    }
    uint64_t nrec = 0, nmem = 0;
    for (const Stream &st : streams) {
        nrec += st.recs.size();
        for (const ExecRecord &e : st.recs)
            nmem += isMem(e.inst.op);
    }

    // Whole-pipeline runs: host cost per instruction, and the model.
    RunTotals tf = timedRuns(streams, fac, "replay.pipeline_fac", inject);
    RunTotals tb = timedRuns(streams, baselineConfig(32),
                             "replay.pipeline_base", inject);
    RunTotals tz = timedRuns(streams, zoo, "replay.pipeline_zoo", inject);
    r.metric("pipeline.run_ns.fac", tf.nsPerInst, "ns/inst");
    r.metric("pipeline.run_ns.base", tb.nsPerInst, "ns/inst");
    r.metric("pipeline.run_ns.modern_zoo", tz.nsPerInst, "ns/inst");
    std::vector<double> builds = tf.buildUs;
    builds.insert(builds.end(), tb.buildUs.begin(), tb.buildUs.end());
    builds.insert(builds.end(), tz.buildUs.begin(), tz.buildUs.end());
    r.metric("sim.machine_build_us", median(builds), "us");

    const PipeStats &sf = tf.st, &sz = tz.st;
    r.metric("model.ipc", ratio(sf.insts, sf.cycles), "inst/cycle");
    r.metric("model.fac_fail_rate",
             ratio(sf.loadSpecFailures + sf.storeSpecFailures,
                   sf.loadsSpeculated + sf.storesSpeculated),
             "ratio");
    r.metric("model.l1d_miss_ratio", ratio(sf.dcacheMisses,
                                           sf.dcacheAccesses), "ratio");
    r.metric("model.l2_miss_ratio", ratio(tz.l2Misses, tz.l2Accesses),
             "ratio");
    r.metric("model.stride_fail_rate",
             ratio(sz.strideSpecFailures, sz.strideSpeculated), "ratio");
    r.metric("model.waymemo_saved_frac",
             ratio(sz.wayMemoTagReadsSaved, sz.loads), "ratio");

    // Emulator: scalar step (the pipeline's feed) and threaded run.
    double step_ns, run_ns;
    {
        Span s("replay.emulator");
        step_ns = repeated([&] {
            double secs = 0.0;
            uint64_t n = 0;
            for (const Stream &st : streams) {
                Machine a(workload(st.workload), st.build);
                ExecRecord rec;
                Clock::time_point t0 = Clock::now();
                for (uint64_t i = 0;
                     i < kReplayInsts && a.emulator().step(&rec); ++i)
                    ++n;
                secs += since(t0);
            }
            return secs * 1e9 / n;
        });
        run_ns = repeated([&] {
            double secs = 0.0;
            uint64_t n = 0;
            for (const Stream &st : streams) {
                Machine b(workload(st.workload), st.build);
                Clock::time_point t0 = Clock::now();
                n += b.emulator().run(kReplayInsts);
                secs += since(t0);
            }
            return secs * 1e9 / n;
        });
    }
    r.metric("emulator.step_ns", step_ns, "ns/inst");
    r.metric("emulator.run_ns", run_ns, "ns/inst");

    // Fast-forward with functional warming, and drains between windows.
    double ff_ns, drain_us;
    {
        Span s("replay.fastforward");
        ff_ns = repeated([&] {
            double secs = 0.0;
            uint64_t n = 0;
            for (const Stream &st : streams) {
                Machine m(workload(st.workload), st.build);
                Pipeline pipe(zoo, m.emulator());
                Clock::time_point t0 = Clock::now();
                n += pipe.fastForward(kReplayInsts);
                secs += since(t0);
            }
            return secs * 1e9 / n;
        });
        drain_us = repeated([&] {
            double secs = 0.0;
            uint64_t n = 0;
            for (const Stream &st : streams) {
                Machine d(workload(st.workload), st.build);
                Pipeline dp(zoo, d.emulator());
                for (uint64_t i = kDrainWindow;
                     i <= kReplayInsts && !dp.done(); i += kDrainWindow) {
                    dp.run(i);
                    Clock::time_point d0 = Clock::now();
                    dp.drain();
                    secs += since(d0);
                    ++n;
                }
            }
            return secs * 1e6 / n;
        });
    }
    r.metric("pipeline.fastforward_ns", ff_ns, "ns/inst");
    r.metric("pipeline.drain_us", drain_us, "us");

    // Per-access layers on the recorded stream.
    double predict_ns, read_ns, access_ns, warm_ns, lp_ns, train_ns, obs_ns;
    {
        Span s("replay.layers");
        FastAddrCalc calc(fac.fac);
        predict_ns = medianNs(nmem, [&] {
            uint64_t acc = 0;
            for (const Stream &st : streams)
                for (const ExecRecord &e : st.recs)
                    if (isMem(e.inst.op))
                        acc += calc.predict(e.baseVal, e.offsetVal,
                                            e.offsetFromReg).predictedAddr;
            g_sink = acc;
        });
        read_ns = medianNs(nmem, [&] {
            uint64_t acc = 0;
            for (const Stream &st : streams) {
                Cache c(fac.dcache);
                for (const ExecRecord &e : st.recs)
                    if (isMem(e.inst.op))
                        acc += c.read(e.effAddr).hit;
            }
            g_sink = acc;
        });
        access_ns = medianNs(nmem, [&] {
            uint64_t acc = 0;
            for (const Stream &st : streams) {
                MemHierarchy h(zoo.dcache, zoo.hierarchy);
                uint64_t t = 0;
                for (const ExecRecord &e : st.recs) {
                    if (!isMem(e.inst.op))
                        continue;
                    t += 2;
                    acc += isStore(e.inst.op) ? h.write(e.effAddr, t).doneCycle
                                              : h.read(e.effAddr, t).doneCycle;
                }
            }
            g_sink = acc;
        });
        warm_ns = medianNs(nmem, [&] {
            for (const Stream &st : streams) {
                MemHierarchy h(zoo.dcache, zoo.hierarchy);
                for (const ExecRecord &e : st.recs)
                    if (isMem(e.inst.op))
                        h.warm(e.effAddr, isStore(e.inst.op));
            }
        });
        // Predict+train in program order, then train alone: predict is
        // the difference.
        double both_ns = medianNs(nmem, [&] {
            uint64_t acc = 0;
            for (const Stream &st : streams) {
                LoadPredictor lp(true, zoo.fac, zoo.pred);
                for (const ExecRecord &e : st.recs) {
                    if (!isMem(e.inst.op))
                        continue;
                    acc += lp.predict(e.pc, e.baseVal, e.offsetVal,
                                      e.offsetFromReg, e.effAddr)
                               .success;
                    lp.train(e.pc, e.effAddr);
                }
            }
            g_sink = acc;
        });
        train_ns = medianNs(nmem, [&] {
            for (const Stream &st : streams) {
                LoadPredictor lp(true, zoo.fac, zoo.pred);
                for (const ExecRecord &e : st.recs)
                    if (isMem(e.inst.op))
                        lp.train(e.pc, e.effAddr);
            }
        });
        lp_ns = both_ns - train_ns;
        obs_ns = medianNs(nrec, [&] {
            for (const Stream &st : streams) {
                Profiler prof;
                prof.addFacConfig(fac.fac);
                for (const ExecRecord &e : st.recs)
                    prof.observe(e);
                g_sink = prof.loads();
            }
        });
    }
    r.metric("fac.predict_ns", predict_ns, "ns");
    r.metric("cache.read_ns", read_ns, "ns");
    r.metric("hierarchy.access_ns", access_ns, "ns");
    r.metric("hierarchy.warm_ns", warm_ns, "ns");
    r.metric("load_predictor.predict_ns", lp_ns, "ns");
    r.metric("load_predictor.train_ns", train_ns, "ns");
    r.metric("profiler.observe_ns", obs_ns, "ns");

    // The pipeline's own cost: a FAC run minus what it spends in the
    // emulator feed, the data cache and the FAC circuit per instruction.
    double self_ns = tf.nsPerInst - step_ns -
        read_ns * ratio(sf.dcacheAccesses, sf.insts) -
        predict_ns * ratio(sf.loadsSpeculated + sf.storesSpeculated,
                           sf.insts);
    r.metric("pipeline.self_ns", self_ns, "ns/inst");

    // Live-point libraries the farm phase cut.
    {
        Span s("replay.lvpt");
        double open_s = 0.0, restore_s = 0.0;
        uint64_t restores = 0;
        PipelineConfig partner = predictorPipelineConfig("none", 32);
        partner.hierarchy = modernHierarchy();
        for (const std::string &p : libraries) {
            Clock::time_point t0 = Clock::now();
            LvptLibrary lib(p);
            open_s += since(t0);
            Machine m(workload(lib.identity().workload),
                      lib.identity().buildOptions());
            for (size_t i = 0; i < lib.numEntries() && i < 4; ++i) {
                Pipeline pipe(partner, m.emulator());
                Clock::time_point r0 = Clock::now();
                lib.restoreEntry(i, m, pipe);
                restore_s += since(r0);
                ++restores;
            }
        }
        r.metric("lvpt.open_ms", open_s * 1e3 / libraries.size(), "ms");
        r.metric("lvpt.restore_us", restore_s * 1e6 / restores, "us");
    }

    // Codec and result cache on the captured serve bodies; each loop
    // repeats so one measurement spans milliseconds, not microseconds.
    {
        Span s("replay.codec");
        constexpr int kLoops = 50;
        uint64_t n = exchanges.size() * kLoops;
        double enc_req = 0.0, dec_req = 0.0, enc_res = 0.0, dec_res = 0.0;
        std::vector<TimingRequest> treq(exchanges.size());
        std::vector<ProfileRequest> preq(exchanges.size());
        std::vector<TimingResult> tres(exchanges.size());
        std::vector<ProfileResult> pres(exchanges.size());
        dec_req = medianNs(n, [&] {
            for (int l = 0; l < kLoops; ++l)
                for (size_t i = 0; i < exchanges.size(); ++i) {
                    const std::string &b = exchanges[i].request;
                    ser::TryReader rd(b.data(), b.size());
                    if (exchanges[i].timing)
                        decodeTimingRequest(rd, &treq[i]);
                    else
                        decodeProfileRequest(rd, &preq[i]);
                }
        });
        enc_req = medianNs(n, [&] {
            uint64_t acc = 0;
            for (int l = 0; l < kLoops; ++l)
                for (size_t i = 0; i < exchanges.size(); ++i) {
                    ser::Writer w;
                    if (exchanges[i].timing)
                        encodeTimingRequest(w, treq[i]);
                    else
                        encodeProfileRequest(w, preq[i]);
                    acc += w.data().size();
                }
            g_sink = acc;
        });
        dec_res = medianNs(n, [&] {
            for (int l = 0; l < kLoops; ++l)
                for (size_t i = 0; i < exchanges.size(); ++i) {
                    const std::string &b = exchanges[i].response;
                    ser::TryReader rd(b.data(), b.size());
                    if (exchanges[i].timing)
                        decodeTimingResult(rd, &tres[i]);
                    else
                        decodeProfileResult(rd, &pres[i]);
                }
        });
        enc_res = medianNs(n, [&] {
            uint64_t acc = 0;
            for (int l = 0; l < kLoops; ++l)
                for (size_t i = 0; i < exchanges.size(); ++i) {
                    ser::Writer w;
                    if (exchanges[i].timing)
                        encodeTimingResult(w, tres[i]);
                    else
                        encodeProfileResult(w, pres[i]);
                    acc += w.data().size();
                }
            g_sink = acc;
        });
        r.metric("codec.encode_us.request", enc_req / 1e3, "us");
        r.metric("codec.decode_us.request", dec_req / 1e3, "us");
        r.metric("codec.encode_us.result", enc_res / 1e3, "us");
        r.metric("codec.decode_us.result", dec_res / 1e3, "us");

        std::vector<serve::CacheKey> keys;
        uint64_t bytes = 0;
        for (const Exchange &x : exchanges) {
            keys.push_back(keyOf(x));
            bytes += x.response.size();
        }
        // Half the payload bytes fit: inserts evict, lookups miss some.
        serve::ResultCache cache(bytes / 2);
        double ins_ns = medianNs(n, [&] {
            for (int l = 0; l < kLoops; ++l)
                for (size_t i = 0; i < exchanges.size(); ++i)
                    cache.insert(keys[i], exchanges[i].response);
        });
        std::string payload;
        double look_ns = medianNs(n, [&] {
            uint64_t acc = 0;
            for (int l = 0; l < kLoops; ++l)
                for (size_t i = 0; i < exchanges.size(); ++i)
                    acc += cache.lookup(keys[i], &payload);
            g_sink = acc;
        });
        std::string path = o.workDir + "/replay.rc";
        double save_s = medianNs(1, [&] { cache.save(path); }) / 1e9;
        double load_s = medianNs(1, [&] {
            serve::ResultCache loaded(bytes / 2);
            loaded.load(path);
        }) / 1e9;
        std::remove(path.c_str());
        r.metric("result_cache.insert_us", ins_ns / 1e3, "us");
        r.metric("result_cache.lookup_us", look_ns / 1e3, "us");
        r.metric("result_cache.save_ms", save_s * 1e3, "ms");
        r.metric("result_cache.load_ms", load_s * 1e3, "ms");
    }

    r.info("replay", "{\"programs\":" + std::to_string(streams.size()) +
                         ",\"records\":" + std::to_string(nrec) +
                         ",\"mem_records\":" + std::to_string(nmem) +
                         ",\"exchanges\":" +
                         std::to_string(exchanges.size()) + "}");
    return {{"emulator.step_ns", step_ns},
            {"fac.predict_ns", predict_ns},
            {"cache.read_ns", read_ns}};
}

} // namespace facbench
