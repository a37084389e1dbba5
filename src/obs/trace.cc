#include "obs/trace.hh"

#include <algorithm>
#include <atomic>

#include "isa/disasm.hh"
#include "util/logging.hh"

namespace facsim::obs
{

const char *
memLevelName(uint8_t level)
{
    switch (level) {
      case 1: return "L1";
      case 2: return "L2";
      case 3: return "mem";
      default: return "-";
    }
}

namespace
{

/** FAC outcome rendered for hover text / event args. */
const char *
facOutcome(const IssueEvent &ev)
{
    if (!ev.speculated)
        return "none";
    return ev.mispredicted ? "mispredict" : "hit";
}

/**
 * Stage boundaries shared by both backends. Fetch-to-issue is the F
 * stage; X is the EX cycle; a memory access still outstanding after EX
 * renders as an M stage up to the completion cycle. Completion can be
 * reported as early as the issue cycle (an L1 hit delivers in EX), so
 * every stage is clamped to at least one cycle for visibility.
 */
struct Stages
{
    uint64_t fetch, issue, xEnd, memEnd;
    bool hasMem;
};

Stages
stagesOf(const IssueEvent &ev)
{
    Stages s{};
    s.fetch = ev.fetchCycle;
    s.issue = std::max(ev.cycle, ev.fetchCycle + 1);
    bool mem = isMem(ev.rec.inst.op);
    s.xEnd = mem ? s.issue + 1 : std::max(ev.doneCycle, s.issue + 1);
    s.memEnd = std::max(ev.doneCycle, s.xEnd);
    s.hasMem = mem && s.memEnd > s.xEnd;
    return s;
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// KonataTraceSink

KonataTraceSink::KonataTraceSink(std::ostream &out) : out_(out)
{
    out_ << "Kanata\t0004\n";
}

void
KonataTraceSink::instruction(const IssueEvent &ev)
{
    Stages s = stagesOf(ev);
    uint64_t id = nextId_++;

    // One self-contained block per instruction, jumping the clock with
    // C= at each stage boundary (Konata accepts absolute cycle sets).
    out_ << "C=\t" << s.fetch << "\n";
    out_ << "I\t" << id << "\t" << ev.seq << "\t0\n";
    out_ << "L\t" << id << "\t0\t"
         << strprintf("%08x: %s", ev.rec.pc,
                      disasm(ev.rec.inst, ev.rec.pc).c_str())
         << "\n";
    out_ << "L\t" << id << "\t1\t"
         << strprintf("seq=%llu fac=%s level=%s",
                      static_cast<unsigned long long>(ev.seq),
                      facOutcome(ev), memLevelName(ev.memLevel))
         << "\n";
    out_ << "S\t" << id << "\t0\tF\n";
    out_ << "C=\t" << s.issue << "\n";
    out_ << "E\t" << id << "\t0\tF\n";
    out_ << "S\t" << id << "\t0\tX\n";
    out_ << "C=\t" << s.xEnd << "\n";
    out_ << "E\t" << id << "\t0\tX\n";
    if (s.hasMem) {
        out_ << "S\t" << id << "\t0\tM\n";
        out_ << "C=\t" << s.memEnd << "\n";
        out_ << "E\t" << id << "\t0\tM\n";
    }
    out_ << "R\t" << id << "\t" << id << "\t0\n";
}

void
KonataTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    out_.flush();
}

// ---------------------------------------------------------------------------
// ChromeTraceSink

ChromeTraceSink::ChromeTraceSink(std::ostream &out) : out_(out)
{
    out_ << "{\"traceEvents\":[";
}

void
ChromeTraceSink::event(const char *stage, uint64_t ts, uint64_t dur,
                       const IssueEvent &ev, const std::string &text)
{
    if (!first_)
        out_ << ",";
    first_ = false;
    out_ << strprintf(
        "\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%llu,\"dur\":%llu,"
        "\"pid\":0,\"tid\":%llu,\"args\":{\"seq\":%llu,"
        "\"pc\":\"0x%08x\",\"inst\":\"%s\",\"fac\":\"%s\","
        "\"level\":\"%s\"}}",
        stage, static_cast<unsigned long long>(ts),
        static_cast<unsigned long long>(dur),
        static_cast<unsigned long long>(ev.seq % 16),
        static_cast<unsigned long long>(ev.seq), ev.rec.pc, text.c_str(),
        facOutcome(ev), memLevelName(ev.memLevel));
}

void
ChromeTraceSink::instruction(const IssueEvent &ev)
{
    // JSON-escape the disassembly conservatively: disasm() emits no
    // quotes/backslashes, but a stray control byte must not produce
    // invalid JSON.
    std::string text;
    for (char c : disasm(ev.rec.inst, ev.rec.pc)) {
        if (c == '"' || c == '\\') {
            text += '\\';
            text += c;
        } else if (static_cast<unsigned char>(c) < 0x20)
            text += strprintf("\\u%04x", c);
        else
            text += c;
    }
    Stages s = stagesOf(ev);
    event("F", s.fetch, s.issue - s.fetch, ev, text);
    event("X", s.issue, s.xEnd - s.issue, ev, text);
    if (s.hasMem)
        event("M", s.xEnd, s.memEnd - s.xEnd, ev, text);
}

void
ChromeTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    out_ << "\n]}\n";
    out_.flush();
}

// ---------------------------------------------------------------------------
// Construction helpers

bool
parseTraceFormat(const std::string &s, TraceFormat &out)
{
    if (s == "konata") {
        out = TraceFormat::Konata;
        return true;
    }
    if (s == "chrome") {
        out = TraceFormat::Chrome;
        return true;
    }
    return false;
}

std::unique_ptr<TraceSink>
makeTraceSink(TraceFormat format, std::ostream &out)
{
    if (format == TraceFormat::Chrome)
        return std::make_unique<ChromeTraceSink>(out);
    return std::make_unique<KonataTraceSink>(out);
}

std::unique_ptr<OpenTrace>
openTrace(const TraceOptions &opts)
{
    if (!opts.enabled())
        return nullptr;
    auto t = std::make_unique<OpenTrace>();
    t->file.open(opts.path, std::ios::out | std::ios::trunc);
    if (!t->file)
        fatal("cannot open trace file '%s'", opts.path.c_str());
    t->sink = makeTraceSink(opts.format, t->file);
    return t;
}

// ---------------------------------------------------------------------------
// SpanTracer

SpanTracer::SpanTracer(std::ostream &out)
    : out_(out), epoch_(Clock::now())
{
    out_ << "{\"traceEvents\":[";
}

double
SpanTracer::usSince(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

void
SpanTracer::emitLocked(const std::string &json)
{
    if (finished_)
        return;
    if (!first_)
        out_ << ",";
    first_ = false;
    out_ << "\n" << json;
}

uint64_t
SpanTracer::tidLocked(const char *role)
{
    auto it = tids_.find(std::this_thread::get_id());
    if (it != tids_.end())
        return it->second;
    uint64_t tid = tids_.size();
    tids_.emplace(std::this_thread::get_id(), tid);
    emitLocked(strprintf(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%llu,"
        "\"args\":{\"name\":\"%s-%llu\"}}",
        static_cast<unsigned long long>(tid), role ? role : "t",
        static_cast<unsigned long long>(tid)));
    return tid;
}

void
SpanTracer::instant(const char *name, uint64_t req_id)
{
    double ts = usSince(Clock::now());
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t tid = tidLocked(nullptr);
    emitLocked(strprintf(
        "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
        "\"pid\":0,\"tid\":%llu,\"args\":{\"req\":%llu}}",
        name, ts, static_cast<unsigned long long>(tid),
        static_cast<unsigned long long>(req_id)));
}

void
SpanTracer::complete(const char *name, uint64_t req_id,
                     Clock::time_point t0, Clock::time_point t1)
{
    double ts = usSince(t0);
    double dur = std::chrono::duration<double, std::micro>(t1 - t0).count();
    if (dur < 0.0)
        dur = 0.0;
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t tid = tidLocked(nullptr);
    emitLocked(strprintf(
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":0,\"tid\":%llu,\"args\":{\"req\":%llu}}",
        name, ts, dur, static_cast<unsigned long long>(tid),
        static_cast<unsigned long long>(req_id)));
}

void
SpanTracer::nameThisThread(const char *role)
{
    std::lock_guard<std::mutex> lk(mu_);
    tidLocked(role);
}

void
SpanTracer::finish()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (finished_)
        return;
    finished_ = true;
    out_ << "\n]}\n";
    out_.flush();
}

// ---------------------------------------------------------------------------
// Global span-tracer hook (consulted by obs/prof.hh scopes)

namespace
{
std::atomic<SpanTracer *> g_spanTracer{nullptr};
thread_local uint64_t t_spanReqId = 0;
} // namespace

void
setSpanTracer(SpanTracer *t)
{
    g_spanTracer.store(t, std::memory_order_release);
}

SpanTracer *
spanTracer()
{
    return g_spanTracer.load(std::memory_order_acquire);
}

uint64_t
currentSpanReqId()
{
    return t_spanReqId;
}

SpanReqScope::SpanReqScope(uint64_t req_id) : prev_(t_spanReqId)
{
    t_spanReqId = req_id;
}

SpanReqScope::~SpanReqScope()
{
    t_spanReqId = prev_;
}

} // namespace facsim::obs
