#include "sim/checkpoint.hh"

#include "sim/config.hh"
#include "util/logging.hh"
#include "util/sealed.hh"
#include "util/serialize.hh"

namespace facsim
{

namespace
{

const ser::SealedFormat format{"FACSIMCK", checkpointVersion, "checkpoint"};

const char *
kindName(CheckpointKind k)
{
    return k == CheckpointKind::Timing ? "timing" : "functional";
}

/** Container start: kind, identity header, pipeline fingerprint. */
ser::Writer
begin(CheckpointKind kind, const Machine &m, uint64_t pipe_fp)
{
    ser::Writer w = ser::sealedWriter(format);
    w.u8(static_cast<uint8_t>(kind));
    ser::put(w, BuildIdentity::of(m));
    w.u64(pipe_fp);
    return w;
}

void
save(const std::string &path, ser::Writer &w)
{
    std::string err;
    if (!ser::writeSealed(path, w, &err))
        fatal("cannot write checkpoint: %s", err.c_str());
}

/** Kind stored in a validated image (fatal when out of range). */
CheckpointKind
kindOf(const std::string &path, ser::Reader &r)
{
    uint8_t kind = r.u8();
    if (kind > static_cast<uint8_t>(CheckpointKind::Timing))
        fatal("checkpoint '%s' has unknown kind %u", path.c_str(), kind);
    return static_cast<CheckpointKind>(kind);
}

/**
 * Open @p path as a @p want checkpoint for @p m and return a Reader
 * positioned at the first state section; dies on any mismatch.
 */
ser::Reader
openAs(const std::string &path, const std::string &image,
       CheckpointKind want, const Machine &m, uint64_t pipe_fp)
{
    std::string_view body = ser::sealedBody(image);
    ser::Reader r(body.data(), body.size(), "checkpoint");
    CheckpointKind got = kindOf(path, r);
    if (got != want)
        fatal("checkpoint '%s' is a %s checkpoint but a %s restore was "
              "requested", path.c_str(), kindName(got), kindName(want));
    BuildIdentity id;
    ser::get(r, id);
    id.check(m, "checkpoint", path);
    uint64_t fp = r.u64();
    if (fp != pipe_fp)
        fatal("checkpoint pipeline-config fingerprint %016llx does not "
              "match this run's %016llx",
              static_cast<unsigned long long>(fp),
              static_cast<unsigned long long>(pipe_fp));
    return r;
}

} // namespace

CheckpointKind
checkpointKindOf(const std::string &path)
{
    std::string image = ser::loadSealed(path, format);
    std::string_view body = ser::sealedBody(image);
    ser::Reader r(body.data(), body.size(), "checkpoint");
    return kindOf(path, r);
}

void
saveFunctionalCheckpoint(const std::string &path, const Machine &m)
{
    ser::Writer w = begin(CheckpointKind::Functional, m, 0);
    ser::put(w, m.emulator());
    m.memory().saveState(w);
    save(path, w);
}

void
restoreFunctionalCheckpoint(const std::string &path, Machine &m)
{
    std::string image = ser::loadSealed(path, format);
    ser::Reader r = openAs(path, image, CheckpointKind::Functional, m, 0);
    ser::get(r, m.emulator());
    m.memory().loadState(r);
    r.expectEnd();
}

void
saveTimingCheckpoint(const std::string &path, const Machine &m,
                     const Pipeline &pipe)
{
    ser::Writer w =
        begin(CheckpointKind::Timing, m, configFingerprint(pipe.config()));
    ser::put(w, m.emulator());
    m.memory().saveState(w);
    ser::put(w, pipe);
    save(path, w);
}

void
restoreTimingCheckpoint(const std::string &path, Machine &m, Pipeline &pipe)
{
    std::string image = ser::loadSealed(path, format);
    ser::Reader r = openAs(path, image, CheckpointKind::Timing, m,
                         configFingerprint(pipe.config()));
    ser::get(r, m.emulator());
    m.memory().loadState(r);
    ser::get(r, pipe);
    r.expectEnd();
}

} // namespace facsim
