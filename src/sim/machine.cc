#include "sim/machine.hh"

#include "link/linker.hh"
#include "util/logging.hh"

namespace facsim
{

Machine::Machine(const WorkloadInfo &info, const BuildOptions &options)
    : wlName(info.name), opts(options), rng(options.seed)
{
    AsmBuilder as(prog);
    WorkloadContext ctx(as, options.policy, rng, options.scale);
    info.build(ctx);

    Linker linker(options.policy.link);
    img = linker.link(prog, mem);

    heap_ = std::make_unique<Heap>(img.heapBase, options.policy.heap);
    InitContext ictx{mem, *heap_, prog, img, rng};
    ctx.runInits(ictx);

    emu = std::make_unique<Emulator>(prog, mem, img,
                                     options.policy.stack.initialSp());
}

BuildIdentity
BuildIdentity::of(const Machine &m)
{
    const BuildOptions &o = m.buildOptions();
    return {m.workloadName(), o.scale, o.seed, o.policy.softwareSupport};
}

BuildOptions
BuildIdentity::buildOptions() const
{
    BuildOptions b;
    b.policy = softwareSupport ? CodeGenPolicy::withSupport()
                               : CodeGenPolicy::baseline();
    b.scale = scale;
    b.seed = seed;
    return b;
}

void
BuildIdentity::check(const Machine &m, const char *what,
                     const std::string &path) const
{
    if (workload != m.workloadName()) {
        fatal("%s '%s' was taken from workload '%s' but this machine "
              "runs '%s'", what, path.c_str(), workload.c_str(),
              m.workloadName().c_str());
    }
    const BuildOptions &o = m.buildOptions();
    if (scale != o.scale || seed != o.seed ||
        softwareSupport != o.policy.softwareSupport) {
        fatal("%s '%s' build identity (scale %llu, seed 0x%llx, %s "
              "software support) does not match this machine (scale "
              "%llu, seed 0x%llx, %s)", what, path.c_str(),
              static_cast<unsigned long long>(scale),
              static_cast<unsigned long long>(seed),
              softwareSupport ? "with" : "without",
              static_cast<unsigned long long>(o.scale),
              static_cast<unsigned long long>(o.seed),
              o.policy.softwareSupport ? "with" : "without");
    }
}

} // namespace facsim
