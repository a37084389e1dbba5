#include "util/flags.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"
#include "util/parse.hh"

namespace facsim::flags
{

namespace
{

/** "--max-insts=N" -> "--max-insts"; "--json[=FILE]" -> "--json". */
std::string
nameOf(const char *spec)
{
    return std::string(spec, std::strcspn(spec, "=["));
}

const Flag *
find(const std::vector<Flag> &table, const std::string &name)
{
    for (const Flag &f : table) {
        if (nameOf(f.spec) == name)
            return &f;
    }
    return nullptr;
}

/** A flag storing parse(name, value) into *field. */
template <class T, class Parse>
Flag
valued(const char *spec, T *field, const char *help, Parse parse)
{
    return {spec, help, field,
            [=, name = nameOf(spec)](const std::string &v) {
                *field = parse(name.c_str(), v);
            }};
}

void
printHelp(const char *command, const char *operands,
          const std::vector<Flag> &table)
{
    std::printf("usage: %s%s%s [options]\n\noptions:\n", command,
                *operands ? " " : "", operands);
    int width = 6;  // "--help"
    for (const Flag &f : table)
        width = std::max(width, static_cast<int>(std::strlen(f.spec)));
    for (const Flag &f : table) {
        std::string help = f.help;
        for (unsigned i = 0; f.choices && f.choices[i]; ++i)
            help += (i ? "|" : " (") + std::string(f.choices[i]);
        std::printf("  %-*s  %s%s\n", width, f.spec, help.c_str(),
                    f.choices ? ")" : "");
    }
    std::printf("  %-*s  print this help and exit\n", width, "--help");
}

} // anonymous namespace

Flag
boolean(const char *spec, bool *field, const char *help, bool value)
{
    return {spec, help, field,
            [field, value](const std::string &) { *field = value; }};
}

Flag
u32(const char *spec, uint32_t *field, const char *help, Bound bound)
{
    return valued(spec, field, help,
                  bound == Positive ? parse::u32FlagPositive
                                    : parse::u32Flag);
}

Flag
u64(const char *spec, uint64_t *field, const char *help, Bound bound)
{
    return valued(spec, field, help,
                  bound == Positive ? parse::u64FlagPositive
                                    : parse::u64Flag);
}

Flag
real(const char *spec, double *field, const char *help, Bound bound)
{
    return valued(spec, field, help,
                  [bound](const char *name, const std::string &v) {
                      double d = parse::doubleFlag(name, v);
                      if (bound == Positive && !(d > 0.0))
                          fatal("usage: %s must be positive, got '%s'",
                                name, v.c_str());
                      return d;
                  });
}

Flag
text(const char *spec, std::string *field, const char *help)
{
    return valued(spec, field, help,
                  [](const char *, const std::string &v) { return v; });
}

Flag
oneOf(const char *spec, std::string *field, const char *const *choices,
      const char *help)
{
    Flag f = valued(spec, field, help,
                    [choices](const char *name, const std::string &v) {
                        parse::oneOfFlag(name, v, choices);
                        return v;
                    });
    f.choices = choices;
    return f;
}

Flag
alias(const char *spec, const char *expands, const char *help)
{
    Flag f{spec, help, nullptr, nullptr};
    f.expands = expands;
    return f;
}

Flag
custom(const char *spec, const void *field,
       std::function<void(const std::string &)> set, const char *help)
{
    return {spec, help, field, std::move(set)};
}

void
parseCommandLine(const char *command, const char *operands,
                 const std::vector<Flag> &table, int argc, char **argv,
                 int first)
{
    for (const Flag &f : table) {
        if (find(table, nameOf(f.spec)) != &f)
            panic("%s lists %s twice", command, f.spec);
    }
    // Which flag wrote each field so far, for the one-write rule.
    std::vector<std::pair<const void *, std::string>> written;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            printHelp(command, operands, table);
            std::exit(0);
        }
        if (arg.compare(0, 2, "--") != 0)
            fatal("usage: %s: unexpected argument '%s'", command,
                  arg.c_str());
        const size_t eq = arg.find('=');
        const bool hasValue = eq != std::string::npos;
        const std::string name = arg.substr(0, eq);
        std::string value = hasValue ? arg.substr(eq + 1) : "";
        const Flag *f = find(table, name);
        if (!f)
            fatal("usage: %s does not take '%s' (see %s --help)", command,
                  arg.c_str(), command);
        const bool takesValue = std::strchr(f->spec, '=') != nullptr;
        if (hasValue && (!takesValue || value.empty()))
            fatal("usage: %s takes %s, got '%s'", name.c_str(),
                  takesValue ? "a non-empty value" : "no value",
                  arg.c_str());
        if (!hasValue && takesValue && !std::strstr(f->spec, "[="))
            fatal("usage: %s expects a value (%s)", name.c_str(), f->spec);
        if (f->expands) {
            value = std::strchr(f->expands, '=') + 1;
            f = find(table, nameOf(f->expands));
            if (!f)
                panic("%s: alias %s names a missing flag", command,
                      name.c_str());
        }

        const void *field = f->field ? f->field : f;
        for (const auto &[prev, by] : written) {
            if (prev == field && by == name)
                fatal("usage: %s given twice", name.c_str());
            if (prev == field)
                fatal("usage: %s conflicts with %s (both set the same "
                      "option)", name.c_str(), by.c_str());
        }
        written.emplace_back(field, name);
        f->set(value);
    }
}

} // namespace facsim::flags
