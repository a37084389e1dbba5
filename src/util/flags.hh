/**
 * @file
 * Declarative command-line flags. A command lists every flag it reads
 * in one table of Flag rows (spelling, kind, target field, help) and
 * hands argv to parseCommandLine(), which
 *   - parses numbers through the strict util/parse.hh helpers;
 *   - rejects, with a "usage:" fatal error, an unknown flag (including
 *     one that exists for another command but not this one), a value
 *     on a switch, a missing or empty value, a stray positional
 *     argument, and two flags that write the same field (a repeated
 *     flag, or e.g. --fac beside --predictor=stride);
 *   - answers --help with text generated from the table, exit 0.
 *
 * A typo'd or misplaced flag therefore can never silently run the
 * default experiment.
 */

#ifndef FACSIM_UTIL_FLAGS_HH
#define FACSIM_UTIL_FLAGS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace facsim::flags
{

/** Whether a numeric flag accepts zero (Positive also rejects it). */
enum Bound { AnyValue, Positive };

/** One table row; build rows with the functions below. */
struct Flag
{
    /**
     * Spelling with its value placeholder: "--csv" (a switch),
     * "--max-insts=N" (value required) or "--json[=FILE]" (value
     * optional; the bare form passes the empty string to set).
     */
    const char *spec;
    const char *help;
    /**
     * The field written (null: one of its own, e.g. a global switch);
     * parseCommandLine allows one write per field.
     */
    const void *field;
    /** Store the value (empty for a switch). Unset for an alias. */
    std::function<void(const std::string &)> set;
    /** Alias: the "--flag=value" this spelling stands for. */
    const char *expands = nullptr;
    /** One-of: accepted values, listed in the help text. */
    const char *const *choices = nullptr;
};

/** Switch storing @p value (false for a "--no-rr" style switch). */
Flag boolean(const char *spec, bool *field, const char *help,
             bool value = true);
Flag u32(const char *spec, uint32_t *field, const char *help,
         Bound bound = AnyValue);
Flag u64(const char *spec, uint64_t *field, const char *help,
         Bound bound = AnyValue);
/** Floating-point value; Positive rejects anything <= 0. */
Flag real(const char *spec, double *field, const char *help,
          Bound bound = AnyValue);
/** Non-empty string (a path, a name). */
Flag text(const char *spec, std::string *field, const char *help);
/** One of the nullptr-terminated @p choices, stored verbatim. */
Flag oneOf(const char *spec, std::string *field, const char *const *choices,
           const char *help);
/** Another spelling of @p expands ("--predictor=fac"), same field. */
Flag alias(const char *spec, const char *expands, const char *help);
/** Arbitrary parser; @p set reports bad values through fatal("usage:"). */
Flag custom(const char *spec, const void *field,
            std::function<void(const std::string &)> set, const char *help);

/**
 * Apply argv[first, argc) to @p table, or exit: --help prints
 * "usage: @p command @p operands [options]" and the table (exit 0);
 * any error is a fatal "usage:" message.
 */
void parseCommandLine(const char *command, const char *operands,
                      const std::vector<Flag> &table, int argc, char **argv,
                      int first);

} // namespace facsim::flags

#endif // FACSIM_UTIL_FLAGS_HH
