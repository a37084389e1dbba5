/**
 * @file
 * Whole-file I/O and the sealed container shared by every file format
 * the simulator writes (checkpoints "FACSIMCK", live-point libraries
 * "FACSIMLV", the serve result cache "FACSIMRC"):
 *
 *     magic[8] | u32 version | body | u64 FNV-1a of everything before
 *
 * Files are written through one atomic writer (a sibling `.tmp` file
 * renamed into place), so a reader never sees a torn file and a failed
 * write leaves the previous file intact. Opening validates size, magic,
 * checksum and version, in that order, with a fatal front-end
 * (loadSealed) for the simulator's own files and a non-fatal one
 * (sealedDefect) for input a daemon must survive.
 */

#ifndef FACSIM_UTIL_SEALED_HH
#define FACSIM_UTIL_SEALED_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "util/serialize.hh"

namespace facsim::ser
{

/**
 * Read all of @p path into @p out, sized once from the file's length
 * and filled by one read; false when it cannot be read.
 */
bool readFile(const std::string &path, std::string *out);

/**
 * Write @p parts, in order, to `path.tmp`, then rename it over @p path.
 * On failure returns false with the reason in @p err, removes the temp
 * file and leaves any previous @p path untouched.
 */
bool writeFileAtomic(const std::string &path,
                     std::initializer_list<std::string_view> parts,
                     std::string *err);

/** One sealed file format. */
struct SealedFormat
{
    const char *magic;  ///< exactly 8 characters, e.g. "FACSIMCK"
    uint32_t version;   ///< the only version this build reads
    const char *what;   ///< "checkpoint", ... (for messages)
};

/** A Writer already holding @p fmt's magic and version. */
Writer sealedWriter(const SealedFormat &fmt);

/**
 * Write @p w (from sealedWriter), then @p tail, then the checksum
 * trailer over both to @p path atomically; false with @p err on I/O
 * failure. The tail is the rest of the body, kept in its own buffer so
 * a large body built before its header is never copied behind it.
 */
bool writeSealed(const std::string &path, const Writer &w,
                 std::string *err, std::string_view tail = {});

/**
 * Empty when @p image is a well-formed @p fmt file, else what is wrong
 * with it, phrased to follow the file's name ("is corrupted: ...").
 */
std::string sealedDefect(std::string_view image, const SealedFormat &fmt);

/** Fatal front-end: the validated image of @p path. */
std::string loadSealed(const std::string &path, const SealedFormat &fmt);

/** The body of a validated image: after the version, before the trailer. */
std::string_view sealedBody(std::string_view image);

} // namespace facsim::ser

#endif // FACSIM_UTIL_SEALED_HH
