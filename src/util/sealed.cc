#include "util/sealed.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>

#include "util/logging.hh"

namespace facsim::ser
{

namespace
{

constexpr size_t magicBytes = 8;
constexpr size_t headerBytes = magicBytes + 4;
constexpr size_t trailerBytes = 8;

} // namespace

bool
readFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    struct stat st;
    const size_t size = fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode)
        ? static_cast<size_t>(st.st_size) : 0;
    out->resize(size);
    out->resize(std::fread(out->data(), 1, size, f));
    // Whatever the length did not cover (a file that grew, a pipe).
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

bool
writeFileAtomic(const std::string &path,
                std::initializer_list<std::string_view> parts,
                std::string *err)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        *err = strprintf("cannot create '%s': %s", tmp.c_str(),
                         std::strerror(errno));
        return false;
    }
    bool ok = true;
    for (std::string_view p : parts)
        ok = ok && (p.empty() ||
                    std::fwrite(p.data(), 1, p.size(), f) == p.size());
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        *err = strprintf("short write to '%s'", tmp.c_str());
    } else if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        *err = strprintf("cannot rename '%s' to '%s': %s", tmp.c_str(),
                         path.c_str(), std::strerror(errno));
        ok = false;
    }
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

Writer
sealedWriter(const SealedFormat &fmt)
{
    Writer w;
    w.bytes(fmt.magic, magicBytes);
    w.u32(fmt.version);
    return w;
}

bool
writeSealed(const std::string &path, const Writer &w, std::string *err,
            std::string_view tail)
{
    uint64_t sum = fnv1a(w.data().data(), w.size());
    sum = fnv1a(tail.data(), tail.size(), sum);
    char trailer[trailerBytes];
    std::memcpy(trailer, &sum, trailerBytes);
    return writeFileAtomic(path,
                           {w.data(), tail, {trailer, trailerBytes}}, err);
}

std::string
sealedDefect(std::string_view image, const SealedFormat &fmt)
{
    if (image.size() < headerBytes + trailerBytes) {
        return strprintf("is not a facsim %s (only %zu bytes)", fmt.what,
                         image.size());
    }
    if (std::memcmp(image.data(), fmt.magic, magicBytes) != 0)
        return strprintf("is not a facsim %s (bad magic)", fmt.what);

    size_t body = image.size() - trailerBytes;
    uint64_t stored, actual = fnv1a(image.data(), body);
    std::memcpy(&stored, image.data() + body, trailerBytes);
    if (stored != actual) {
        return strprintf("is corrupted: checksum %016llx does not match "
                         "stored %016llx",
                         static_cast<unsigned long long>(actual),
                         static_cast<unsigned long long>(stored));
    }
    uint32_t version;
    std::memcpy(&version, image.data() + magicBytes, 4);
    if (version != fmt.version) {
        return strprintf("has stale format version %u; this build reads "
                         "version %u", version, fmt.version);
    }
    return std::string();
}

std::string
loadSealed(const std::string &path, const SealedFormat &fmt)
{
    std::string image;
    if (!readFile(path, &image))
        fatal("cannot open %s '%s'", fmt.what, path.c_str());
    std::string defect = sealedDefect(image, fmt);
    if (!defect.empty())
        fatal("%s '%s' %s", fmt.what, path.c_str(), defect.c_str());
    return image;
}

std::string_view
sealedBody(std::string_view image)
{
    return image.substr(headerBytes,
                        image.size() - headerBytes - trailerBytes);
}

} // namespace facsim::ser
