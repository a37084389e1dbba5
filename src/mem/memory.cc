#include "mem/memory.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/logging.hh"

namespace facsim
{

bool
Memory::firstDifferenceWith(const Memory &other, uint32_t *addr) const
{
    // Union of touched page numbers, in address order so the reported
    // difference is the lowest one.
    std::vector<uint32_t> pns;
    pns.reserve(pages.size() + other.pages.size());
    for (const auto &kv : pages)
        pns.push_back(kv.first);
    for (const auto &kv : other.pages)
        pns.push_back(kv.first);
    std::sort(pns.begin(), pns.end());
    pns.erase(std::unique(pns.begin(), pns.end()), pns.end());

    static const uint8_t zeros[pageBytes] = {};
    for (uint32_t pn : pns) {
        auto ia = pages.find(pn);
        auto ib = other.pages.find(pn);
        const uint8_t *pa = ia == pages.end() ? zeros : ia->second.get();
        const uint8_t *pb =
            ib == other.pages.end() ? zeros : ib->second.get();
        if (pa == pb || std::memcmp(pa, pb, pageBytes) == 0)
            continue;
        for (uint32_t i = 0; i < pageBytes; ++i) {
            if (pa[i] != pb[i]) {
                *addr = pn * pageBytes + i;
                return true;
            }
        }
    }
    return false;
}

uint8_t *
Memory::pagePtr(uint32_t addr)
{
    uint32_t pn = addr / pageBytes;
    if (uint8_t *p = cachedPage(pn))
        return p;
    auto it = pages.find(pn);
    if (it == pages.end()) {
        if (!window_.empty())
            absentPage(addr);
        auto page = std::make_unique<uint8_t[]>(pageBytes);
        std::memset(page.get(), 0, pageBytes);
        it = pages.emplace(pn, std::move(page)).first;
    }
    if (watcher_)
        watcher_->pageTouched(pn, it->second.get());
    pageCache[pn % pageCacheSlots] = {pn, it->second.get()};
    return it->second.get();
}

void
Memory::absentPage(uint32_t addr) const
{
    fatal("%s does not hold page %05x (address %08x): the run left the "
          "pages its window saved", window_.c_str(), addr / pageBytes,
          addr);
}

uint8_t
Memory::read8Slow(uint32_t addr)
{
    return pagePtr(addr)[addr % pageBytes];
}

uint16_t
Memory::read16Slow(uint32_t addr)
{
    return static_cast<uint16_t>(read8(addr)) |
        (static_cast<uint16_t>(read8(addr + 1)) << 8);
}

uint32_t
Memory::read32Slow(uint32_t addr)
{
    uint32_t off = addr % pageBytes;
    if (off + 4 <= pageBytes) {
        uint32_t v;
        std::memcpy(&v, pagePtr(addr) + off, 4);
        return v;
    }
    return static_cast<uint32_t>(read16(addr)) |
        (static_cast<uint32_t>(read16(addr + 2)) << 16);
}

uint64_t
Memory::read64Slow(uint32_t addr)
{
    uint32_t off = addr % pageBytes;
    if (off + 8 <= pageBytes) {
        uint64_t v;
        std::memcpy(&v, pagePtr(addr) + off, 8);
        return v;
    }
    return static_cast<uint64_t>(read32(addr)) |
        (static_cast<uint64_t>(read32(addr + 4)) << 32);
}

void
Memory::write8Slow(uint32_t addr, uint8_t v)
{
    pagePtr(addr)[addr % pageBytes] = v;
}

void
Memory::write16Slow(uint32_t addr, uint16_t v)
{
    write8(addr, static_cast<uint8_t>(v));
    write8(addr + 1, static_cast<uint8_t>(v >> 8));
}

void
Memory::write32Slow(uint32_t addr, uint32_t v)
{
    uint32_t off = addr % pageBytes;
    if (off + 4 <= pageBytes) {
        std::memcpy(pagePtr(addr) + off, &v, 4);
        return;
    }
    write16(addr, static_cast<uint16_t>(v));
    write16(addr + 2, static_cast<uint16_t>(v >> 16));
}

void
Memory::write64Slow(uint32_t addr, uint64_t v)
{
    uint32_t off = addr % pageBytes;
    if (off + 8 <= pageBytes) {
        std::memcpy(pagePtr(addr) + off, &v, 8);
        return;
    }
    write32(addr, static_cast<uint32_t>(v));
    write32(addr + 4, static_cast<uint32_t>(v >> 32));
}

void
Memory::writeBlock(uint32_t addr, const uint8_t *data, uint32_t len)
{
    for (uint32_t i = 0; i < len; ++i)
        write8(addr + i, data[i]);
}

void
Memory::saveState(ser::Writer &w) const
{
    std::vector<uint32_t> pns;
    pns.reserve(pages.size());
    for (const auto &kv : pages)
        pns.push_back(kv.first);
    std::sort(pns.begin(), pns.end());

    w.u64(pns.size());
    for (uint32_t pn : pns)
        putPage(w, pn, pages.at(pn).get());
}

void
Memory::readPages(ser::Reader &r, bool ascending)
{
    clear();
    uint64_t n = r.u64();
    uint32_t prev = 0;
    for (uint64_t i = 0; i < n; ++i) {
        uint32_t pn = r.u32();
        // saveState writes strictly ascending page numbers.
        if (ascending && i > 0 && pn <= prev)
            r.fail(strprintf("memory page %08x stored after page %08x",
                             pn, prev));
        prev = pn;
        auto page = std::make_unique<uint8_t[]>(pageBytes);
        r.bytes(page.get(), pageBytes);
        if (!pages.emplace(pn, std::move(page)).second)
            r.fail(strprintf("memory page %08x stored twice", pn));
    }
}

void
Memory::loadState(ser::Reader &r)
{
    readPages(r, true);
}

void
Memory::loadWindow(ser::Reader &r, std::string window)
{
    readPages(r, false);
    window_ = std::move(window);
}

} // namespace facsim
