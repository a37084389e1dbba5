/**
 * @file
 * Sparse paged main memory for the simulated machine. Pages are allocated
 * on first touch; the number of touched pages is the "memory usage" metric
 * of Tables 3 and 4 (the paper uses it as an indirect indicator of virtual
 * memory pressure from the alignment optimizations).
 *
 * The accessors are split into an inline fast path and an out-of-line
 * slow path. The fast path goes through a small direct-mapped cache of
 * page pointers: workloads interleave accesses to a handful of hot
 * regions (stack, globals, a few heap structures), which a one-entry
 * cache thrashes on, so the common case is one tag compare in a
 * 64-slot array and a memcpy — no hash lookup and no cross-TU call.
 *
 * A memory restored from a live-point window (loadWindow) holds only
 * the pages that window touches; any other page is absent, and touching
 * it is fatal. That check sits on the slow path, where an untouched
 * page would otherwise be allocated, so the fast path is unchanged.
 *
 * Thread-safety: each Memory instance is confined to one simulation;
 * concurrent access to *distinct* instances is safe (no shared state),
 * concurrent access to one instance is not (reads allocate pages and
 * update the page-pointer cache).
 */

#ifndef FACSIM_MEM_MEMORY_HH
#define FACSIM_MEM_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/serialize.hh"

namespace facsim
{

/** Byte-addressed 32-bit sparse memory. Little-endian accessors. */
class Memory
{
  public:
    /** Page size in bytes (4 KB, matching the TLB model). */
    static constexpr uint32_t pageBytes = 4096;

    /** Read one byte (allocates the page if untouched; reads as zero). */
    uint8_t
    read8(uint32_t addr)
    {
        if (uint8_t *p = cachedPage(addr / pageBytes))
            return p[addr % pageBytes];
        return read8Slow(addr);
    }

    /** Read a 16-bit little-endian value. */
    uint16_t
    read16(uint32_t addr)
    {
        uint32_t off = addr % pageBytes;
        uint8_t *p = cachedPage(addr / pageBytes);
        if (p && off + 2 <= pageBytes) {
            uint16_t v;
            std::memcpy(&v, p + off, 2);
            return v;
        }
        return read16Slow(addr);
    }

    /** Read a 32-bit little-endian value. */
    uint32_t
    read32(uint32_t addr)
    {
        uint32_t off = addr % pageBytes;
        uint8_t *p = cachedPage(addr / pageBytes);
        if (p && off + 4 <= pageBytes) {
            uint32_t v;
            std::memcpy(&v, p + off, 4);
            return v;
        }
        return read32Slow(addr);
    }

    /** Read a 64-bit little-endian value. */
    uint64_t
    read64(uint32_t addr)
    {
        uint32_t off = addr % pageBytes;
        uint8_t *p = cachedPage(addr / pageBytes);
        if (p && off + 8 <= pageBytes) {
            uint64_t v;
            std::memcpy(&v, p + off, 8);
            return v;
        }
        return read64Slow(addr);
    }

    /** Write one byte. */
    void
    write8(uint32_t addr, uint8_t v)
    {
        if (uint8_t *p = cachedPage(addr / pageBytes)) {
            p[addr % pageBytes] = v;
            return;
        }
        write8Slow(addr, v);
    }

    /** Write a 16-bit little-endian value. */
    void
    write16(uint32_t addr, uint16_t v)
    {
        uint32_t off = addr % pageBytes;
        uint8_t *p = cachedPage(addr / pageBytes);
        if (p && off + 2 <= pageBytes) {
            std::memcpy(p + off, &v, 2);
            return;
        }
        write16Slow(addr, v);
    }

    /** Write a 32-bit little-endian value. */
    void
    write32(uint32_t addr, uint32_t v)
    {
        uint32_t off = addr % pageBytes;
        uint8_t *p = cachedPage(addr / pageBytes);
        if (p && off + 4 <= pageBytes) {
            std::memcpy(p + off, &v, 4);
            return;
        }
        write32Slow(addr, v);
    }

    /** Write a 64-bit little-endian value. */
    void
    write64(uint32_t addr, uint64_t v)
    {
        uint32_t off = addr % pageBytes;
        uint8_t *p = cachedPage(addr / pageBytes);
        if (p && off + 8 <= pageBytes) {
            std::memcpy(p + off, &v, 8);
            return;
        }
        write64Slow(addr, v);
    }

    /** Copy @p bytes into memory starting at @p addr. */
    void writeBlock(uint32_t addr, const uint8_t *data, uint32_t len);

    /**
     * Compare the full contents of two memories, treating untouched
     * pages as zero-filled (touching a page never changes contents, so
     * sparseness differences are not differences).
     *
     * @param other memory to compare against.
     * @param addr set to the lowest differing byte address on mismatch.
     * @return true when the memories differ.
     */
    bool firstDifferenceWith(const Memory &other, uint32_t *addr) const;

    /** Number of distinct pages touched so far. */
    uint64_t pagesTouched() const { return pages.size(); }

    /** Total bytes of touched pages (the memory-usage statistic). */
    uint64_t memUsageBytes() const { return pages.size() * pageBytes; }

    /** Drop all contents and usage accounting; every page is present. */
    void
    clear()
    {
        pages.clear();
        window_.clear();
        flushPageCache();
    }

    /**
     * Serialize every touched page, sorted by page number so the
     * encoding is independent of hash-map iteration order: a u64
     * count, then one putPage() record per page.
     */
    void saveState(ser::Writer &w) const;

    /** Append one page record, its number then its bytes, to @p w. */
    static void
    putPage(ser::Writer &w, uint32_t pn, const uint8_t *page)
    {
        w.u32(pn);
        w.bytes(page, pageBytes);
    }

    /**
     * Replace all contents with state saved by saveState; the restored
     * touched-page set (and therefore memUsageBytes()) matches the
     * saved memory exactly.
     */
    void loadState(ser::Reader &r);

    /**
     * Replace all contents with the pages of one live-point window
     * (saveState's layout, records in any order, each page once) and
     * mark every other page absent: touching one is fatal, naming
     * @p window and the page, never a silent read of zeros.
     */
    void loadWindow(ser::Reader &r, std::string window);

    /** Sees the pages the slow path resolves, see watchPages(). */
    class PageWatcher
    {
      public:
        virtual ~PageWatcher() = default;
        /**
         * Page @p pn is about to be accessed; @p page still holds its
         * content from before that access.
         */
        virtual void pageTouched(uint32_t pn, const uint8_t *page) = 0;
    };

    /**
     * Report every page accessed from now on to @p w (nullptr stops
     * the reports). The page-pointer cache is flushed, so the next
     * access to each page takes the slow path and is reported before
     * it reads or writes; a page is reported again whenever it falls
     * out of that cache.
     */
    void
    watchPages(PageWatcher *w)
    {
        watcher_ = w;
        flushPageCache();
    }

  private:
    uint8_t *pagePtr(uint32_t addr);
    /** Replace all contents with the page records that follow in @p r. */
    void readPages(ser::Reader &r, bool ascending);
    [[noreturn]] void absentPage(uint32_t addr) const;

    void
    flushPageCache()
    {
        for (PageSlot &s : pageCache)
            s = PageSlot{};
    }

    /**
     * Direct-mapped cache slot over the page map. The sentinel page
     * number can never match a real one (32-bit addresses / 4 KB pages
     * top out at 0xfffff), so a tag match implies ptr is valid.
     */
    struct PageSlot
    {
        uint32_t num = 0xffffffffu;
        uint8_t *ptr = nullptr;
    };
    static constexpr uint32_t pageCacheSlots = 64;

    /** Cached pointer to page @p pn, or nullptr on a cache miss. */
    uint8_t *
    cachedPage(uint32_t pn)
    {
        const PageSlot &s = pageCache[pn % pageCacheSlots];
        return s.num == pn ? s.ptr : nullptr;
    }

    uint8_t read8Slow(uint32_t addr);
    uint16_t read16Slow(uint32_t addr);
    uint32_t read32Slow(uint32_t addr);
    uint64_t read64Slow(uint32_t addr);
    void write8Slow(uint32_t addr, uint8_t v);
    void write16Slow(uint32_t addr, uint16_t v);
    void write32Slow(uint32_t addr, uint32_t v);
    void write64Slow(uint32_t addr, uint64_t v);

    std::unordered_map<uint32_t, std::unique_ptr<uint8_t[]>> pages;

    std::array<PageSlot, pageCacheSlots> pageCache{};
    /** The live-point window restored by loadWindow, else empty. */
    std::string window_;
    PageWatcher *watcher_ = nullptr;
};

} // namespace facsim

#endif // FACSIM_MEM_MEMORY_HH
