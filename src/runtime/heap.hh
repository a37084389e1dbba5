/**
 * @file
 * Simulated dynamic storage allocator. Models the paper's malloc()/
 * alloca() behaviour: a type-less allocator that hands out addresses with
 * a configurable minimum alignment — 8 bytes normally, raised to 32 bytes
 * (the cache block size) by the software support of Section 4, since the
 * allocator lacks type information and must assume the maximum.
 *
 * Workload kernels use this host-side allocator to lay out their heap
 * data structures; the resulting pointer values (and hence their
 * alignment, which is what fast address calculation cares about) are
 * stored into simulated memory for the simulated code to chase.
 */

#ifndef FACSIM_RUNTIME_HEAP_HH
#define FACSIM_RUNTIME_HEAP_HH

#include <cstdint>

namespace facsim
{

/** Allocator behaviour knobs. */
struct HeapPolicy
{
    /** Minimum allocation alignment (8 default, 32 with support). */
    uint32_t minAlign = 8;
    /**
     * When true, requested sizes are additionally rounded so consecutive
     * allocations keep the alignment (mirrors real malloc chunk rounding).
     */
    bool roundSizes = true;
    /**
     * The paper's future-work large-alignment placement, applied to the
     * allocator: objects bigger than minAlign are aligned to their full
     * power-of-two size (capped at largeAlignCap), so array indexing
     * within them stays carry-free.
     */
    bool alignToSize = false;
    /** Cap for alignToSize (one cache's worth by default). */
    uint32_t largeAlignCap = 16 * 1024;

    /** Wire order (request codec, workloadFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        using P = HeapPolicy;
        v(&P::minAlign, &P::roundSizes, &P::alignToSize, &P::largeAlignCap);
    }
};

/** Bump allocator over the simulated heap segment. */
class Heap
{
  public:
    /**
     * @param base first heap address (from LinkedImage::heapBase).
     * @param policy alignment behaviour.
     */
    Heap(uint32_t base, HeapPolicy policy);

    /**
     * Allocate @p size bytes.
     *
     * @param size object size in bytes.
     * @param natural_align minimum alignment the object's type needs;
     *        the effective alignment is max(minAlign, natural_align).
     * @return the simulated address of the new object.
     */
    uint32_t alloc(uint32_t size, uint32_t natural_align = 1);

    /**
     * Allocate with a deliberately poor, allocator-bypassing layout —
     * models the "domain-specific storage allocators" (obstacks) the
     * paper blames for GCC's residual mispredictions: objects are packed
     * end-to-end with only 4-byte alignment regardless of policy.
     */
    uint32_t allocPacked(uint32_t size);

    /** Current top of the heap. */
    uint32_t top() const { return cur; }

    /** High-water heap usage in bytes (memory-usage statistic). */
    uint64_t usedBytes() const { return cur - base_; }

    /** Heap base address. */
    uint32_t base() const { return base_; }

  private:
    uint32_t base_;
    uint32_t cur;
    HeapPolicy pol;
};

} // namespace facsim

#endif // FACSIM_RUNTIME_HEAP_HH
