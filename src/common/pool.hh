/**
 * @file
 * Recycled aligned buffers for the frame pipeline: a size-bucketed
 * BufferPool plus a per-job FrameArena bump allocator (ROADMAP item
 * 5, modeled on tt-metal's bank/buffer split).
 *
 * Ownership and lifetime contract (DESIGN.md section 16):
 *
 *  - A BufferPool is owned by a long-lived orchestrator
 *    (StreamServer, SweepScheduler). It hands out page-aligned
 *    power-of-two blocks and keeps every freed block cached for
 *    reuse; memory returns only when the pool is destroyed. Blocks
 *    are mapped pages, so their memory goes back to the OS right
 *    then.
 *  - A FrameArena draws slabs from its pool and bump-allocates out of
 *    them. rewind() makes every past allocation invalid but keeps the
 *    slabs, so the next frame runs allocation-free once the arena has
 *    grown to the pipeline's peak working set. Arenas must be
 *    destroyed before their pool.
 *  - An ArenaScope installs an arena as the calling thread's ambient
 *    scratch resource (scratchAlloc() in common/aligned.hh). One
 *    arena may be current on at most one thread at a time — arenas
 *    are single-writer and unsynchronized; the pool's free lists are
 *    the only shared (mutex-protected) state.
 *
 * markSteadyState() flips the pool into the "warmed up" regime in
 * which any further heap fetch is a bug; the steadyFetches counter
 * (surfaced as the pool.allocs_steady_state gauge, obs/pool_gauges.hh)
 * is the CI gate proving the frame loop allocates nothing.
 */

#ifndef DIFFY_COMMON_POOL_HH
#define DIFFY_COMMON_POOL_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/aligned.hh"

namespace diffy
{

/**
 * Size-bucketed cache of mapped, page-aligned blocks. Thread-safe;
 * blocks are bucketed by power-of-two size (minimum 64 bytes) and
 * freed blocks are retained until the pool is destroyed.
 */
class BufferPool
{
  public:
    struct Stats
    {
        std::uint64_t heapFetches = 0;   ///< blocks fetched from heap
        std::uint64_t steadyFetches = 0; ///< ...after markSteadyState()
        std::uint64_t reuses = 0;        ///< acquisitions served cached
        std::uint64_t bytesInUse = 0;    ///< heap bytes owned (lent+cached)
    };

    BufferPool();
    ~BufferPool();
    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /**
     * Return a block of at least @p min_bytes (rounded up to the
     * bucket size, written to @p block_bytes). The caller must hand
     * the block back via release() with the same @p block_bytes.
     */
    void *acquire(std::size_t min_bytes, std::size_t &block_bytes);

    /** Return a block to its bucket for reuse. */
    void release(void *p, std::size_t block_bytes) noexcept;

    /**
     * Declare warmup over: any later heap fetch counts into
     * steadyFetches and the process-wide steady-allocation gauge.
     */
    void markSteadyState() noexcept;

    Stats stats() const;

    /** Bucket (power-of-two, >= 64) a request rounds up to. */
    static std::size_t bucketBytes(std::size_t min_bytes) noexcept;

    /** Heap bytes currently owned by all live pools in the process. */
    static std::uint64_t globalBytesInUse() noexcept;

    /** Heap fetches after markSteadyState(), across all pools. */
    static std::uint64_t globalSteadyFetches() noexcept;

  private:
    mutable std::mutex mu_;
    std::vector<std::vector<void *>> free_; ///< index = bit width
    Stats stats_;
    bool steady_ = false;
};

/**
 * Per-job bump allocator over pool slabs. deallocate() is a no-op;
 * rewind() recycles everything at once. Single-threaded by contract.
 */
class FrameArena final : public MemoryResource
{
  public:
    /** Default slab size; oversize requests get a dedicated slab. */
    static constexpr std::size_t kSlabBytes = std::size_t{1} << 20;

    explicit FrameArena(BufferPool &pool);
    ~FrameArena() override;
    FrameArena(const FrameArena &) = delete;
    FrameArena &operator=(const FrameArena &) = delete;

    void *allocate(std::size_t bytes, std::size_t align) override;

    void
    deallocate(void *, std::size_t, std::size_t) noexcept override
    {}

    /** A position to rewind back to; Checkpoint{} is "empty". */
    struct Checkpoint
    {
        std::size_t slab = 0;
        std::size_t offset = 0;
    };

    Checkpoint checkpoint() const noexcept;

    /**
     * Drop every allocation made after @p cp (which must have been
     * taken on this arena). Slabs are retained for reuse.
     */
    void rewind(const Checkpoint &cp) noexcept;

    /** Drop every allocation; keep all slabs. */
    void
    rewind() noexcept
    {
        rewind(Checkpoint{});
    }

    std::size_t
    slabCount() const noexcept
    {
        return slabs_.size();
    }

  private:
    struct Slab
    {
        void *base = nullptr;
        std::size_t cap = 0;
    };

    BufferPool *pool_;
    std::vector<Slab> slabs_;
    std::size_t cur_ = 0;    ///< slab the bump pointer lives in
    std::size_t offset_ = 0; ///< bump offset within slabs_[cur_]
};

/**
 * RAII: install @p arena as the calling thread's ambient scratch
 * resource (scratchResource()/scratchAlloc()); restore the previous
 * resource on destruction. Scopes nest.
 */
class ArenaScope
{
  public:
    explicit ArenaScope(FrameArena &arena) noexcept;
    ~ArenaScope();
    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    FrameArena *prev_;
};

/**
 * RAII: when the calling thread's ambient scratch resource is a
 * FrameArena, rewind it on destruction to where it stood at
 * construction, so a transient buffer that dies inside the scope
 * gives its space back to the rest of the frame instead of pinning it
 * until the frame's own rewind(). A no-op outside an ArenaScope.
 * Every arena allocation made inside the scope must be dead when the
 * scope ends.
 */
class ScratchRewind
{
  public:
    ScratchRewind() noexcept;
    ~ScratchRewind();
    ScratchRewind(const ScratchRewind &) = delete;
    ScratchRewind &operator=(const ScratchRewind &) = delete;

  private:
    FrameArena *arena_;
    FrameArena::Checkpoint mark_;
};

} // namespace diffy

#endif // DIFFY_COMMON_POOL_HH
