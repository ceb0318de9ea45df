#include "common/pool.hh"

#include <atomic>
#include <bit>
#include <new>

#include <sys/mman.h>

#include "common/cache_registry.hh"

namespace diffy
{

namespace
{

/* Process-wide tallies behind the pool.* gauges. common is the leaf
 * layer, so the pool cannot publish to obs itself; obs/pool_gauges.hh
 * reads these through the static accessors. */
std::atomic<std::uint64_t> g_bytesInUse{0};
std::atomic<std::uint64_t> g_steadyFetches{0};

/* The ambient scratch resource ArenaScope installs. A raw TLS pointer
 * (not a memo cache, but registered below all the same so sweep setup
 * provably starts arena-free on reused caller threads). */
thread_local FrameArena *t_scratch = nullptr;

void
clearScratchResource()
{
    t_scratch = nullptr;
}

/**
 * A pool block of @p bytes, as mapped pages. From the general heap a
 * freed block would stay with the allocator: glibc raises its mmap
 * threshold after the first large free, and a freed 1 MiB arena slab
 * then lingers in its arenas. Mapped blocks go back to the OS when
 * the pool dies.
 */
void *
fetchBlock(std::size_t bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

} // namespace

DIFFY_REGISTER_THREAD_CACHE(common_pool_scratch, clearScratchResource);

MemoryResource &
scratchResource() noexcept
{
    if (t_scratch != nullptr)
        return *t_scratch;
    return heapResource();
}

/* ------------------------------------------------------------------ */
/* BufferPool                                                          */
/* ------------------------------------------------------------------ */

BufferPool::BufferPool() : free_(65) {}

BufferPool::~BufferPool()
{
    std::lock_guard<std::mutex> lock(mu_);
    // Bucket of size 2^k lives at index bit_width(2^k) = k + 1.
    for (std::size_t idx = 1; idx < free_.size(); ++idx) {
        const std::size_t bytes = std::size_t{1} << (idx - 1);
        for (void *p : free_[idx]) {
            ::munmap(p, bytes);
            g_bytesInUse.fetch_sub(bytes,
                                   std::memory_order_relaxed);
        }
        free_[idx].clear();
    }
}

std::size_t
BufferPool::bucketBytes(std::size_t min_bytes) noexcept
{
    return std::bit_ceil(min_bytes < 64 ? std::size_t{64}
                                        : min_bytes);
}

void *
BufferPool::acquire(std::size_t min_bytes, std::size_t &block_bytes)
{
    const std::size_t want = bucketBytes(min_bytes);
    const std::size_t idx =
        static_cast<std::size_t>(std::bit_width(want));
    block_bytes = want;
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<void *> &bin = free_[idx];
        if (!bin.empty()) {
            void *p = bin.back();
            bin.pop_back();
            ++stats_.reuses;
            return p;
        }
        ++stats_.heapFetches;
        stats_.bytesInUse += want;
        if (steady_) {
            ++stats_.steadyFetches;
            g_steadyFetches.fetch_add(1, std::memory_order_relaxed);
        }
    }
    g_bytesInUse.fetch_add(want, std::memory_order_relaxed);
    return fetchBlock(want);
}

void
BufferPool::release(void *p, std::size_t block_bytes) noexcept
{
    const std::size_t idx =
        static_cast<std::size_t>(std::bit_width(block_bytes));
    std::lock_guard<std::mutex> lock(mu_);
    free_[idx].push_back(p);
}

void
BufferPool::markSteadyState() noexcept
{
    std::lock_guard<std::mutex> lock(mu_);
    steady_ = true;
}

BufferPool::Stats
BufferPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::uint64_t
BufferPool::globalBytesInUse() noexcept
{
    return g_bytesInUse.load(std::memory_order_relaxed);
}

std::uint64_t
BufferPool::globalSteadyFetches() noexcept
{
    return g_steadyFetches.load(std::memory_order_relaxed);
}

/* ------------------------------------------------------------------ */
/* FrameArena                                                          */
/* ------------------------------------------------------------------ */

FrameArena::FrameArena(BufferPool &pool) : pool_(&pool) {}

FrameArena::~FrameArena()
{
    for (const Slab &slab : slabs_)
        pool_->release(slab.base, slab.cap);
}

void *
FrameArena::allocate(std::size_t bytes, std::size_t align)
{
    if (align < kBufferAlign)
        align = kBufferAlign;
    // Bump within the current slab, walking forward through retained
    // slabs (they may have different sizes after oversize requests).
    while (cur_ < slabs_.size()) {
        const Slab &slab = slabs_[cur_];
        const std::uintptr_t base =
            reinterpret_cast<std::uintptr_t>(slab.base);
        const std::uintptr_t aligned =
            (base + offset_ + align - 1) &
            ~(static_cast<std::uintptr_t>(align) - 1);
        const std::size_t end =
            static_cast<std::size_t>(aligned - base) + bytes;
        if (end <= slab.cap) {
            offset_ = end;
            return reinterpret_cast<void *>(aligned);
        }
        ++cur_;
        offset_ = 0;
    }
    // No retained slab fits: fetch one big enough from the pool.
    const std::size_t need =
        bytes + align > kSlabBytes ? bytes + align : kSlabBytes;
    Slab slab;
    slab.base = pool_->acquire(need, slab.cap);
    slabs_.push_back(slab);
    cur_ = slabs_.size() - 1;
    const std::uintptr_t base =
        reinterpret_cast<std::uintptr_t>(slab.base);
    const std::uintptr_t aligned =
        (base + align - 1) & ~(static_cast<std::uintptr_t>(align) - 1);
    offset_ = static_cast<std::size_t>(aligned - base) + bytes;
    return reinterpret_cast<void *>(aligned);
}

FrameArena::Checkpoint
FrameArena::checkpoint() const noexcept
{
    return Checkpoint{cur_, offset_};
}

void
FrameArena::rewind(const Checkpoint &cp) noexcept
{
    cur_ = cp.slab;
    offset_ = cp.offset;
}

/* ------------------------------------------------------------------ */
/* ArenaScope                                                          */
/* ------------------------------------------------------------------ */

ArenaScope::ArenaScope(FrameArena &arena) noexcept : prev_(t_scratch)
{
    t_scratch = &arena;
}

ArenaScope::~ArenaScope()
{
    t_scratch = prev_;
}

/* ------------------------------------------------------------------ */
/* ScratchRewind                                                       */
/* ------------------------------------------------------------------ */

ScratchRewind::ScratchRewind() noexcept
    : arena_(t_scratch)
{
    if (arena_ != nullptr)
        mark_ = arena_->checkpoint();
}

ScratchRewind::~ScratchRewind()
{
    if (arena_ != nullptr)
        arena_->rewind(mark_);
}

} // namespace diffy
