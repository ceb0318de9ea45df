/**
 * @file
 * BufferPool / FrameArena unit tests plus the AlignedAllocator
 * propagation regression suite (DESIGN.md §16). The propagation tests
 * pin the contract that makes mixing heap- and arena-backed vectors
 * safe: copy assignment keeps the destination's resource, move
 * assignment and swap transfer it, copy construction falls back to
 * the heap.
 */

#include <cstdint>
#include <cstring>
#include <utility>

#include <unistd.h>

#include <gtest/gtest.h>

#include "common/aligned.hh"
#include "common/pool.hh"
#include "tensor/tensor.hh"

using namespace diffy;

TEST(BufferPool, BucketsRoundUpToPow2Min64)
{
    EXPECT_EQ(BufferPool::bucketBytes(1), 64u);
    EXPECT_EQ(BufferPool::bucketBytes(64), 64u);
    EXPECT_EQ(BufferPool::bucketBytes(65), 128u);
    EXPECT_EQ(BufferPool::bucketBytes(4096), 4096u);
    EXPECT_EQ(BufferPool::bucketBytes(4097), 8192u);
}

TEST(BufferPool, ReleasedBlocksAreReused)
{
    BufferPool pool;
    std::size_t got = 0;
    void *p = pool.acquire(100, got);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(got, 128u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kBufferAlign, 0u);
    pool.release(p, got);

    std::size_t again = 0;
    void *q = pool.acquire(90, again); // same bucket
    EXPECT_EQ(q, p);
    EXPECT_EQ(again, 128u);
    pool.release(q, again);

    const BufferPool::Stats s = pool.stats();
    EXPECT_EQ(s.heapFetches, 1u);
    EXPECT_EQ(s.reuses, 1u);
    EXPECT_EQ(s.bytesInUse, 128u);
}

TEST(BufferPool, SteadyStateCountsOnlyPostMarkHeapFetches)
{
    BufferPool pool;
    std::size_t got = 0;
    void *p = pool.acquire(256, got);
    pool.release(p, got);
    EXPECT_EQ(pool.stats().steadyFetches, 0u);

    pool.markSteadyState();
    // Reuse from the bucket: not a heap fetch, gate stays green.
    void *q = pool.acquire(256, got);
    pool.release(q, got);
    EXPECT_EQ(pool.stats().steadyFetches, 0u);

    // A cold bucket after the mark is exactly what the gate catches.
    std::size_t big = 0;
    void *r = pool.acquire(100000, big);
    pool.release(r, big);
    EXPECT_EQ(pool.stats().steadyFetches, 1u);
}

TEST(BufferPool, BlocksArePagesReturnedWhenThePoolDies)
{
    const std::uint64_t before = BufferPool::globalBytesInUse();
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    {
        BufferPool pool;
        std::size_t tiny = 0;
        std::size_t mid = 0;
        std::size_t slab = 0;
        void *t = pool.acquire(1, tiny);
        void *m = pool.acquire(page + 1, mid);
        void *s = pool.acquire(FrameArena::kSlabBytes, slab);
        EXPECT_EQ(tiny, 64u);
        EXPECT_EQ(mid, 2 * page);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t) % page, 0u);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m) % page, 0u);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s) % page, 0u);
        std::memset(t, 0x3C, tiny); // every block is writable
        std::memset(m, 0xA5, mid);
        std::memset(s, 0x5A, slab);
        EXPECT_EQ(BufferPool::globalBytesInUse() - before,
                  tiny + mid + slab);

        // Released blocks stay cached (and counted) until the pool
        // dies, and a cached block is reused like any other.
        pool.release(m, mid);
        std::size_t again = 0;
        EXPECT_EQ(pool.acquire(2 * page - 1, again), m);
        pool.release(m, again);
        pool.release(s, slab);
        pool.release(t, tiny);
        EXPECT_EQ(BufferPool::globalBytesInUse() - before,
                  tiny + mid + slab);
    }
    EXPECT_EQ(BufferPool::globalBytesInUse(), before);
}

TEST(FrameArena, BumpAllocatesAlignedAndRecycles)
{
    BufferPool pool;
    FrameArena arena(pool);
    void *a = arena.allocate(100, 32);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 32, 0u);
    arena.rewind();
    // Same storage again after a rewind: the zero-allocation loop.
    void *b = arena.allocate(100, 32);
    EXPECT_EQ(b, a);
    EXPECT_EQ(arena.slabCount(), 1u);
}

TEST(FrameArena, CheckpointRewindDropsOnlyLaterAllocations)
{
    BufferPool pool;
    FrameArena arena(pool);
    void *keep = arena.allocate(64, 32);
    std::memset(keep, 0x5A, 64);
    const FrameArena::Checkpoint cp = arena.checkpoint();

    void *scratch = arena.allocate(64, 32);
    ASSERT_NE(scratch, keep);
    arena.rewind(cp);

    // The pre-checkpoint block survives untouched...
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(static_cast<unsigned char *>(keep)[i], 0x5A);
    // ...and the post-checkpoint storage is handed out again.
    void *again = arena.allocate(64, 32);
    EXPECT_EQ(again, scratch);
}

TEST(FrameArena, OversizeRequestGetsDedicatedSlab)
{
    BufferPool pool;
    FrameArena arena(pool);
    void *small = arena.allocate(64, 32);
    ASSERT_NE(small, nullptr);
    void *big = arena.allocate(FrameArena::kSlabBytes + 1, 32);
    ASSERT_NE(big, nullptr);
    EXPECT_GE(arena.slabCount(), 2u);
    // The oversize slab is retained across rewinds like any other.
    arena.rewind();
    const std::size_t slabs = arena.slabCount();
    (void)arena.allocate(FrameArena::kSlabBytes + 1, 32);
    EXPECT_EQ(arena.slabCount(), slabs);
}

TEST(ArenaScope, InstallsAndRestoresAmbientScratch)
{
    EXPECT_EQ(&scratchResource(), &heapResource());
    BufferPool pool;
    FrameArena arena(pool);
    {
        ArenaScope scope(arena);
        EXPECT_EQ(&scratchResource(), &arena);
        AlignedVec<int> v(100, 0, scratchAlloc<int>());
        // The vector's storage really came from the arena.
        EXPECT_GT(arena.checkpoint().offset, 0u);
    }
    EXPECT_EQ(&scratchResource(), &heapResource());
}

TEST(ScratchRewind, GivesTransientArenaSpaceBackToTheFrame)
{
    BufferPool pool;
    FrameArena arena(pool);
    ArenaScope scope(arena);
    AlignedVec<float> kept(64, 0.0f, scratchAlloc<float>());
    const FrameArena::Checkpoint before = arena.checkpoint();
    {
        ScratchRewind transient;
        AlignedVec<float> scratch(1000, 0.0f, scratchAlloc<float>());
        EXPECT_GT(arena.checkpoint().offset, before.offset);
    }
    EXPECT_EQ(arena.checkpoint().slab, before.slab);
    EXPECT_EQ(arena.checkpoint().offset, before.offset);
}

/* ------------------------------------------------------------------ */
/* Allocator propagation regression (the POCCA/POCMA/POCS contract)    */
/* ------------------------------------------------------------------ */

TEST(AlignedAllocatorPropagation, CopyAssignKeepsDestinationResource)
{
    BufferPool pool;
    FrameArena arena(pool);
    AlignedVec<std::int16_t> persistent(8, 1); // heap-backed state
    {
        ArenaScope scope(arena);
        AlignedVec<std::int16_t> frame(64, 7, scratchAlloc<std::int16_t>());
        // POCCA = false: the assignment copies values, the destination
        // stays on the heap — safe to keep across the arena's rewind.
        persistent = frame;
    }
    arena.rewind();
    EXPECT_EQ(persistent.get_allocator().resource(), &heapResource());
    EXPECT_EQ(persistent.size(), 64u);
    for (std::int16_t v : persistent)
        EXPECT_EQ(v, 7);
}

TEST(AlignedAllocatorPropagation, MoveAssignTransfersAllocatorAndBuffer)
{
    BufferPool pool;
    FrameArena arena(pool);
    AlignedVec<std::int16_t> dst(4, 0);
    AlignedVec<std::int16_t> src(32, 3,
                                 AlignedAllocator<std::int16_t>(&arena));
    const std::int16_t *buf = src.data();
    // POCMA = true: O(1), the buffer and its deallocator move together.
    dst = std::move(src);
    EXPECT_EQ(dst.data(), buf);
    EXPECT_EQ(dst.get_allocator().resource(), &arena);
    // Must drop the adopted arena storage before the arena dies.
    dst = AlignedVec<std::int16_t>();
}

TEST(AlignedAllocatorPropagation, SwapExchangesAllocators)
{
    BufferPool pool;
    FrameArena arena(pool);
    AlignedVec<std::int16_t> a(8, 1);
    AlignedVec<std::int16_t> b(16, 2,
                               AlignedAllocator<std::int16_t>(&arena));
    const std::int16_t *pa = a.data();
    const std::int16_t *pb = b.data();
    // POCS = true: swapping unequal allocators is well-defined (no UB)
    // and keeps each buffer paired with the resource that made it.
    a.swap(b);
    EXPECT_EQ(a.data(), pb);
    EXPECT_EQ(b.data(), pa);
    EXPECT_EQ(a.get_allocator().resource(), &arena);
    EXPECT_EQ(b.get_allocator().resource(), &heapResource());
    a = AlignedVec<std::int16_t>(); // release arena storage first
}

TEST(AlignedAllocatorPropagation, CopyConstructionNeverInheritsArena)
{
    BufferPool pool;
    FrameArena arena(pool);
    AlignedVec<std::int16_t> src(16, 9,
                                 AlignedAllocator<std::int16_t>(&arena));
    // select_on_container_copy_construction: copies default to heap.
    AlignedVec<std::int16_t> copy(src);
    EXPECT_EQ(copy.get_allocator().resource(), &heapResource());
    EXPECT_EQ(copy, src);
}

TEST(AlignedAllocatorPropagation, TensorCopyAssignFromArenaStaysHeap)
{
    BufferPool pool;
    FrameArena arena(pool);
    TensorI16 state(Shape3{2, 4, 4}, 0);
    {
        ArenaScope scope(arena);
        TensorI16 frame(Shape3{2, 4, 4}, scratchAlloc<std::int16_t>(), 5);
        // The core/temporal.cc idiom: cross-frame state is
        // copy-assigned from per-frame arena tensors and must keep
        // its heap storage through the next rewind.
        state = frame;
    }
    arena.rewind();
    EXPECT_EQ(state.at(1, 2, 3), 5);
}
