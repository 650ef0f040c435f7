/**
 * @file
 * Unit tests for CMP-NuRAPID's tag and data arrays: forward/reverse
 * pointers, category-prioritized tag replacement (the ranked victim
 * scan of SetAssocArray), frame allocation, the per-block frame count,
 * and checkpoint validation.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "cache/set_assoc.hh"
#include "common/bytes.hh"
#include "common/rng.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"
#include "nurapid/data_array.hh"
#include "nurapid/tag_entry.hh"

namespace cnsim
{
namespace
{

/** A tag array of @p sets x @p ways, as CmpNurapid builds one per core. */
SetAssocArray<TagEntry>
tagArray(unsigned sets, unsigned ways)
{
    return SetAssocArray<TagEntry>(sets, ways, 128);
}

/** Install @p addr in @p state through the ranked victim scan. */
TagEntry *
install(SetAssocArray<TagEntry> &t, Addr addr, CohState state)
{
    TagEntry *e = t.victim(addr, tagRank);
    t.setTag(e, addr);
    e->state = state;
    t.touch(e);
    return e;
}

TEST(NurapidTags, FindAfterInstall)
{
    auto t = tagArray(4, 2);
    EXPECT_EQ(t.validCount(), 0u);
    TagEntry *v = install(t, 0x1000, CohState::Exclusive);
    EXPECT_EQ(t.find(0x1000), v);
    EXPECT_EQ(t.find(0x1040), v);  // same 128 B block
    EXPECT_EQ(t.find(0x2000), nullptr);
    install(t, 0x2000, CohState::Shared);
    EXPECT_EQ(t.validCount(), 2u);
    t.invalidate(v);
    EXPECT_EQ(t.find(0x1000), nullptr);
    EXPECT_EQ(t.validCount(), 1u);
}

TEST(NurapidTags, SetAndWayRoundTrip)
{
    auto t = tagArray(4, 2);
    install(t, 0x1080, CohState::Shared);
    TagEntry *v = install(t, 0x1280, CohState::Shared);  // same set
    EXPECT_EQ(t.setOf(v), 1u);
    EXPECT_EQ(t.wayOf(v), 1u);
    EXPECT_EQ(&t.at(t.setOf(v), t.wayOf(v)), v);
}

TEST(NurapidTags, VictimPrefersInvalid)
{
    auto t = tagArray(1, 4);
    for (int i = 0; i < 3; ++i)
        install(t, static_cast<Addr>(i) * 128, CohState::Shared);
    TagEntry *v = t.victim(0x9000, tagRank);
    EXPECT_FALSE(v->valid);
}

TEST(NurapidTags, VictimPrefersPrivateOverShared)
{
    // Paper 3.3.2: replace invalid, then private, then shared --
    // shared evictions cost BusRepl invalidations.
    auto t = tagArray(1, 4);
    CohState states[] = {CohState::Shared, CohState::Modified,
                         CohState::Communication, CohState::Exclusive};
    for (int i = 0; i < 4; ++i)
        install(t, static_cast<Addr>(i) * 128, states[i]);
    TagEntry *v = t.victim(0x9000, tagRank);
    EXPECT_TRUE(isPrivateState(v->state));
    // LRU within the private category: the M block (installed first).
    EXPECT_EQ(v->state, CohState::Modified);
}

TEST(NurapidTags, VictimFallsBackToShared)
{
    auto t = tagArray(1, 2);
    for (int i = 0; i < 2; ++i)
        install(t, static_cast<Addr>(i) * 128, CohState::Communication);
    TagEntry *v = t.victim(0x9000, tagRank);
    EXPECT_EQ(v->state, CohState::Communication);
    EXPECT_EQ(v->addr, 0u);  // LRU of the two
}

TEST(NurapidTags, LruTieGoesToTheFirstWay)
{
    // Ways filled without a touch share stamp 0; the scan keeps the
    // first, in the ranked scan and in the plain LRU one alike.
    auto t = tagArray(1, 4);
    for (unsigned w = 0; w < 4; ++w) {
        TagEntry *e = &t.at(0, w);
        t.setTag(e, static_cast<Addr>(w) * 128);
        e->state = w == 0 ? CohState::Shared : CohState::Exclusive;
    }
    EXPECT_EQ(t.victim(0x9000, tagRank), &t.at(0, 1));
    EXPECT_EQ(t.victim(0x9000), &t.at(0, 0));
    t.touch(&t.at(0, 1));
    EXPECT_EQ(t.victim(0x9000, tagRank), &t.at(0, 2));
}

/** A four-core CmpNurapid with two frames per d-group and one 2-way
 *  tag set per core. */
NurapidParams
twoFrameNurapid()
{
    NurapidParams p;
    p.dgroup_capacity = 2 * 128;
    p.assoc = 2;
    p.tag_factor = 1;
    return p;
}

/**
 * The saved state of twoFrameNurapid() after core 0 filled 0x1000, with
 * the byte offsets of its fields for patching. Each core's tag array
 * is u32 sets, u32 ways, the u64 LRU clock and a u64 stamp per entry,
 * then per entry {u64 addr, u8 flags, u8 state, u32 d-group, u32
 * frame}; the data array follows the four tag arrays.
 */
struct SavedNurapid
{
    static constexpr std::size_t entries = 2;  // one set of two ways
    static constexpr std::size_t tag_bytes = 8 + 1 + 1 + 4 + 4;
    static constexpr std::size_t first_tag = 4 + 4 + 8 + entries * 8;
    static constexpr std::size_t array_bytes =
        first_tag + entries * tag_bytes;

    std::string bytes;

    SavedNurapid()
    {
        MainMemory mem;
        SnoopBus bus;
        CmpNurapid l2(twoFrameNurapid(), bus, mem);
        l2.access({0, 0x1000, MemOp::Load}, 0);
        ByteWriter w;
        l2.saveState(w);
        bytes = w.take();
    }

    // 0x1000 fills set 0, way 0 of core 0 and frame 0 of d-group 0.
    static constexpr std::size_t state_at = first_tag + 8 + 1;
    static constexpr std::size_t dgroup_at = state_at + 1;
    static constexpr std::size_t frame_at = dgroup_at + 4;
    // The data array: u32 d-groups, u32 frames, then per frame {u64
    // addr, u8 valid, u32 rev core/set/way}.
    static constexpr std::size_t rev_core_at = 4 * array_bytes + 8 + 8 + 1;

    void
    putU32(std::size_t off, std::uint32_t v)
    {
        std::memcpy(&bytes[off], &v, sizeof(v));
    }

    void
    load() const
    {
        MainMemory mem;
        SnoopBus bus;
        CmpNurapid l2(twoFrameNurapid(), bus, mem);
        ByteReader r(bytes.data(), bytes.size(), "test checkpoint");
        l2.loadState(r);
        EXPECT_EQ(l2.stateOf(0, 0x1000), CohState::Exclusive);
    }
};

TEST(NurapidTagsDeathTest, LoadRejectsStateOutOfRange)
{
    SavedNurapid s;
    ASSERT_EQ(s.bytes[SavedNurapid::state_at],
              static_cast<char>(CohState::Exclusive));
    s.load();
    s.bytes[SavedNurapid::state_at] = 5;
    EXPECT_DEATH(s.load(), "fatal: test checkpoint: NuRAPID tag state 5 is "
                           "not I, S, E, M or C");
}

TEST(NurapidTagsDeathTest, LoadRejectsOtherTagGeometry)
{
    SavedNurapid s;
    NurapidParams p = twoFrameNurapid();
    p.tag_factor = 2;
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(p, bus, mem);
    ByteReader r(s.bytes.data(), s.bytes.size(), "test checkpoint");
    EXPECT_DEATH(l2.loadState(r), "fatal: test checkpoint: cache array of "
                                  "1 sets x 2 ways does not fit this run's "
                                  "2 x 2");
}

TEST(NurapidTagsDeathTest, LoadRejectsForwardPointerOffDataArray)
{
    SavedNurapid s;
    s.putU32(SavedNurapid::dgroup_at, 4);
    EXPECT_DEATH(s.load(), "fatal: test checkpoint: NuRAPID tag of 1000 "
                           "points at frame 0 of d-group 4, off this run's "
                           "4 d-groups x 2 frames");
    s = SavedNurapid{};
    s.bytes[SavedNurapid::frame_at] = 2;
    EXPECT_DEATH(s.load(), "points at frame 2 of d-group 0");
    s = SavedNurapid{};
    s.putU32(SavedNurapid::frame_at, static_cast<std::uint32_t>(-2));
    EXPECT_DEATH(s.load(), "points at frame -2 of d-group 0");
}

TEST(NurapidTagsDeathTest, LoadRejectsReversePointerOffTagArrays)
{
    SavedNurapid s;
    ASSERT_EQ(s.bytes[SavedNurapid::rev_core_at], 0);
    s.putU32(SavedNurapid::rev_core_at, 4);
    EXPECT_DEATH(s.load(), "fatal: test checkpoint: NuRAPID frame of 1000 "
                           "in d-group 0 points at tag \\(core 4, set 0, "
                           "way 0\\), off this run's 4 cores x 1 sets x 2 "
                           "ways");
    s = SavedNurapid{};
    s.putU32(SavedNurapid::rev_core_at + 4, 1);
    EXPECT_DEATH(s.load(), "tag \\(core 0, set 1, way 0\\)");
    s = SavedNurapid{};
    s.putU32(SavedNurapid::rev_core_at + 8, 2);
    EXPECT_DEATH(s.load(), "tag \\(core 0, set 0, way 2\\)");
}

/** A reverse pointer for frames whose owning tag does not matter. */
constexpr TagPos some_tag{0, 0, 0};

TEST(NuDataArray, AllocateFreeCycle)
{
    NuDataArray d(2, 4);
    int f = d.allocate(0);
    ASSERT_NE(f, invalid_id);
    d.fill(0, f, 0x1000, some_tag);
    EXPECT_EQ(d.occupancy(0), 1u);
    d.free(0, f);
    EXPECT_EQ(d.occupancy(0), 0u);
    EXPECT_FALSE(d.at(0, f).valid);
}

TEST(NuDataArray, FillSetsEveryField)
{
    NuDataArray d(1, 2);
    int f = d.allocate(0);
    d.fill(0, f, 0x2080, TagPos{3, 5, 1});
    const Frame &fr = d.at(0, f);
    EXPECT_TRUE(fr.valid);
    EXPECT_EQ(fr.addr, 0x2080u);
    EXPECT_TRUE(fr.rev == (TagPos{3, 5, 1}));
}

TEST(NuDataArray, ExhaustionReturnsInvalid)
{
    NuDataArray d(1, 2);
    int a = d.allocate(0);
    int b = d.allocate(0);
    d.fill(0, a, 0x100, some_tag);
    d.fill(0, b, 0x200, some_tag);
    EXPECT_FALSE(d.hasFree(0));
    EXPECT_EQ(d.allocate(0), invalid_id);
}

TEST(NuDataArray, DGroupsAreIndependent)
{
    NuDataArray d(3, 1);
    int f0 = d.allocate(0);
    d.fill(0, f0, 0x100, some_tag);
    EXPECT_FALSE(d.hasFree(0));
    EXPECT_TRUE(d.hasFree(1));
    EXPECT_TRUE(d.hasFree(2));
}

TEST(NuDataArray, RandomVictimSkipsPinned)
{
    NuDataArray d(1, 4);
    Rng rng(5);
    // Two valid frames: one pinned, one not.
    int a = d.allocate(0);
    int b = d.allocate(0);
    d.fill(0, a, 0x100, some_tag);
    d.fill(0, b, 0x200, some_tag);
    for (int i = 0; i < 50; ++i) {
        int v = d.randomVictim(0, rng, 0x100);
        EXPECT_EQ(v, b);
    }
}

TEST(NuDataArray, RandomVictimNoneEligible)
{
    NuDataArray d(1, 1);
    Rng rng(5);
    int a = d.allocate(0);
    d.fill(0, a, 0x100, some_tag);
    EXPECT_EQ(d.randomVictim(0, rng, 0x100), invalid_id);
}

TEST(NuDataArray, RandomVictimFindsOnlyValid)
{
    NuDataArray d(1, 64);
    Rng rng(5);
    int a = d.allocate(0);
    d.fill(0, a, 0x300, some_tag);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(d.randomVictim(0, rng, 0x999), a);
}

/** Valid frames holding @p addr, by brute force over every d-group. */
int
scanHolding(const NuDataArray &d, Addr addr)
{
    int n = 0;
    for (int g = 0; g < d.numDGroups(); ++g)
        for (const Frame &f : d.dgroup(g))
            n += f.valid && f.addr == addr;
    return n;
}

/** Few block addresses, so blocks routinely sit in several frames. */
constexpr int n_blocks = 6;

Addr
blockAddr(int i)
{
    return static_cast<Addr>(i) * 128;
}

void
expectHoldingMatchesScan(const NuDataArray &d)
{
    for (int i = 0; i <= n_blocks; ++i)
        EXPECT_EQ(d.holding(blockAddr(i)), scanHolding(d, blockAddr(i)))
            << "block " << i;
    d.checkHolding();
}

/** Randomly fill and free @p steps frames, the way the L2 does. */
void
churn(NuDataArray &d, Rng &rng, int steps)
{
    for (int s = 0; s < steps; ++s) {
        DGroupId g = static_cast<DGroupId>(rng.below(d.numDGroups()));
        if (d.hasFree(g) && (d.occupancy(g) == 0 || rng.chance(0.6))) {
            d.fill(g, d.allocate(g),
                   blockAddr(static_cast<int>(rng.below(n_blocks))),
                   some_tag);
        } else {
            const auto &frames = d.dgroup(g);
            int i = static_cast<int>(rng.below(frames.size()));
            while (!frames[i].valid)
                i = (i + 1) % static_cast<int>(frames.size());
            d.free(g, i);
        }
    }
}

TEST(NuDataArray, HoldingMatchesScanUnderRandomFillFree)
{
    NuDataArray d(3, 8);
    Rng rng(11);
    // The first query comes after frames are already valid, so the
    // count starts from its one full scan.
    churn(d, rng, 40);
    ASSERT_GT(d.occupancy(0) + d.occupancy(1) + d.occupancy(2), 0u);
    expectHoldingMatchesScan(d);
    for (int round = 0; round < 50; ++round) {
        churn(d, rng, 7);
        expectHoldingMatchesScan(d);
    }
}

TEST(NuDataArray, HoldingAfterLoadState)
{
    NuDataArray src(2, 8);
    Rng rng(13);
    churn(src, rng, 30);
    ByteWriter w;
    src.saveState(w);

    // The destination's own count, built over different frames, must
    // not survive the restore.
    NuDataArray dst(2, 8);
    Rng other(14);
    churn(dst, other, 30);
    expectHoldingMatchesScan(dst);
    ByteReader r(w.bytes().data(), w.bytes().size(), "data array");
    dst.loadState(r, 1, 1, 1);
    expectHoldingMatchesScan(dst);
    for (int i = 0; i <= n_blocks; ++i)
        EXPECT_EQ(dst.holding(blockAddr(i)), src.holding(blockAddr(i)));
    churn(dst, rng, 30);
    expectHoldingMatchesScan(dst);
}

TEST(NuDataArrayDeathTest, DoubleFreePanics)
{
    NuDataArray d(1, 2);
    int f = d.allocate(0);
    d.fill(0, f, 0x100, some_tag);
    d.free(0, f);
    EXPECT_DEATH(d.free(0, f), "double free");
}

TEST(NuDataArrayDeathTest, FillNeedsReversePointer)
{
    NuDataArray d(1, 2);
    int f = d.allocate(0);
    EXPECT_DEATH(d.fill(0, f, 0x100, TagPos{}), "without a reverse pointer");
}

TEST(NuDataArrayDeathTest, FillOfValidFramePanics)
{
    NuDataArray d(1, 2);
    int f = d.allocate(0);
    d.fill(0, f, 0x100, some_tag);
    EXPECT_DEATH(d.fill(0, f, 0x200, some_tag), "fill of valid frame");
}

/**
 * A saveState buffer of a 1x4 data array with frames 0 and 1 valid,
 * plus the byte offsets of its fields for patching. Layout: u32
 * d-groups, u32 frames per d-group, per frame {u64 addr, u8 valid,
 * u32 rev core/set/way}, then u32 free count and u32 free indices.
 */
struct SavedArray
{
    static constexpr std::size_t frame_bytes = 8 + 1 + 3 * 4;
    static constexpr std::size_t free_count = 8 + 4 * frame_bytes;

    std::string bytes;

    SavedArray()
    {
        NuDataArray d(1, 4);
        d.fill(0, d.allocate(0), 0x100, some_tag);
        d.fill(0, d.allocate(0), 0x200, some_tag);
        ByteWriter w;
        d.saveState(w);
        bytes = w.take();
    }

    static std::size_t validByte(int frame)
    {
        return 8 + frame * frame_bytes + 8;
    }
    static std::size_t revCore(int frame) { return validByte(frame) + 1; }
    static std::size_t freeEntry(int k) { return free_count + 4 + 4 * k; }

    void
    putU32(std::size_t off, std::uint32_t v)
    {
        std::memcpy(&bytes[off], &v, sizeof(v));
    }

    void
    load() const
    {
        NuDataArray d(1, 4);
        ByteReader r(bytes.data(), bytes.size(), "data array");
        d.loadState(r, 1, 1, 1);
    }
};

TEST(NuDataArray, UnpatchedBufferLoads)
{
    SavedArray s;
    ASSERT_EQ(s.bytes.size(), SavedArray::freeEntry(2));
    s.load();
}

TEST(NuDataArrayDeathTest, LoadRejectsFreeIndexOutOfRange)
{
    SavedArray s;
    s.putU32(SavedArray::freeEntry(0), 4);
    EXPECT_DEATH(s.load(), "free-list index 4 out of range");
}

TEST(NuDataArrayDeathTest, LoadRejectsNegativeFreeIndex)
{
    SavedArray s;
    s.putU32(SavedArray::freeEntry(1), static_cast<std::uint32_t>(-1));
    EXPECT_DEATH(s.load(), "free-list index 4294967295 out of range");
}

TEST(NuDataArrayDeathTest, LoadRejectsFreeEntryNamingValidFrame)
{
    SavedArray s;
    s.putU32(SavedArray::freeEntry(0), 1);
    EXPECT_DEATH(s.load(), "names a valid frame 1");
}

TEST(NuDataArrayDeathTest, LoadRejectsRepeatedFreeEntry)
{
    SavedArray s;
    std::uint32_t first;
    std::memcpy(&first, &s.bytes[SavedArray::freeEntry(0)], sizeof(first));
    s.putU32(SavedArray::freeEntry(1), first);
    EXPECT_DEATH(s.load(), "names a repeated frame");
}

TEST(NuDataArrayDeathTest, LoadRejectsFreeCountMismatch)
{
    SavedArray s;
    // Frame 1 turns invalid, but the free list still names only 2.
    s.bytes[SavedArray::validByte(1)] = 0;
    EXPECT_DEATH(s.load(), "lists 2 free frames but has 3 invalid");
}

TEST(NuDataArrayDeathTest, LoadRejectsValidFrameWithoutReversePointer)
{
    SavedArray s;
    s.putU32(SavedArray::revCore(0), static_cast<std::uint32_t>(-1));
    EXPECT_DEATH(s.load(), "frame of 100 in d-group 0 has no reverse");
}

TEST(FwdPtr, EqualityAndValidity)
{
    FwdPtr a{1, 5}, b{1, 5}, c{2, 5};
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
    EXPECT_TRUE(a.valid());
    EXPECT_FALSE(FwdPtr{}.valid());
}

} // namespace
} // namespace cnsim
