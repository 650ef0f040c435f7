/**
 * @file
 * Unit tests for the L1 cache model.
 */

#include <gtest/gtest.h>

#include "cache/l1_cache.hh"
#include "common/bytes.hh"
#include "common/stats.hh"

namespace cnsim
{
namespace
{

L1Params
smallL1()
{
    L1Params p;
    p.size = 1024;  // 8 sets x 2 ways x 64 B
    p.assoc = 2;
    p.block_size = 64;
    p.latency = 3;
    return p;
}

TEST(L1Cache, MissThenHit)
{
    L1Cache c("l1", smallL1());
    EXPECT_FALSE(c.loadHit(0x100));
    c.fill(0x100, false, false);
    EXPECT_TRUE(c.loadHit(0x100));
    EXPECT_TRUE(c.loadHit(0x13f));  // same 64 B block
    EXPECT_FALSE(c.loadHit(0x140));  // next block
}

TEST(L1Cache, StoreNeedsOwnership)
{
    L1Cache c("l1", smallL1());
    EXPECT_EQ(c.storeCheck(0x100), L1StoreCheck::Miss);
    c.fill(0x100, false, false);
    EXPECT_EQ(c.storeCheck(0x100), L1StoreCheck::NeedOwnership);
    c.fill(0x100, true, false);
    EXPECT_EQ(c.storeCheck(0x100), L1StoreCheck::Hit);
}

TEST(L1Cache, WriteThroughBlocksAlwaysReachL2)
{
    L1Cache c("l1", smallL1());
    c.fill(0x200, false, true);
    EXPECT_EQ(c.storeCheck(0x200), L1StoreCheck::WriteThrough);
    // Write-through blocks still hit for loads.
    EXPECT_TRUE(c.loadHit(0x200));
}

TEST(L1Cache, LruEvictionWithinSet)
{
    L1Params p = smallL1();
    L1Cache c("l1", p);
    // Set count = 1024 / (2*64) = 8; blocks 0x000, 0x200, 0x400 share
    // set 0.
    c.fill(0x000, false, false);
    c.fill(0x200, false, false);
    EXPECT_TRUE(c.loadHit(0x000));  // touch 0x000: 0x200 becomes LRU
    c.fill(0x400, false, false);    // evicts 0x200
    EXPECT_TRUE(c.loadHit(0x000));
    EXPECT_TRUE(c.loadHit(0x400));
    EXPECT_FALSE(c.loadHit(0x200));
    c.fill(0x000, true, false);     // a refill touches: 0x400 is LRU
    c.fill(0x200, false, false);    // evicts 0x400
    EXPECT_TRUE(c.loadHit(0x000));
    EXPECT_FALSE(c.loadHit(0x400));
}

TEST(L1Cache, InvalidateL2BlockCoversBothHalves)
{
    L1Cache c("l1", smallL1());
    // One 128 B L2 block covers two 64 B L1 blocks.
    c.fill(0x1000, false, false);
    c.fill(0x1040, false, false);
    EXPECT_TRUE(c.invalidateL2Block(0x1000, 128));
    EXPECT_FALSE(c.loadHit(0x1000));
    EXPECT_FALSE(c.loadHit(0x1040));
}

TEST(L1Cache, InvalidateReturnsFalseWhenAbsent)
{
    L1Cache c("l1", smallL1());
    EXPECT_FALSE(c.invalidateL2Block(0x9000, 128));
}

TEST(L1Cache, DowngradeRemovesOwnership)
{
    L1Cache c("l1", smallL1());
    c.fill(0x300, true, false);
    EXPECT_EQ(c.storeCheck(0x300), L1StoreCheck::Hit);
    c.downgradeL2Block(blockAlign(0x300, 128), 128, false);
    EXPECT_EQ(c.storeCheck(0x300), L1StoreCheck::NeedOwnership);
    EXPECT_TRUE(c.loadHit(0x300));  // still readable
}

TEST(L1Cache, DowngradeCanMarkWriteThrough)
{
    L1Cache c("l1", smallL1());
    c.fill(0x300, true, false);
    c.downgradeL2Block(blockAlign(0x300, 128), 128, true);
    EXPECT_EQ(c.storeCheck(0x300), L1StoreCheck::WriteThrough);
}

TEST(L1Cache, FillUpdatesExistingPermissions)
{
    L1Cache c("l1", smallL1());
    c.fill(0x500, false, false);
    c.fill(0x500, true, false);  // upgrade in place, no new block
    EXPECT_EQ(c.storeCheck(0x500), L1StoreCheck::Hit);
}

TEST(L1Cache, StatsCountHitsAndMisses)
{
    L1Cache c("l1", smallL1());
    StatGroup g("sys");
    c.regStats(g);
    (void)c.loadHit(0x100); // miss
    c.fill(0x100, false, false);
    (void)c.loadHit(0x100); // hit
    EXPECT_EQ(g.counter("l1.hits").value(), 1u);
    EXPECT_EQ(g.counter("l1.misses").value(), 1u);
    c.resetStats();
    EXPECT_EQ(g.counter("l1.hits").value(), 0u);
}

TEST(L1Cache, CheckpointRoundTripKeepsContentsAndLru)
{
    L1Cache a("l1", smallL1());
    a.fill(0x000, true, false);   // set 0, way 0, owned
    a.fill(0x200, false, false);  // set 0, way 1
    a.fill(0x080, false, true);   // set 2, write-through
    a.fill(0x140, false, false);  // set 5
    EXPECT_TRUE(a.loadHit(0x000));  // 0x200 becomes set 0's LRU way
    EXPECT_TRUE(a.invalidateL2Block(0x100, 128));  // drops 0x140

    ByteWriter w;
    a.saveState(w);
    L1Cache b("l1", smallL1());
    ByteReader r(w.bytes().data(), w.bytes().size(), "test checkpoint");
    b.loadState(r);
    r.expectExhausted();
    EXPECT_EQ(b.validBlockCount(), 3u);

    // Without the restored stamps the LRU tie would send 0x400 to way 0.
    for (L1Cache *c : {&a, &b}) {
        EXPECT_EQ(c->storeCheck(0x000), L1StoreCheck::Hit);
        EXPECT_EQ(c->storeCheck(0x080), L1StoreCheck::WriteThrough);
        EXPECT_FALSE(c->loadHit(0x140));
        c->fill(0x400, false, false);
        EXPECT_TRUE(c->loadHit(0x000));
        EXPECT_FALSE(c->loadHit(0x200));
        EXPECT_TRUE(c->loadHit(0x400));
    }
}

TEST(L1CacheDeathTest, LoadRejectsOtherGeometry)
{
    L1Cache two_way("l1", smallL1());
    ByteWriter w;
    two_way.saveState(w);
    L1Params p = smallL1();
    p.assoc = 4;
    L1Cache four_way("l1", p);
    ByteReader r(w.bytes().data(), w.bytes().size(), "test checkpoint");
    EXPECT_DEATH(four_way.loadState(r),
                 "fatal: test checkpoint: cache array of 8 sets x 2 ways "
                 "does not fit this run's 4 x 4");
}

TEST(L1Cache, PaperGeometry)
{
    // 64 KB, 2-way, 64 B: the Section-4.1 configuration constructs and
    // covers distinct sets.
    L1Cache c("l1", L1Params{});
    for (Addr a = 0; a < 64 * 1024; a += 64)
        c.fill(a, false, false);
    // Fully warmed: everything hits.
    for (Addr a = 0; a < 64 * 1024; a += 64)
        EXPECT_TRUE(c.loadHit(a));
    EXPECT_EQ(c.latency(), 3u);
}

} // namespace
} // namespace cnsim
