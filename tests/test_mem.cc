/**
 * @file
 * Unit tests for the memory-system substrate: main memory, snooping
 * bus, crossbar, and the packet vocabulary.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"
#include "mem/packet.hh"

namespace cnsim
{
namespace
{

TEST(Packet, IsReadClassifiesOps)
{
    EXPECT_TRUE(isRead(MemOp::Load));
    EXPECT_TRUE(isRead(MemOp::Ifetch));
    EXPECT_FALSE(isRead(MemOp::Store));
}

TEST(Packet, Names)
{
    EXPECT_STREQ(toString(AccessClass::Hit), "hit");
    EXPECT_STREQ(toString(AccessClass::ROSMiss), "rosMiss");
    EXPECT_STREQ(toString(AccessClass::RWSMiss), "rwsMiss");
    EXPECT_STREQ(toString(AccessClass::CapacityMiss), "capacityMiss");
    EXPECT_STREQ(toString(BusCmd::BusRd), "BusRd");
    EXPECT_STREQ(toString(BusCmd::BusRepl), "BusRepl");
}

TEST(MainMemory, ReadLatency)
{
    MemoryParams p;
    p.latency = 300;
    p.channels = 1;
    p.occupancy = 16;
    MainMemory m(p);
    EXPECT_EQ(m.read(1000), 1316u);
    EXPECT_EQ(m.reads(), 1u);
}

TEST(MainMemory, ChannelContention)
{
    MemoryParams p;
    p.latency = 300;
    p.channels = 1;
    p.occupancy = 16;
    MainMemory m(p);
    EXPECT_EQ(m.read(0), 316u);
    // Second read queues behind the first burst.
    EXPECT_EQ(m.read(0), 332u);
}

TEST(MainMemory, MultipleChannelsOverlap)
{
    MemoryParams p;
    p.latency = 300;
    p.channels = 4;
    p.occupancy = 16;
    MainMemory m(p);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(m.read(0), 316u);
    EXPECT_EQ(m.read(0), 332u);
}

TEST(MainMemory, WritebackDoesNotStall)
{
    MemoryParams p;
    p.channels = 1;
    p.occupancy = 16;
    MainMemory m(p);
    m.writeback(0);
    EXPECT_EQ(m.writebacks(), 1u);
    // The writeback consumed channel bandwidth: a read right after
    // queues behind it (16 queueing + 16 burst + latency).
    EXPECT_EQ(m.read(0), 2u * 16u + p.latency);
}

TEST(MainMemory, StatsRegisterAndReset)
{
    MainMemory m;
    StatGroup g("sys");
    m.regStats(g);
    (void)m.read(0);
    m.writeback(0);
    EXPECT_EQ(g.counter("mem.reads").value(), 1u);
    EXPECT_EQ(g.counter("mem.writebacks").value(), 1u);
    m.resetStats();
    EXPECT_EQ(g.counter("mem.reads").value(), 0u);
}

TEST(SnoopBus, TransactionLatency)
{
    BusParams p;
    p.latency = 32;
    p.arbitration = 4;
    SnoopBus bus(p);
    EXPECT_EQ(bus.transaction(BusCmd::BusRd, 100), 132u);
    EXPECT_EQ(bus.count(BusCmd::BusRd), 1u);
}

TEST(SnoopBus, PipelinedOverlap)
{
    BusParams p;
    p.latency = 32;
    p.arbitration = 4;
    SnoopBus bus(p);
    // Two back-to-back transactions: the second waits only for the
    // address slot (4 ticks), not the full 32-cycle latency.
    EXPECT_EQ(bus.transaction(BusCmd::BusRd, 0), 32u);
    EXPECT_EQ(bus.transaction(BusCmd::BusRdX, 0), 36u);
    EXPECT_EQ(bus.transaction(BusCmd::BusUpg, 0), 40u);
}

TEST(SnoopBus, PostedTransactionsCountAndOccupy)
{
    SnoopBus bus;
    bus.postedTransaction(BusCmd::BusRepl, 0);
    EXPECT_EQ(bus.count(BusCmd::BusRepl), 1u);
    // The posted transaction held the slot: the next one is delayed.
    EXPECT_EQ(bus.transaction(BusCmd::BusRd, 0), 4u + 32u);
}

TEST(SnoopBus, StatsPerCommand)
{
    SnoopBus bus;
    StatGroup g("sys");
    bus.regStats(g);
    (void)bus.transaction(BusCmd::BusRd, 0);
    (void)bus.transaction(BusCmd::BusRd, 0);
    (void)bus.transaction(BusCmd::WrBack, 0);
    EXPECT_EQ(g.counter("bus.busRd").value(), 2u);
    EXPECT_EQ(g.counter("bus.wrBack").value(), 1u);
    bus.resetStats();
    EXPECT_EQ(g.counter("bus.busRd").value(), 0u);
}

} // namespace
} // namespace cnsim
