/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <vector>

#include "sim/event_queue.hh"

namespace cnsim
{
namespace
{

TEST(EventQueue, RunsInTickOrder)
{
    EventQueue eq;
    std::vector<Tick> order;
    eq.schedule(30, [&](Tick t) { order.push_back(t); });
    eq.schedule(10, [&](Tick t) { order.push_back(t); });
    eq.schedule(20, [&](Tick t) { order.push_back(t); });
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 10u);
    EXPECT_EQ(order[1], 20u);
    EXPECT_EQ(order[2], 30u);
}

TEST(EventQueue, FifoAtEqualTicks)
{
    EventQueue eq;
    std::vector<int> order;
    // schedule() returns each event's sequence number, its FIFO rank.
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(eq.schedule(5, [&order, i](Tick) { order.push_back(i); }),
                  static_cast<std::uint64_t>(i));
    eq.run();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesWithExecution)
{
    EventQueue eq;
    eq.schedule(100, [&](Tick) { EXPECT_EQ(eq.now(), 100u); });
    EXPECT_EQ(eq.now(), 0u);
    eq.run();
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, EventsScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void(Tick)> chain;
    auto fwd = [&chain](Tick t) { chain(t); };
    chain = [&](Tick t) {
        ++fired;
        if (fired < 5)
            eq.schedule(t + 10, fwd);
    };
    eq.schedule(0, fwd);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&](Tick) { ++fired; });
    eq.schedule(20, [&](Tick) { ++fired; });
    eq.schedule(30, [&](Tick) { ++fired; });
    eq.run(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&](Tick) { ++fired; });
    eq.schedule(2, [&](Tick) { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ExecutedCountAccumulates)
{
    EventQueue eq;
    for (Tick i = 0; i < 10; ++i)
        eq.schedule(i, [](Tick) {});
    eq.run();
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(EventQueue, RandomizedSchedulesKeepSeqOrderAtEqualTicks)
{
    // (tick, seq) FIFO tie-order is the determinism contract, so
    // same-tick events must run in scheduling order under arbitrary
    // interleavings.
    std::mt19937_64 rng(0xc0ffee);
    EventQueue eq;
    // Each event records when << 32 | seq: one word, so the capture
    // fits the inline budget.
    std::vector<std::uint64_t> ran;
    for (std::uint64_t seq = 0; seq < 10000; ++seq) {
        // Small tick range forces heavy same-tick collision.
        Tick when = rng() % 512;
        std::uint64_t key = when << 32 | seq;
        eq.schedule(when, [&ran, key](Tick) { ran.push_back(key); });
    }
    eq.run();
    ASSERT_EQ(ran.size(), 10000u);
    // Keys ascend exactly when ticks ascend and seqs break ties.
    EXPECT_TRUE(std::is_sorted(ran.begin(), ran.end()));
}

TEST(EventQueue, RandomizedDynamicSchedulesStayOrdered)
{
    // Events scheduling further events at random offsets (including
    // offset 0: same-tick self-append) must still observe global
    // (tick, seq) order.
    std::mt19937_64 rng(0xfeedface);
    EventQueue eq;
    Tick last_tick = 0;
    std::uint64_t fired = 0;
    std::function<void(Tick)> spawn;
    auto fwd = [&spawn](Tick t) { spawn(t); };
    spawn = [&](Tick t) {
        ASSERT_GE(t, last_tick);
        last_tick = t;
        ++fired;
        if (fired + eq.pending() < 10000) {
            eq.schedule(t + rng() % 97, fwd);
            if (rng() % 4 == 0)
                eq.schedule(t + 4096 + rng() % 8192, fwd);
        }
    };
    for (int i = 0; i < 16; ++i)
        eq.schedule(rng() % 64, fwd);
    eq.run();
    EXPECT_GE(fired, 10000u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, FarFutureBeyondWheelCapacity)
{
    // Ticks millions apart, and a same-tick pair far out, still run in
    // (tick, seq) order.
    EventQueue eq;
    std::vector<Tick> order;
    auto rec = [&](Tick t) { order.push_back(t); };
    eq.schedule(123456789, rec);
    eq.schedule(0, rec);
    eq.schedule(4095, rec);
    eq.schedule(4096, rec);
    eq.schedule(1000000, rec);
    eq.schedule(123456789, rec); // same tick: FIFO pair
    eq.run();
    ASSERT_EQ(order.size(), 6u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(order.back(), 123456789u);
    EXPECT_EQ(eq.now(), 123456789u);
}

TEST(EventQueue, ScheduleBelowRepositionedWindow)
{
    // run(until) can stop short of a far event. A later schedule
    // between now and that event must still run first.
    EventQueue eq;
    std::vector<Tick> order;
    auto rec = [&](Tick t) { order.push_back(t); };
    eq.schedule(100000, rec);
    eq.run(50); // executes nothing
    EXPECT_TRUE(order.empty());
    eq.schedule(60, rec);
    eq.schedule(99000, rec);
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 60u);
    EXPECT_EQ(order[1], 99000u);
    EXPECT_EQ(order[2], 100000u);
}

TEST(EventQueueDeathTest, SchedulingIntoPastPanics)
{
    EventQueue eq;
    eq.schedule(50, [](Tick) {});
    eq.run();
    EXPECT_DEATH(eq.schedule(10, [](Tick) {}), "past");
}

} // namespace
} // namespace cnsim
