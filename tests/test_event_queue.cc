/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
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
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i](Tick) { order.push_back(i); });
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

TEST(EventQueue, StopHaltsRun)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&](Tick) {
        ++fired;
        eq.stop();
    });
    eq.schedule(2, [&](Tick) { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
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
    // Regression test for the calendar-queue rewrite: (tick, seq)
    // FIFO tie-order is the determinism contract, so same-tick events
    // must run in scheduling order under arbitrary interleavings.
    std::mt19937_64 rng(0xc0ffee);
    EventQueue eq;
    struct Rec
    {
        Tick tick;
        int seq;
    };
    std::vector<Rec> ran;
    int next_seq = 0;
    for (int i = 0; i < 10000; ++i) {
        // Small tick range forces heavy same-tick collision.
        Tick when = rng() % 512;
        int seq = next_seq++;
        eq.schedule(when, [&ran, when, seq](Tick) {
            ran.push_back({when, seq});
        });
    }
    eq.run();
    ASSERT_EQ(ran.size(), 10000u);
    for (std::size_t i = 1; i < ran.size(); ++i) {
        ASSERT_LE(ran[i - 1].tick, ran[i].tick);
        if (ran[i - 1].tick == ran[i].tick) {
            ASSERT_LT(ran[i - 1].seq, ran[i].seq);
        }
    }
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
    // Spans far exceeding the calendar wheel size exercise the
    // far-future heap and its migration back into the wheel.
    EventQueue eq;
    std::vector<Tick> order;
    auto rec = [&](Tick t) { order.push_back(t); };
    eq.schedule(123456789, rec);
    eq.schedule(0, rec);
    eq.schedule(4095, rec);   // last in-wheel tick
    eq.schedule(4096, rec);   // first beyond the initial window
    eq.schedule(1000000, rec);
    eq.schedule(123456789, rec); // same far tick: FIFO pair
    eq.run();
    ASSERT_EQ(order.size(), 6u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(order.back(), 123456789u);
    EXPECT_EQ(eq.now(), 123456789u);
}

TEST(EventQueue, ScheduleBelowRepositionedWindow)
{
    // run(until) can leave the wheel repositioned at a far event
    // without executing it. A later schedule below that window (but
    // >= now) must still run first -- the rebase path in insert().
    EventQueue eq;
    std::vector<Tick> order;
    auto rec = [&](Tick t) { order.push_back(t); };
    eq.schedule(100000, rec);
    eq.run(50); // migrates the far event, executes nothing
    EXPECT_TRUE(order.empty());
    eq.schedule(60, rec);
    eq.schedule(99000, rec);
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 60u);
    EXPECT_EQ(order[1], 99000u);
    EXPECT_EQ(order[2], 100000u);
}

TEST(EventQueue, ArenaIsReusedAcrossRuns)
{
    // The arena grows to cover peak in-flight events once, then
    // recycles records through the freelist: repeating the same load
    // must not allocate new chunks.
    EventQueue eq;
    for (Tick i = 0; i < 3000; ++i)
        eq.schedule(i, [](Tick) {});
    eq.run();
    std::size_t cap = eq.arenaCapacity();
    EXPECT_GE(cap, 3000u);
    for (int rep = 0; rep < 3; ++rep) {
        for (Tick i = 0; i < 3000; ++i)
            eq.schedule(eq.now() + 1 + i, [](Tick) {});
        eq.run();
        EXPECT_EQ(eq.arenaCapacity(), cap);
    }
    EXPECT_EQ(eq.executed(), 4u * 3000u);
}

TEST(EventQueue, NonTrivialCapturesRunAndDestroyCleanly)
{
    // A capture that owns a resource runs like any other, and a
    // pending one is destroyed (no leak under ASan) when the queue
    // dies with events outstanding.
    EventQueue eq;
    std::uint64_t sum = 0;
    auto payload = std::make_shared<int>(41);
    eq.schedule(2, [payload, &sum](Tick) { sum += *payload; });
    eq.schedule(3, [&sum](Tick) { ++sum; });
    eq.run();
    EXPECT_EQ(sum, 41u + 1u);
    {
        EventQueue eq2;
        eq2.schedule(5, [payload](Tick) {});
        EXPECT_EQ(payload.use_count(), 2);
    }
    EXPECT_EQ(payload.use_count(), 1);
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
