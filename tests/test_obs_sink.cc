/**
 * @file
 * Unit tests for the obs::TraceSink event recorder: activation and
 * arming semantics, the typed emit helpers as read back from an
 * attached binlog, and the offline formatters (Chrome JSON, summary,
 * one-line text) that cntrace renders with.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/auditor.hh"
#include "obs/binlog.hh"
#include "obs/event.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{
namespace
{

std::string
tmpPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "cnsim_obs_" + tag;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A sink that streams its armed events to a binlog file. */
struct LoggedSink
{
    const std::string path;
    obs::BinlogWriter writer{path};
    obs::TraceSink sink;

    explicit LoggedSink(std::string p) : path(std::move(p))
    {
        sink.setBinlog(&writer);
    }

    /** Begin the log over the components registered so far, and arm. */
    void
    arm()
    {
        writer.begin(sink.components(), {});
        sink.armRecording();
    }

    /** Seal the log, read its events back, and delete the file. */
    std::vector<obs::TraceEvent>
    finish()
    {
        writer.finish();
        obs::BinlogData data;
        std::string err;
        EXPECT_TRUE(obs::readBinlog(path, data, &err)) << err;
        std::remove(path.c_str());
        return obs::binlogEvents(data);
    }
};

obs::TraceEvent
transitionEvent(Tick t, int comp, CoreId core, Addr addr, CohState olds,
                CohState news, obs::TransCause cause)
{
    return {.tick = t,
            .addr = addr,
            .component = static_cast<std::int16_t>(comp),
            .core = static_cast<std::int16_t>(core),
            .kind = obs::EventKind::Transition,
            .a = static_cast<std::uint8_t>(olds),
            .b = static_cast<std::uint8_t>(news),
            .c = static_cast<std::uint8_t>(cause)};
}

TEST(TraceSink, DisabledSinkIsInert)
{
    obs::TraceSink sink;  // neither a binlog nor an auditor
    EXPECT_FALSE(sink.active());
    sink.transition(10, 0, 0, 0x40, CohState::Invalid,
                    CohState::Modified, obs::TransCause::PrWr);
    sink.busTx(20, 0, BusCmd::BusRd, 8);
    sink.armRecording();  // no binlog: arming must not enable logging
    sink.busTx(30, 0, BusCmd::BusRd, 8);
    EXPECT_FALSE(sink.recording());
    EXPECT_FALSE(sink.active());
    // The helpers returned before record(): no tick was even noted.
    EXPECT_EQ(sink.approxNow(), 0u);
    EXPECT_EQ(sink.recordedEvents(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, ArmingGatesStorageButNotTheListener)
{
    // The binlog stores armed events only; the auditor listens to
    // every event, warm-up included.
    LoggedSink log(tmpPath("arming.blg"));
    obs::ProtocolAuditor auditor(obs::AuditProtocol::Mesi, 2);
    log.sink.setAuditor(&auditor);
    log.sink.registerComponent("l2");
    const Addr x = 0x40;

    log.sink.transition(5, 0, 0, x, CohState::Invalid, CohState::Exclusive,
                        obs::TransCause::Fill);
    EXPECT_EQ(auditor.transitions(), 1u);
    EXPECT_EQ(log.sink.recordedEvents(), 0u);

    log.arm();
    EXPECT_TRUE(log.sink.recording());
    log.sink.transition(15, 0, 0, x, CohState::Exclusive,
                        CohState::Modified, obs::TransCause::PrWr);
    EXPECT_EQ(auditor.transitions(), 2u);
    EXPECT_EQ(log.sink.recordedEvents(), 1u);

    log.sink.disarmRecording();
    log.sink.transition(25, 0, 0, x, CohState::Modified, CohState::Invalid,
                        obs::TransCause::Replacement);
    EXPECT_EQ(auditor.transitions(), 3u);
    EXPECT_EQ(log.sink.recordedEvents(), 1u);

    std::vector<obs::TraceEvent> events = log.finish();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].tick, 15u);
}

TEST(TraceSink, UnloggedTimingEventsOnlyAdvanceTheClock)
{
    // The auditor ignores bus, grant and stall events, so until a log
    // is armed they are never built; approxNow() still follows them,
    // because an L1 back-invalidation takes its tick from it.
    LoggedSink log(tmpPath("timing.blg"));
    obs::ProtocolAuditor auditor(obs::AuditProtocol::Mesi, 2);
    log.sink.setAuditor(&auditor);
    int c = log.sink.registerComponent("x");
    log.sink.busTx(10, c, BusCmd::BusRd, 8);
    EXPECT_EQ(log.sink.approxNow(), 10u);
    log.sink.resourceAcquire(20, c, 4, 8);
    EXPECT_EQ(log.sink.approxNow(), 20u);
    log.sink.coreStall(30, c, 1, 0x80, 100);
    EXPECT_EQ(log.sink.approxNow(), 30u);
    EXPECT_EQ(auditor.blocksTracked(), 0u);

    // Armed, each of them is logged again.
    log.arm();
    log.sink.busTx(40, c, BusCmd::BusRd, 8);
    log.sink.resourceAcquire(50, c, 4, 8);
    log.sink.coreStall(60, c, 1, 0x80, 100);
    EXPECT_EQ(log.sink.approxNow(), 60u);
    EXPECT_EQ(log.sink.recordedEvents(), 3u);
    std::vector<obs::TraceEvent> events = log.finish();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, obs::EventKind::BusTx);
    EXPECT_EQ(events[1].kind, obs::EventKind::Resource);
    EXPECT_EQ(events[2].kind, obs::EventKind::CoreStall);
}

TEST(TraceSink, RegisterComponentDeduplicates)
{
    obs::TraceSink sink;
    int a = sink.registerComponent("l2.core0");
    int b = sink.registerComponent("mem.bus");
    int a2 = sink.registerComponent("l2.core0");
    EXPECT_EQ(a, a2);
    EXPECT_NE(a, b);
    ASSERT_EQ(sink.components().size(), 2u);
    EXPECT_EQ(sink.components()[a], "l2.core0");
}

TEST(TraceSink, PerKindCountsAndApproxNow)
{
    // Each typed helper logs exactly one event of its own kind.
    LoggedSink log(tmpPath("kinds.blg"));
    obs::TraceSink &sink = log.sink;
    int c = sink.registerComponent("x");
    log.arm();
    sink.busTx(10, c, BusCmd::BusRd, 8);
    sink.transition(20, c, 1, 0x80, CohState::Invalid,
                    CohState::Exclusive, obs::TransCause::Fill);
    sink.transition(30, c, 1, 0x80, CohState::Exclusive,
                    CohState::Modified, obs::TransCause::PrWr);
    sink.dgroupOp(40, c, 1, 0x80, obs::DGroupOp::Hit, 2, true);
    sink.backInval(50, c, 0, 0x80, 2);
    sink.resourceAcquire(60, c, 4, 8);
    sink.coreStall(70, c, 3, 0x80, 100);
    sink.directoryState(80, c, 1, 0x80, 0x2, 1, BusCmd::BusRd);
    EXPECT_EQ(sink.approxNow(), 80u);
    EXPECT_EQ(sink.recordedEvents(), 8u);

    std::uint64_t per_kind[obs::num_event_kinds] = {};
    for (const obs::TraceEvent &ev : log.finish())
        ++per_kind[static_cast<int>(ev.kind)];
    auto count = [&](obs::EventKind k) {
        return per_kind[static_cast<int>(k)];
    };
    EXPECT_EQ(count(obs::EventKind::BusTx), 1u);
    EXPECT_EQ(count(obs::EventKind::Transition), 2u);
    EXPECT_EQ(count(obs::EventKind::DGroup), 1u);
    EXPECT_EQ(count(obs::EventKind::L1BackInval), 1u);
    EXPECT_EQ(count(obs::EventKind::Resource), 1u);
    EXPECT_EQ(count(obs::EventKind::CoreStall), 1u);
    EXPECT_EQ(count(obs::EventKind::Directory), 1u);
}

TEST(TraceSink, WideDurationsSurviveBinaryRoundTrip)
{
    // Regression: busTx/resourceAcquire/coreStall used to truncate
    // Tick durations to uint32, so a stall >= 2^32 ticks wrapped.
    const std::uint64_t wide = (std::uint64_t{1} << 32) + 99;
    LoggedSink log(tmpPath("wide.blg"));
    int c = log.sink.registerComponent("x");
    log.arm();
    log.sink.coreStall(10, c, 0, 0x40, wide);
    log.sink.busTx(20, c, BusCmd::BusRd, wide + 1);
    log.sink.resourceAcquire(30, c, 4, wide + 2);

    std::vector<obs::TraceEvent> events = log.finish();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].dur, wide);
    EXPECT_EQ(events[1].dur, wide + 1);
    EXPECT_EQ(events[2].dur, wide + 2);
}

TEST(TraceSink, ChromeJsonMentionsTracksAndEvents)
{
    obs::TraceEvent bus{.tick = 10,
                        .dur = 8,
                        .component = 0,
                        .kind = obs::EventKind::BusTx,
                        .a = static_cast<std::uint8_t>(BusCmd::BusRd)};
    std::vector<obs::TraceEvent> events = {
        bus, transitionEvent(20, 0, 0, 0x40, CohState::Invalid,
                             CohState::Exclusive, obs::TransCause::Fill)};

    const std::string path = tmpPath("trace.json");
    obs::writeChromeJson(path, events, {"mem.bus"});
    std::string json = slurp(path);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("mem.bus"), std::string::npos);
    EXPECT_NE(json.find("BusRd"), std::string::npos);
    // Balanced braces is a cheap structural sanity check.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    std::remove(path.c_str());
}

TEST(TraceSink, SummaryAndFormatAreHumanReadable)
{
    const std::vector<std::string> comps = {"l2.nurapid.core0.tag"};
    const std::vector<obs::TraceEvent> events = {
        transitionEvent(10, 0, 0, 0x1000, CohState::Invalid,
                        CohState::Modified, obs::TransCause::PrWr)};
    std::string line = obs::formatEvent(events[0], comps);
    EXPECT_NE(line.find("l2.nurapid.core0.tag"), std::string::npos);
    EXPECT_NE(line.find("PrWr"), std::string::npos);

    std::string sum = obs::summarize(events, comps);
    EXPECT_NE(sum.find("transition"), std::string::npos);
}

} // namespace
} // namespace cnsim
