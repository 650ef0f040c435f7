/**
 * @file
 * Unit tests for the obs binlog subsystem (DESIGN.md 3j): the static
 * message registry, BinRecord round-trips (fuzzed), the SPSC ring, the
 * streaming writer's CNBLG01 file layout, strict reader rejection of
 * corrupt/truncated streams, metric-row reconstruction, the
 * byte-determinism contract, and one writer per path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/binlog.hh"
#include "obs/event.hh"

namespace cnsim
{
namespace
{

std::string
tmpPath(const std::string &tag)
{
    return std::string(::testing::TempDir()) + "cnsim_binlog_" + tag;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Deterministic xorshift64* stream (cnlint bans the libc generator). */
struct Xorshift
{
    std::uint64_t state = 0x9e3779b97f4a7c15ull;

    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }
};

obs::TraceEvent
fuzzEvent(Xorshift &x)
{
    obs::TraceEvent ev;
    ev.tick = x.next();
    ev.addr = x.next();
    ev.arg = x.next();
    ev.dur = x.next();
    ev.component = static_cast<std::int16_t>(x.next() % 64);
    ev.core = static_cast<std::int16_t>(x.next() % 16);
    ev.kind =
        static_cast<obs::EventKind>(x.next() % obs::num_event_kinds);
    ev.a = static_cast<std::uint8_t>(x.next());
    ev.b = static_cast<std::uint8_t>(x.next());
    ev.c = static_cast<std::uint8_t>(x.next());
    return ev;
}

void
expectEqual(const obs::TraceEvent &a, const obs::TraceEvent &b)
{
    EXPECT_EQ(a.tick, b.tick);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.arg, b.arg);
    EXPECT_EQ(a.dur, b.dur);
    EXPECT_EQ(a.component, b.component);
    EXPECT_EQ(a.core, b.core);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.c, b.c);
}

TEST(Binlog, MessageRegistryMirrorsEventKinds)
{
    for (int k = 0; k < obs::num_event_kinds; ++k) {
        auto kind = static_cast<obs::EventKind>(k);
        auto id = obs::msgIdFor(kind);
        EXPECT_EQ(static_cast<int>(id), k);
        // One id per emit site: the registered name matches the
        // event-kind vocabulary the emit helpers use.
        EXPECT_STREQ(obs::msg_registry[k].name, obs::toString(kind));
    }
    EXPECT_EQ(static_cast<int>(obs::MsgId::MetricValue),
              obs::num_msg_ids - 1);
    for (int m = 0; m < obs::num_msg_ids; ++m)
        EXPECT_NE(obs::msg_registry[m].signature, nullptr);
}

TEST(Binlog, RecordConversionRoundTripFuzz)
{
    Xorshift x;
    for (int i = 0; i < 5000; ++i) {
        obs::TraceEvent ev = fuzzEvent(x);
        obs::BinRecord r = obs::toBinRecord(ev);
        EXPECT_EQ(r.msg, static_cast<std::uint16_t>(ev.kind));
        expectEqual(ev, obs::toTraceEvent(r));
    }
}

TEST(Binlog, SpscRingPushPopWraps)
{
    obs::SpscRing ring(6);  // rounds up to 8
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_TRUE(ring.empty());

    obs::BinRecord r;
    for (std::uint64_t i = 0; i < 8; ++i) {
        r.tick = i;
        EXPECT_TRUE(ring.tryPush(r));
    }
    r.tick = 99;
    EXPECT_FALSE(ring.tryPush(r));  // full
    EXPECT_EQ(ring.size(), 8u);

    obs::BinRecord out[4];
    ASSERT_EQ(ring.popBulk(out, 4), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(out[i].tick, i);

    // Freed slots are reusable: indices wrap around the buffer.
    for (std::uint64_t i = 8; i < 12; ++i) {
        r.tick = i;
        EXPECT_TRUE(ring.tryPush(r));
    }
    EXPECT_FALSE(ring.tryPush(r));
    std::size_t got = 0;
    obs::BinRecord batch[16];
    got = ring.popBulk(batch, 16);
    ASSERT_EQ(got, 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(batch[i].tick, i + 4);
    EXPECT_TRUE(ring.empty());
}

TEST(Binlog, FileRoundTripFuzz)
{
    const std::string path = tmpPath("fuzz.blg");
    std::vector<std::string> comps = {"mem.bus", "l2.nurapid.core0"};
    std::vector<std::string> metrics = {"l2.hits", "l2.misses"};

    Xorshift x;
    std::vector<obs::TraceEvent> sent;
    {
        obs::BinlogWriter w(path);
        w.begin(comps, metrics);
        for (int i = 0; i < 2000; ++i) {
            obs::TraceEvent ev = fuzzEvent(x);
            ev.component = static_cast<std::int16_t>(i % 2);
            sent.push_back(ev);
            w.append(ev);
        }
        w.finish();
        EXPECT_EQ(w.records(), 2000u);
    }

    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    EXPECT_EQ(data.components, comps);
    EXPECT_EQ(data.metrics, metrics);
    EXPECT_EQ(data.dropped, 0u);
    ASSERT_EQ(data.messages.size(),
              static_cast<std::size_t>(obs::num_msg_ids));
    for (int m = 0; m < obs::num_msg_ids; ++m) {
        EXPECT_EQ(data.messages[m].id, m);
        EXPECT_EQ(data.messages[m].name, obs::msg_registry[m].name);
        EXPECT_EQ(data.messages[m].signature,
                  obs::msg_registry[m].signature);
    }
    std::vector<obs::TraceEvent> events = obs::binlogEvents(data);
    ASSERT_EQ(events.size(), sent.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        expectEqual(sent[i], events[i]);
    std::remove(path.c_str());
}

TEST(Binlog, WideDurationsSurviveTheStream)
{
    const std::string path = tmpPath("dur64.blg");
    obs::TraceEvent ev;
    ev.tick = 7;
    ev.kind = obs::EventKind::CoreStall;
    ev.dur = (std::uint64_t{1} << 32) + 12345;  // would wrap a uint32
    {
        obs::BinlogWriter w(path);
        w.begin({}, {});
        w.append(ev);
        w.finish();
    }
    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    auto events = obs::binlogEvents(data);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].dur, (std::uint64_t{1} << 32) + 12345);
    std::remove(path.c_str());
}

TEST(Binlog, WriterStreamsLargeBacklogLossless)
{
    // Far more records than the ring holds: the producer must block
    // (never drop) while the writer thread drains concurrently. Also
    // the TSan target for the ring's acquire/release protocol.
    const std::string path = tmpPath("stress.blg");
    constexpr std::uint64_t n = 200000;
    {
        obs::BinlogWriter w(path);
        w.begin({"c"}, {});
        obs::TraceEvent ev;
        ev.component = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            ev.tick = i;
            w.append(ev);
        }
        w.finish();
        EXPECT_EQ(w.records(), n);
    }
    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    ASSERT_EQ(data.records.size(), n);
    for (std::uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(data.records[i].tick, i);
    std::remove(path.c_str());
}

TEST(Binlog, BytesAreAPureFunctionOfAppendOrder)
{
    const std::string p1 = tmpPath("det1.blg");
    const std::string p2 = tmpPath("det2.blg");
    for (const std::string &p : {p1, p2}) {
        Xorshift x;
        obs::BinlogWriter w(p);
        w.begin({"a", "b"}, {"m"});
        for (int i = 0; i < 10000; ++i) {
            obs::TraceEvent ev = fuzzEvent(x);
            ev.component = static_cast<std::int16_t>(i % 2);
            w.append(ev);
            if (i % 100 == 0)
                w.appendMetric(ev.tick, 0, static_cast<double>(i));
        }
        w.finish();
    }
    EXPECT_EQ(slurp(p1), slurp(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(Binlog, MetricsCsvReconstruction)
{
    const std::string path = tmpPath("metrics.blg");
    {
        obs::BinlogWriter w(path);
        w.begin({}, {"l2.hits", "core.ipc"});
        w.appendMetric(100, 0, 5.0);
        w.appendMetric(100, 1, 1.25);
        w.appendMetric(200, 0, 9.0);
        w.appendMetric(200, 1, 1.5);
        w.finish();
    }
    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    EXPECT_TRUE(obs::binlogEvents(data).empty());
    std::string csv = obs::binlogMetricsCsv(data);
    EXPECT_EQ(csv,
              "tick,l2.hits,core.ipc\n"
              "100,5,1.25\n"
              "200,9,1.5\n");
    std::remove(path.c_str());
}

TEST(Binlog, ReaderRejectsGarbage)
{
    const std::string path = tmpPath("garbage.blg");
    spit(path, "this is not a binlog at all, not even close");
    obs::BinlogData data;
    std::string err;
    EXPECT_FALSE(obs::readBinlog(path, data, &err));
    EXPECT_NE(err.find("not a cnsim binlog"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Binlog, ReaderRejectsTruncatedStream)
{
    const std::string path = tmpPath("trunc.blg");
    {
        obs::BinlogWriter w(path);
        w.begin({"c"}, {});
        obs::TraceEvent ev;
        ev.component = 0;
        for (int i = 0; i < 50; ++i)
            w.append(ev);
        w.finish();
    }
    std::string bytes = slurp(path);

    // Losing the tail (a crashed or still-running producer) must be
    // detected, not silently read as a shorter run.
    spit(path, bytes.substr(0, bytes.size() - 10));
    obs::BinlogData data;
    std::string err;
    EXPECT_FALSE(obs::readBinlog(path, data, &err));
    EXPECT_NE(err.find("trailer"), std::string::npos) << err;

    // A whole missing record with an intact-looking tail is caught by
    // the payload/record-count cross-check.
    spit(path,
         bytes.substr(0, bytes.size() - 24 -
                             obs::binlog_record_wire_bytes) +
             bytes.substr(bytes.size() - 24));
    EXPECT_FALSE(obs::readBinlog(path, data, &err));
    EXPECT_NE(err.find("payload mismatch"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Binlog, ReaderRejectsUnknownMessageId)
{
    const std::string path = tmpPath("badmsg.blg");
    {
        obs::BinlogWriter w(path);
        w.begin({"c"}, {});
        obs::TraceEvent ev;
        ev.component = 0;
        w.append(ev);
        w.finish();
    }
    std::string bytes = slurp(path);
    // The single record sits right before the 24-byte trailer; its msg
    // field is at offset 32 within the 41-byte record.
    std::size_t msg_off =
        bytes.size() - 24 - obs::binlog_record_wire_bytes + 32;
    bytes[msg_off] = static_cast<char>(0xff);
    bytes[msg_off + 1] = static_cast<char>(0xff);
    spit(path, bytes);
    obs::BinlogData data;
    std::string err;
    EXPECT_FALSE(obs::readBinlog(path, data, &err));
    EXPECT_NE(err.find("message id"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(BinlogDeathTest, AppendBeforeBeginAsserts)
{
    obs::BinlogWriter w(tmpPath("nobegin.blg"));
    obs::TraceEvent ev;
    EXPECT_DEATH(w.append(ev), "append outside");
}

TEST(BinlogDeathTest, DoubleBeginAsserts)
{
    const std::string path = tmpPath("double.blg");
    obs::BinlogWriter w(path);
    w.begin({}, {});
    EXPECT_DEATH(w.begin({}, {}), "begun twice");
    w.finish();
    std::remove(path.c_str());
}

TEST(BinlogDeathTest, SecondWriterOnAnOpenPathDies)
{
    // Two runs given one binlog_out must not truncate and interleave
    // one file silently.
    const std::string path = tmpPath("claimed.blg");
    {
        obs::BinlogWriter first(path);
        first.begin({}, {});
        obs::BinlogWriter second(path);
        EXPECT_DEATH(second.begin({}, {}), "two binlog writers share");
    }
    // The first writer's destructor sealed its log and released the
    // path, so a later run may reuse it.
    obs::BinlogWriter next(path);
    next.begin({}, {});
    next.finish();
    obs::BinlogData data;
    std::string err;
    EXPECT_TRUE(obs::readBinlog(path, data, &err)) << err;
    std::remove(path.c_str());
}

} // namespace
} // namespace cnsim
