/**
 * @file
 * Unit tests for the obs binlog subsystem (DESIGN.md 3j): the static
 * message registry, record round-trips (fuzzed, and at every operand's
 * extremes), the SPSC byte ring, the streaming writer's CNBLG002 bytes
 * against an independent encoder of the documented layout, strict
 * reader rejection of each malformed stream, metric-row
 * reconstruction, the byte-determinism contract, and one writer per
 * path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/binlog.hh"
#include "obs/event.hh"

namespace cnsim
{
namespace
{

std::string
tmpPath(const std::string &tag)
{
    // ctest runs each test in its own process, several at once: the pid
    // keeps two tests from writing one file.
    return std::string(::testing::TempDir()) + "cnsim_binlog_" +
           std::to_string(::getpid()) + "_" + tag;
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

/** fuzzEvent() with addr, arg, dur and {a, b, c} each zero half the
 *  time, so every presence bit of the record head is exercised. */
obs::TraceEvent
sparseEvent(Xorshift &x)
{
    obs::TraceEvent ev = fuzzEvent(x);
    std::uint64_t zero = x.next();
    if (zero & 1)
        ev.addr = 0;
    if (zero & 2)
        ev.arg = 0;
    if (zero & 4)
        ev.dur = 0;
    if (zero & 8)
        ev.a = ev.b = ev.c = 0;
    return ev;
}

/** @p n component paths, so every non-negative int16 track fits. */
std::vector<std::string>
componentTable(std::size_t n)
{
    std::vector<std::string> comps;
    for (std::size_t i = 0; i < n; ++i)
        comps.push_back("c" + std::to_string(i));
    return comps;
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

std::string
le64(std::uint64_t v)
{
    std::string s;
    for (int i = 0; i < 8; ++i)
        s += static_cast<char>(v >> (8 * i));
    return s;
}

std::string
bytes(std::initializer_list<int> list)
{
    std::string s;
    for (int b : list)
        s += static_cast<char>(b);
    return s;
}

/** The 24-byte trailer of a log holding @p n records. */
std::string
trailer(std::uint64_t n)
{
    return "CNBLGEND" + le64(n) + le64(0);
}

/** The header a writer puts before the records of a log with these
 *  component and metric tables. */
std::string
logHeader(const std::vector<std::string> &comps,
          const std::vector<std::string> &metrics)
{
    const std::string path = tmpPath("header.blg");
    {
        obs::BinlogWriter w(path);
        w.begin(comps, metrics);
        w.finish();
    }
    std::string all = slurp(path);
    std::remove(path.c_str());
    return all.substr(0, all.size() - 24);
}

/**
 * A second encoder of CNBLG002 records, written from the layout in
 * binlog.hh alone and run on one thread: the reference the writer's
 * staged, ring-buffered, writer-thread output must equal byte for byte.
 */
struct ReferenceEncoder
{
    std::string out;
    std::uint64_t tick = 0;
    std::uint64_t addr = 0;

    void
    var(std::uint64_t v)
    {
        while (v >= 0x80) {
            out += static_cast<char>(v | 0x80);
            v >>= 7;
        }
        out += static_cast<char>(v);
    }

    static std::uint64_t
    zigzag(std::uint64_t v)
    {
        return (v << 1) ^ (std::uint64_t{0} - (v >> 63));
    }

    static std::uint64_t
    zigzag16(std::int16_t v)
    {
        return zigzag(static_cast<std::uint64_t>(std::int64_t{v}));
    }

    void
    record(const obs::BinRecord &r)
    {
        bool abc = r.a || r.b || r.c;
        out += static_cast<char>(r.msg | (r.addr ? 0x10 : 0) |
                                 (r.arg ? 0x20 : 0) | (r.dur ? 0x40 : 0) |
                                 (abc ? 0x80 : 0));
        var(zigzag(r.tick - tick));
        tick = r.tick;
        var(zigzag16(r.component));
        var(zigzag16(r.core));
        if (r.addr) {
            var(zigzag(r.addr - addr));
            addr = r.addr;
        }
        if (r.arg)
            var(r.arg);
        if (r.dur)
            var(r.dur);
        if (abc) {
            out += static_cast<char>(r.a);
            out += static_cast<char>(r.b);
            out += static_cast<char>(r.c);
        }
    }
};

/** The record a writer logs for @p ev. */
obs::BinRecord
recordOf(const obs::TraceEvent &ev)
{
    obs::BinRecord r;
    r.tick = ev.tick;
    r.addr = ev.addr;
    r.arg = ev.arg;
    r.dur = ev.dur;
    r.msg = static_cast<std::uint16_t>(obs::msgIdFor(ev.kind));
    r.component = ev.component;
    r.core = ev.core;
    r.a = ev.a;
    r.b = ev.b;
    r.c = ev.c;
    return r;
}

/** The record a writer logs for appendMetric(tick, column, value). */
obs::BinRecord
metricRecord(Tick tick, std::uint32_t column, double value)
{
    obs::BinRecord r;
    r.tick = tick;
    r.addr = column;
    r.arg = doubleBits(value);
    r.msg = static_cast<std::uint16_t>(obs::MsgId::MetricValue);
    return r;
}

void
expectEqual(const obs::BinRecord &a, const obs::BinRecord &b)
{
    EXPECT_EQ(a.tick, b.tick);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.arg, b.arg);
    EXPECT_EQ(a.dur, b.dur);
    EXPECT_EQ(a.msg, b.msg);
    EXPECT_EQ(a.component, b.component);
    EXPECT_EQ(a.core, b.core);
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
    // Every field over its whole range -- components and cores over
    // all of int16 -- and each optional one zero half the time, through
    // the writer, the reader and toTraceEvent.
    const std::string path = tmpPath("convfuzz.blg");
    Xorshift x;
    std::vector<obs::TraceEvent> sent;
    {
        obs::BinlogWriter w(path);
        w.begin(componentTable(32768), {});
        for (int i = 0; i < 5000; ++i) {
            obs::TraceEvent ev = sparseEvent(x);
            ev.component = static_cast<std::int16_t>(x.next());
            ev.core = static_cast<std::int16_t>(x.next());
            sent.push_back(ev);
            w.append(ev);
        }
        w.finish();
    }
    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    ASSERT_EQ(data.records.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
        EXPECT_EQ(data.records[i].msg,
                  static_cast<std::uint16_t>(sent[i].kind));
        expectEqual(sent[i], obs::toTraceEvent(data.records[i]));
    }
    std::remove(path.c_str());
}

TEST(Binlog, CodecRoundTripsExtremeOperands)
{
    // Every message id against each operand's extremes: tick deltas
    // that are negative or +-2^63, addr 0 and all-ones (and back to a
    // base of 0 after a zero addr), 10-byte arg and dur varints, int16
    // components and cores at both ends and -1, and metric values whose
    // bits must survive exactly.
    constexpr std::uint64_t top = std::uint64_t{1} << 63;
    constexpr std::uint64_t all = std::numeric_limits<std::uint64_t>::max();
    const Tick ticks[] = {5, 2, 0, top, 0, top - 1, all, 0, all, top + 1};
    const Addr addrs[] = {0, all, 1, 0, all, top, 0, 64};
    const std::uint64_t wide[] = {0, all, 1, top, 127, 128};
    const std::int16_t int16s[] = {-1, INT16_MIN, INT16_MAX, 0};
    const std::uint8_t smalls[][3] = {
        {0, 0, 0}, {255, 255, 255}, {0, 0, 1}, {1, 0, 0}};
    const double values[] = {std::nan(""), -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             0.0, -std::numeric_limits<double>::infinity(),
                             1.5};
    const std::string path = tmpPath("extremes.blg");
    std::vector<obs::BinRecord> sent;
    {
        obs::BinlogWriter w(path);
        w.begin(componentTable(32768), {"m0", "m1", "m2"});
        for (std::size_t i = 0; i < 60; ++i) {
            for (int k = 0; k < obs::num_event_kinds; ++k) {
                std::size_t j = i + static_cast<std::size_t>(k);
                obs::TraceEvent ev;
                ev.kind = static_cast<obs::EventKind>(k);
                ev.tick = ticks[j % std::size(ticks)];
                ev.addr = addrs[j % std::size(addrs)];
                ev.arg = wide[i % std::size(wide)];
                ev.dur = wide[j % std::size(wide)];
                ev.component = int16s[i % std::size(int16s)];
                ev.core = int16s[j % std::size(int16s)];
                ev.a = smalls[j % std::size(smalls)][0];
                ev.b = smalls[j % std::size(smalls)][1];
                ev.c = smalls[j % std::size(smalls)][2];
                sent.push_back(recordOf(ev));
                w.append(ev);
            }
            Tick t = ticks[i % std::size(ticks)];
            auto column = static_cast<std::uint32_t>(i % 3);
            double v = values[i % std::size(values)];
            sent.push_back(metricRecord(t, column, v));
            w.appendMetric(t, column, v);
        }
        w.finish();
    }
    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    ASSERT_EQ(data.records.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
        SCOPED_TRACE(i);
        expectEqual(sent[i], data.records[i]);
    }
    std::remove(path.c_str());
}

TEST(Binlog, SpscRingPushPopWraps)
{
    obs::SpscRing ring(6);  // rounds up to 8 bytes
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_TRUE(ring.empty());

    unsigned char in[16];
    for (unsigned char i = 0; i < 16; ++i)
        in[i] = i;
    const unsigned char *p = nullptr;

    EXPECT_TRUE(ring.tryPush(in, 6));
    EXPECT_FALSE(ring.tryPush(in + 6, 3));  // 2 free: all or nothing
    EXPECT_EQ(ring.size(), 6u);
    ASSERT_EQ(ring.peek(p), 6u);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(p[i], i);
    ring.consume(6);
    EXPECT_TRUE(ring.empty());

    // A push across the end lands in two pieces; peek() returns the
    // piece up to the end, then the rest from the start.
    EXPECT_TRUE(ring.tryPush(in + 6, 8));  // fills it
    EXPECT_FALSE(ring.tryPush(in, 1));
    EXPECT_EQ(ring.size(), 8u);
    ASSERT_EQ(ring.peek(p), 2u);
    EXPECT_EQ(p[0], 6u);
    EXPECT_EQ(p[1], 7u);
    ring.consume(2);
    ASSERT_EQ(ring.peek(p), 6u);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(p[i], 8 + i);
    ring.consume(6);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.peek(p), 0u);
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
    // A ring of two staging blocks, lapped over 40 times: the producer
    // fills it far faster than the writer's 2 ms cadence drains it, so
    // it must block (never drop) while the writer thread drains
    // concurrently, and blocks of uneven length wrap the ring at
    // shifting offsets. The file must equal, byte for byte, the
    // single-threaded reference encoding of the same appends. Also the
    // TSan target for the ring's acquire/release protocol.
    const std::string path = tmpPath("stress.blg");
    const std::vector<std::string> comps = {"c0", "c1"};
    const std::vector<std::string> metrics = {"m0", "m1", "m2"};
    Xorshift x;
    ReferenceEncoder ref;
    std::uint64_t n = 0;
    {
        obs::BinlogWriter w(path, 2 * obs::BinlogWriter::block_bytes);
        w.begin(comps, metrics);
        for (std::uint64_t i = 0; i < 60000; ++i) {
            obs::TraceEvent ev = sparseEvent(x);
            ev.component = static_cast<std::int16_t>(i % 2);
            w.append(ev);
            ref.record(recordOf(ev));
            if (i % 50 == 0) {
                auto column = static_cast<std::uint32_t>(i % 3);
                w.appendMetric(ev.tick, column, static_cast<double>(i));
                ref.record(metricRecord(ev.tick, column,
                                        static_cast<double>(i)));
            }
        }
        w.finish();
        n = w.records();
    }
    EXPECT_EQ(n, 60000u + 1200u);
    EXPECT_GT(ref.out.size(), 40 * 2 * obs::BinlogWriter::block_bytes);
    const std::string got = slurp(path);
    const std::string want = logHeader(comps, metrics) + ref.out + trailer(n);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "first difference at byte "
                             << std::mismatch(got.begin(), got.end(),
                                              want.begin())
                                        .first -
                                    got.begin();
    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    EXPECT_EQ(data.records.size(), n);
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
    // the record-count cross-check. The 50 records are identical, so
    // each is a fiftieth of the stream.
    std::size_t header = logHeader({"c"}, {}).size();
    std::size_t record = (bytes.size() - header - 24) / 50;
    spit(path, bytes.substr(0, bytes.size() - 24 - record) +
                   bytes.substr(bytes.size() - 24));
    EXPECT_FALSE(obs::readBinlog(path, data, &err));
    EXPECT_NE(err.find("record count mismatch"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Binlog, ReaderRejectsUnknownMessageId)
{
    // Head 0x09: message id 9 of the file's 8.
    const std::string path = tmpPath("badmsg.blg");
    spit(path, logHeader({"c"}, {}) + bytes({0x09, 0x0a, 0x00, 0x01}) +
                   trailer(1));
    obs::BinlogData data;
    std::string err;
    EXPECT_FALSE(obs::readBinlog(path, data, &err));
    EXPECT_NE(err.find("message id 9"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Binlog, ReaderRejectsEachMalformedStream)
{
    // One file per rejection the reader promises, each built from the
    // writer's own header for tables {"c"}/{"m"}. A record here is
    // head, tick delta, component, core...: {0x00, 0x0a, 0x00, 0x01}
    // is a busTx at tick +5 on component 0 with no core.
    const std::string header = logHeader({"c"}, {"m"});
    const std::string ok = bytes({0x00, 0x0a, 0x00, 0x01});
    std::string old = header + trailer(0);
    old.replace(0, 8, "CNBLG001");
    struct Case
    {
        const char *what;
        std::string file;
        const char *error;
    };
    const Case cases[] = {
        {"the previous format", old, "CNBLG001"},
        {"an 11-byte varint",
         header + bytes({0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                         0x80, 0x80, 0x80, 0x00, 0x00, 0x01}) +
             trailer(1),
         "longer than 10 bytes"},
        {"a varint past 64 bits",
         header + bytes({0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                         0xff, 0xff, 0x02, 0x00, 0x01}) +
             trailer(1),
         "overflows 64 bits"},
        {"a stream ending inside a varint",
         header + ok + bytes({0x00, 0x0a, 0x00}) + trailer(2),
         "record 1 is corrupt: the stream ends inside it"},
        {"a stream ending inside {a, b, c}",
         header + bytes({0x80, 0x0a, 0x00, 0x01, 0x07, 0x07}) + trailer(1),
         "the stream ends inside it"},
        {"a component past int16",
         header + bytes({0x00, 0x0a, 0x80, 0x80, 0x04, 0x01}) + trailer(1),
         "does not fit 16 bits"},
        {"a component outside the table",
         header + bytes({0x00, 0x0a, 0x02, 0x01}) + trailer(1),
         "component 1 outside the table"},
        {"a metric column outside the table",
         header + bytes({0x17, 0x0a, 0x01, 0x01, 0x02}) + trailer(1),
         "column 1 outside the table"},
        {"fewer records than the trailer counts",
         header + ok + ok + trailer(3),
         "promises 3 records but the stream holds 2"},
        {"more records than the trailer counts",
         header + ok + ok + ok + trailer(2),
         "promises 2 records but the stream holds 3"},
        {"bytes after the last record", header + ok + bytes({0x00}) +
                                            trailer(1),
         "stray bytes after the last record: 1"},
    };
    const std::string path = tmpPath("malformed.blg");
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        spit(path, c.file);
        obs::BinlogData data;
        std::string err;
        EXPECT_FALSE(obs::readBinlog(path, data, &err));
        EXPECT_NE(err.find(c.error), std::string::npos) << err;
    }
    // The same framing with a well-formed stream reads back.
    spit(path, header + ok + bytes({0x07, 0x01, 0x01, 0x01}) + trailer(2));
    obs::BinlogData data;
    std::string err;
    ASSERT_TRUE(obs::readBinlog(path, data, &err)) << err;
    ASSERT_EQ(data.records.size(), 2u);
    EXPECT_EQ(data.records[0].tick, 5u);
    EXPECT_EQ(data.records[0].component, 0);
    EXPECT_EQ(data.records[0].core, -1);
    EXPECT_EQ(data.records[1].msg,
              static_cast<std::uint16_t>(obs::MsgId::MetricValue));
    EXPECT_EQ(data.records[1].tick, 4u);
    EXPECT_EQ(data.records[1].addr, 0u);
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
