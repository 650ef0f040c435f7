#include "obs/binlog.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <set>

#include "common/logging.hh"

namespace cnsim
{
namespace obs
{

namespace
{

constexpr char binlog_magic[8] = {'C', 'N', 'B', 'L', 'G', '0', '0', '2'};
constexpr char binlog_trailer[8] = {'C', 'N', 'B', 'L', 'G', 'E', 'N', 'D'};
constexpr std::size_t binlog_trailer_bytes = 24;

// Record head byte: the message id in the low nibble, then one flag
// per optional field (binlog.hh has the layout).
constexpr unsigned head_msg_mask = 0x0f;
constexpr unsigned head_addr = 0x10;
constexpr unsigned head_arg = 0x20;
constexpr unsigned head_dur = 0x40;
constexpr unsigned head_abc = 0x80;

/** Longest varint: 64 bits at 7 bits per byte. */
constexpr std::size_t max_varint_bytes = 10;
/** Longest record: head, tick, addr, arg and dur at 10 bytes each,
 *  component and core at 3, and the three operand bytes. */
constexpr std::size_t max_record_bytes =
    1 + 4 * max_varint_bytes + 2 * 3 + 3;
/** Shortest record: head, tick, component and core at one byte. */
constexpr std::size_t min_record_bytes = 4;

/** Binlog paths currently open for writing, process-wide. */
struct OpenPaths
{
    Mutex mu;
    std::set<std::string> paths CNSIM_GUARDED_BY(mu);
};

OpenPaths &
openPaths()
{
    static OpenPaths r;
    return r;
}

/** Claim @p path for one writer; fatal() if another holds it. */
void
claimPath(const std::string &path)
{
    OpenPaths &r = openPaths();
    MutexLock lock(r.mu);
    if (!r.paths.insert(path).second)
        fatal("two binlog writers share '%s': give each run its own "
              "binlog_out file",
              path.c_str());
}

/** Release a path claimPath() took. */
void
releasePath(const std::string &path)
{
    OpenPaths &r = openPaths();
    MutexLock lock(r.mu);
    r.paths.erase(path);
}

// Little-endian codecs for the header and trailer.

void
enc64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
enc32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
enc16(unsigned char *p, std::uint16_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
}

std::uint64_t
dec64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint32_t
dec32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint16_t
dec16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

void
putStr(std::FILE *f, const std::string &s)
{
    unsigned char len[4];
    enc32(len, static_cast<std::uint32_t>(s.size()));
    std::fwrite(len, 1, 4, f);
    std::fwrite(s.data(), 1, s.size(), f);
}

bool
getStr(std::FILE *f, std::string &s, std::uint32_t max_len)
{
    unsigned char len_b[4];
    if (std::fread(len_b, 1, 4, f) != 4)
        return false;
    std::uint32_t len = dec32(len_b);
    if (len > max_len)
        return false;
    s.assign(len, '\0');
    return len == 0 || std::fread(s.data(), 1, len, f) == len;
}

// Record codec. Signed values and differences travel as two's
// complement in a uint64_t, so every step is defined modulo 2^64.

std::uint64_t
zigzag(std::uint64_t v)
{
    return (v << 1) ^ (std::uint64_t{0} - (v >> 63));
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (std::uint64_t{0} - (z & 1));
}

std::uint64_t
zigzag16(std::int16_t v)
{
    return zigzag(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

unsigned char *
putVarint(unsigned char *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<unsigned char>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<unsigned char>(v);
    return p;
}

/** Decoder state of one record stream: the cursor and delta bases. */
struct StreamCursor
{
    const unsigned char *p;
    const unsigned char *end;
    Tick tick = 0;
    Addr addr = 0;
};

/** Read one varint into @p v; nullptr on success, else the reason. */
const char *
getVarint(StreamCursor &s, std::uint64_t &v)
{
    v = 0;
    for (std::size_t i = 0; i < max_varint_bytes; ++i) {
        if (s.p == s.end)
            return "the stream ends inside it";
        unsigned byte = *s.p++;
        if (i == max_varint_bytes - 1 && byte > 1)
            return byte & 0x80 ? "a varint is longer than 10 bytes"
                               : "a varint overflows 64 bits";
        v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
        if (!(byte & 0x80))
            break;
    }
    return nullptr;
}

/**
 * Decode the record at the cursor into @p r and advance past it.
 * @return nullptr on success, else why the bytes are not a record.
 */
const char *
decodeRecord(StreamCursor &s, BinRecord &r)
{
    if (s.p == s.end)
        return "the stream ends inside it";
    unsigned head = *s.p++;
    r = BinRecord{};
    r.msg = static_cast<std::uint16_t>(head & head_msg_mask);
    const char *e = nullptr;
    auto field = [&](bool present, std::uint64_t &v) {
        if (present && !e)
            e = getVarint(s, v);
    };
    std::uint64_t dtick = 0, comp = 0, core = 0, daddr = 0;
    field(true, dtick);
    field(true, comp);
    field(true, core);
    field(head & head_addr, daddr);
    field(head & head_arg, r.arg);
    field(head & head_dur, r.dur);
    if (e)
        return e;
    if (comp > 0xffff || core > 0xffff)
        return "its component or core does not fit 16 bits";
    if (head & head_abc) {
        if (s.end - s.p < 3)
            return "the stream ends inside it";
        r.a = s.p[0];
        r.b = s.p[1];
        r.c = s.p[2];
        s.p += 3;
    }
    s.tick += unzigzag(dtick);
    r.tick = s.tick;
    if (head & head_addr) {
        s.addr += unzigzag(daddr);
        r.addr = s.addr;
    }
    r.component = static_cast<std::int16_t>(unzigzag(comp));
    r.core = static_cast<std::int16_t>(unzigzag(core));
    return nullptr;
}

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
bitsDouble(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

TraceEvent
toTraceEvent(const BinRecord &r)
{
    TraceEvent ev;
    ev.tick = r.tick;
    ev.addr = r.addr;
    ev.arg = r.arg;
    ev.dur = r.dur;
    ev.component = r.component;
    ev.core = r.core;
    ev.kind = static_cast<EventKind>(r.msg);
    ev.a = r.a;
    ev.b = r.b;
    ev.c = r.c;
    return ev;
}

SpscRing::SpscRing(std::size_t capacity)
    : buf(roundUpPow2(capacity)), cap(buf.size()), mask(cap - 1)
{
}

bool
SpscRing::tryPush(const unsigned char *p, std::size_t n)
{
    std::size_t h = head.load(std::memory_order_relaxed);
    std::size_t t = tail.load(std::memory_order_acquire);
    if (cap - (h - t) < n)
        return false;
    std::size_t at = h & mask;
    std::size_t first = std::min(n, cap - at);
    std::memcpy(buf.data() + at, p, first);
    std::memcpy(buf.data(), p + first, n - first);
    head.store(h + n, std::memory_order_release);
    return true;
}

std::size_t
SpscRing::peek(const unsigned char *&p) const
{
    std::size_t t = tail.load(std::memory_order_relaxed);
    std::size_t h = head.load(std::memory_order_acquire);
    p = buf.data() + (t & mask);
    return std::min(h - t, cap - (t & mask));
}

void
SpscRing::consume(std::size_t n)
{
    tail.store(tail.load(std::memory_order_relaxed) + n,
               std::memory_order_release);
}

BinlogWriter::BinlogWriter(std::string path, std::size_t ring_capacity)
    : out_path(std::move(path)), ring(ring_capacity)
{
    cnsim_assert(ring.capacity() >= block_bytes,
                 "binlog ring of %zu bytes cannot hold a %zu-byte block",
                 ring.capacity(), block_bytes);
}

BinlogWriter::~BinlogWriter()
{
    finish();
}

void
BinlogWriter::begin(const std::vector<std::string> &components,
                    const std::vector<std::string> &metrics)
{
    cnsim_assert(!begun, "binlog '%s' begun twice", out_path.c_str());
    claimPath(out_path);
    file = std::fopen(out_path.c_str(), "wb");
    if (!file)
        fatal("cannot open binlog output '%s'", out_path.c_str());
    // A generous stdio buffer keeps the writer thread's fwrite cost to
    // a memcpy most of the time; the stream hits the kernel in ~1 MiB
    // slabs instead of one write per 4 KiB default buffer.
    std::setvbuf(file, nullptr, _IOFBF, std::size_t{1} << 20);

    std::fwrite(binlog_magic, 1, sizeof(binlog_magic), file);
    unsigned char u32[4], u16[2];
    enc32(u32, static_cast<std::uint32_t>(num_msg_ids));
    std::fwrite(u32, 1, 4, file);
    for (int m = 0; m < num_msg_ids; ++m) {
        enc16(u16, static_cast<std::uint16_t>(m));
        std::fwrite(u16, 1, 2, file);
        putStr(file, msg_registry[m].name);
        putStr(file, msg_registry[m].signature);
    }
    enc32(u32, static_cast<std::uint32_t>(components.size()));
    std::fwrite(u32, 1, 4, file);
    for (const std::string &c : components)
        putStr(file, c);
    enc32(u32, static_cast<std::uint32_t>(metrics.size()));
    std::fwrite(u32, 1, 4, file);
    for (const std::string &m : metrics)
        putStr(file, m);

    begun = true;
    writer = std::thread([this]() { writerMain(); });
}

void
BinlogWriter::put(std::uint16_t msg, const TraceEvent &ev)
{
    cnsim_assert(active(), "binlog '%s' append outside begin()/finish()",
                 out_path.c_str());
    if (block_bytes - fill < max_record_bytes)
        publish();
    unsigned char *const rec = block + fill;
    unsigned head = msg;
    unsigned char *p = putVarint(rec + 1, zigzag(ev.tick - prev_tick));
    prev_tick = ev.tick;
    p = putVarint(p, zigzag16(ev.component));
    p = putVarint(p, zigzag16(ev.core));
    if (ev.addr) {
        head |= head_addr;
        p = putVarint(p, zigzag(ev.addr - prev_addr));
        prev_addr = ev.addr;
    }
    if (ev.arg) {
        head |= head_arg;
        p = putVarint(p, ev.arg);
    }
    if (ev.dur) {
        head |= head_dur;
        p = putVarint(p, ev.dur);
    }
    if (ev.a | ev.b | ev.c) {
        head |= head_abc;
        p[0] = ev.a;
        p[1] = ev.b;
        p[2] = ev.c;
        p += 3;
    }
    *rec = static_cast<unsigned char>(head);
    fill = static_cast<std::size_t>(p - block);
    ++n_appended;
}

void
BinlogWriter::append(const TraceEvent &ev)
{
    put(static_cast<std::uint16_t>(msgIdFor(ev.kind)), ev);
}

void
BinlogWriter::appendMetric(Tick tick, std::uint32_t metric_index,
                           double value)
{
    // A metrics sample travels in a TraceEvent's fields (its kind is
    // unused): addr holds the column, arg the value's bits.
    TraceEvent ev;
    ev.tick = tick;
    ev.addr = static_cast<Addr>(metric_index);
    ev.arg = doubleBits(value);
    put(static_cast<std::uint16_t>(MsgId::MetricValue), ev);
}

void
BinlogWriter::publish()
{
    while (!ring.tryPush(block, fill)) {
        // Ring full: the producer never drops -- it wakes the writer
        // and yields until the block fits. Output bytes stay a pure
        // function of the append order.
        {
            MutexLock lk(wake_mutex);
        }
        wake.notify_one();
        std::this_thread::yield();
    }
    n_published += fill;
    fill = 0;
    // Deliberately no wake-up on the non-full path: the writer drains
    // on its own timed cadence, and finish() forces the last drain.
    // Notifying here makes the just-woken writer preempt the simulation
    // thread on a loaded (or single-core) host.
}

void
BinlogWriter::writerMain()
{
    // Zero-copy drain: the ring already holds the file's bytes, so a
    // drain is one fwrite per contiguous span (at most two spans per
    // ring lap), then a cursor bump.
    auto drain = [&]() {
        const unsigned char *p = nullptr;
        std::size_t n = ring.peek(p);
        if (n) {
            std::fwrite(p, 1, n, file);
            ring.consume(n);
            n_written += n;
        }
        return n;
    };
    for (;;) {
        if (drain())
            continue;
        MutexLock lk(wake_mutex);
        if (!ring.empty())
            continue;
        if (stop_requested)
            break;
        // Timed cadence instead of producer wake-ups: publishing never
        // notifies (see publish()), so the writer drains whatever has
        // accumulated every couple of milliseconds. The ring is sized
        // so a full measurement-rate burst takes longer than one
        // period to fill it; the full-ring path in publish() is the
        // backstop, and finish() notifies for the final drain.
        // condition_variable_any waits on the Mutex capability itself
        // (BasicLockable); MutexLock above keeps the scoped extent
        // visible to the thread-safety analysis.
        wake.wait_for(wake_mutex, std::chrono::milliseconds(2));
    }
    while (drain()) {
    }
}

void
BinlogWriter::finish()
{
    if (!begun || finished)
        return;
    publish();
    {
        MutexLock lk(wake_mutex);
        stop_requested = true;
    }
    wake.notify_one();
    writer.join();
    cnsim_assert(n_written == n_published,
                 "binlog '%s' writer lost bytes (%" PRIu64 " of %" PRIu64
                 " written)",
                 out_path.c_str(), n_written, n_published);
    std::fwrite(binlog_trailer, 1, sizeof(binlog_trailer), file);
    unsigned char u64[8];
    enc64(u64, n_appended);
    std::fwrite(u64, 1, 8, file);
    enc64(u64, 0);
    std::fwrite(u64, 1, 8, file);
    std::fclose(file);
    file = nullptr;
    finished = true;
    releasePath(out_path);
}

bool
readBinlog(const std::string &path, BinlogData &out, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return fail("cannot open '" + path + "'");
    struct Closer
    {
        std::FILE *f;
        ~Closer() { std::fclose(f); }
    } closer{f};

    char magic[8];
    if (std::fread(magic, 1, 8, f) != 8 ||
        std::memcmp(magic, binlog_magic, 5) != 0)
        return fail("'" + path + "' is not a cnsim binlog (CNBLG002)");
    if (std::memcmp(magic, binlog_magic, 8) != 0)
        return fail("'" + path + "' is a " + std::string(magic, 8) +
                    " binlog; this reader reads only CNBLG002, so rerun "
                    "the simulation to log it again");

    unsigned char u32_b[4], u16_b[2];
    if (std::fread(u32_b, 1, 4, f) != 4)
        return fail("truncated message table");
    std::uint32_t n_msgs = dec32(u32_b);
    if (n_msgs == 0 || n_msgs > 65536)
        return fail("corrupt message table");
    out.messages.clear();
    for (std::uint32_t i = 0; i < n_msgs; ++i) {
        BinlogMessage m;
        if (std::fread(u16_b, 1, 2, f) != 2)
            return fail("truncated message table");
        m.id = dec16(u16_b);
        if (!getStr(f, m.name, 4096) || !getStr(f, m.signature, 4096))
            return fail("corrupt message registry entry");
        out.messages.push_back(std::move(m));
    }

    if (std::fread(u32_b, 1, 4, f) != 4)
        return fail("truncated component table");
    std::uint32_t n_comps = dec32(u32_b);
    if (n_comps > 65536)
        return fail("corrupt component table");
    out.components.clear();
    for (std::uint32_t i = 0; i < n_comps; ++i) {
        std::string name;
        if (!getStr(f, name, 4096))
            return fail("corrupt component name");
        out.components.push_back(std::move(name));
    }

    if (std::fread(u32_b, 1, 4, f) != 4)
        return fail("truncated metric table");
    std::uint32_t n_metrics = dec32(u32_b);
    if (n_metrics > (1u << 20))
        return fail("corrupt metric table");
    out.metrics.clear();
    for (std::uint32_t i = 0; i < n_metrics; ++i) {
        std::string name;
        if (!getStr(f, name, 4096))
            return fail("corrupt metric path");
        out.metrics.push_back(std::move(name));
    }

    long header_end = std::ftell(f);
    if (header_end < 0 || std::fseek(f, 0, SEEK_END) != 0)
        return fail("cannot seek '" + path + "'");
    long file_size = std::ftell(f);
    if (file_size < header_end + static_cast<long>(binlog_trailer_bytes))
        return fail("missing trailer: stream is truncated");
    if (std::fseek(f, file_size - static_cast<long>(binlog_trailer_bytes),
                   SEEK_SET) != 0)
        return fail("cannot seek '" + path + "'");
    unsigned char trailer[binlog_trailer_bytes];
    if (std::fread(trailer, 1, binlog_trailer_bytes, f) !=
            binlog_trailer_bytes ||
        std::memcmp(trailer, binlog_trailer, 8) != 0)
        return fail("missing trailer: stream is truncated or corrupt");
    std::uint64_t n_records = dec64(trailer + 8);
    out.dropped = dec64(trailer + 16);

    std::vector<unsigned char> payload(static_cast<std::size_t>(
        file_size - header_end - static_cast<long>(binlog_trailer_bytes)));
    if (std::fseek(f, header_end, SEEK_SET) != 0 ||
        std::fread(payload.data(), 1, payload.size(), f) != payload.size())
        return fail("cannot read the record stream of '" + path + "'");

    StreamCursor s{payload.data(), payload.data() + payload.size()};
    out.records.clear();
    out.records.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        n_records, payload.size() / min_record_bytes)));
    for (std::uint64_t i = 0; i < n_records; ++i) {
        if (s.p == s.end)
            return fail(strfmt("record count mismatch: the trailer "
                               "promises %" PRIu64 " records but the "
                               "stream holds %" PRIu64,
                               n_records, i));
        BinRecord r;
        if (const char *why = decodeRecord(s, r))
            return fail(strfmt("record %" PRIu64 " is corrupt: %s", i, why));
        if (r.msg >= n_msgs)
            return fail(strfmt("record %" PRIu64 " has unknown "
                               "message id %u",
                               i, static_cast<unsigned>(r.msg)));
        if (r.component >= 0 &&
            static_cast<std::uint32_t>(r.component) >= n_comps)
            return fail(strfmt("record %" PRIu64 " references "
                               "component %d outside the table",
                               i, static_cast<int>(r.component)));
        if (r.msg == static_cast<std::uint16_t>(MsgId::MetricValue) &&
            static_cast<std::uint64_t>(r.addr) >= n_metrics)
            return fail(strfmt("metric record %" PRIu64 " references "
                               "column %" PRIu64 " outside the table",
                               i, static_cast<std::uint64_t>(r.addr)));
        out.records.push_back(r);
    }
    if (s.p != s.end) {
        // Whole records past the count mean the trailer lies; anything
        // else is stray bytes.
        std::size_t stray = static_cast<std::size_t>(s.end - s.p);
        std::uint64_t more = 0;
        bool whole = true;
        BinRecord r;
        while (whole && s.p != s.end) {
            whole = decodeRecord(s, r) == nullptr;
            more += whole;
        }
        if (whole)
            return fail(strfmt("record count mismatch: the trailer "
                               "promises %" PRIu64 " records but the "
                               "stream holds %" PRIu64,
                               n_records, n_records + more));
        return fail(strfmt("stray bytes after the last record: %zu",
                           stray));
    }
    return true;
}

std::vector<TraceEvent>
binlogEvents(const BinlogData &d)
{
    std::vector<TraceEvent> events;
    for (const BinRecord &r : d.records) {
        if (r.msg < num_event_kinds)
            events.push_back(toTraceEvent(r));
    }
    return events;
}

std::string
binlogMetricsCsv(const BinlogData &d)
{
    std::string s = "tick";
    for (const std::string &p : d.metrics)
        s += "," + p;
    s += "\n";
    std::vector<double> row(d.metrics.size(), 0.0);
    bool open = false;
    Tick row_tick = 0;
    auto flush = [&]() {
        s += strfmt("%" PRIu64, static_cast<std::uint64_t>(row_tick));
        for (double v : row) {
            if (v >= 0 &&
                v == static_cast<double>(static_cast<std::uint64_t>(v)))
                s += strfmt(",%" PRIu64, static_cast<std::uint64_t>(v));
            else
                s += strfmt(",%g", v);
        }
        s += "\n";
    };
    for (const BinRecord &r : d.records) {
        if (r.msg != static_cast<std::uint16_t>(MsgId::MetricValue))
            continue;
        if (!open || r.tick != row_tick) {
            if (open)
                flush();
            open = true;
            row_tick = r.tick;
            std::fill(row.begin(), row.end(), 0.0);
        }
        row[static_cast<std::size_t>(r.addr)] = bitsDouble(r.arg);
    }
    if (open)
        flush();
    return s;
}

} // namespace obs
} // namespace cnsim
