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

constexpr char binlog_magic[8] = {'C', 'N', 'B', 'L', 'G', '0', '0', '1'};
constexpr char binlog_trailer[8] = {'C', 'N', 'B', 'L', 'G', 'E', 'N', 'D'};
constexpr std::size_t binlog_trailer_bytes = 24;

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

// Little-endian memory codecs. Records are encoded/decoded in batches
// through memory buffers so the writer thread issues one fwrite per
// batch instead of one per field.

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
encodeRecord(const BinRecord &r, unsigned char *p)
{
    enc64(p + 0, static_cast<std::uint64_t>(r.tick));
    enc64(p + 8, static_cast<std::uint64_t>(r.addr));
    enc64(p + 16, r.arg);
    enc64(p + 24, r.dur);
    enc16(p + 32, r.msg);
    enc16(p + 34, static_cast<std::uint16_t>(r.component));
    enc16(p + 36, static_cast<std::uint16_t>(r.core));
    p[38] = r.a;
    p[39] = r.b;
    p[40] = r.c;
}

void
decodeRecord(const unsigned char *p, BinRecord &r)
{
    r.tick = static_cast<Tick>(dec64(p + 0));
    r.addr = static_cast<Addr>(dec64(p + 8));
    r.arg = dec64(p + 16);
    r.dur = dec64(p + 24);
    r.msg = dec16(p + 32);
    r.component = static_cast<std::int16_t>(dec16(p + 34));
    r.core = static_cast<std::int16_t>(dec16(p + 36));
    r.a = p[38];
    r.b = p[39];
    r.c = p[40];
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

BinRecord
toBinRecord(const TraceEvent &ev)
{
    BinRecord r;
    r.tick = ev.tick;
    r.addr = ev.addr;
    r.arg = ev.arg;
    r.dur = ev.dur;
    r.msg = static_cast<std::uint16_t>(msgIdFor(ev.kind));
    r.component = ev.component;
    r.core = ev.core;
    r.a = ev.a;
    r.b = ev.b;
    r.c = ev.c;
    return r;
}

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
    : buf(roundUpPow2(capacity) * binlog_record_wire_bytes),
      cap(roundUpPow2(capacity)),
      mask(cap - 1)
{
}

bool
SpscRing::tryPush(const BinRecord &r)
{
    std::size_t h = head.load(std::memory_order_relaxed);
    std::size_t t = tail.load(std::memory_order_acquire);
    if (h - t >= cap)
        return false;
    encodeRecord(r, buf.data() + (h & mask) * binlog_record_wire_bytes);
    head.store(h + 1, std::memory_order_release);
    return true;
}

std::size_t
SpscRing::popBulk(BinRecord *out, std::size_t max)
{
    std::size_t t = tail.load(std::memory_order_relaxed);
    std::size_t h = head.load(std::memory_order_acquire);
    std::size_t n = std::min(h - t, max);
    for (std::size_t i = 0; i < n; ++i)
        decodeRecord(buf.data() +
                         ((t + i) & mask) * binlog_record_wire_bytes,
                     out[i]);
    tail.store(t + n, std::memory_order_release);
    return n;
}

std::size_t
SpscRing::peek(const unsigned char *&p) const
{
    std::size_t t = tail.load(std::memory_order_relaxed);
    std::size_t h = head.load(std::memory_order_acquire);
    std::size_t n = std::min(h - t, cap - (t & mask));
    p = buf.data() + (t & mask) * binlog_record_wire_bytes;
    return n;
}

void
SpscRing::consume(std::size_t n)
{
    tail.store(tail.load(std::memory_order_relaxed) + n,
               std::memory_order_release);
}

BinlogWriter::BinlogWriter(std::string path)
    : out_path(std::move(path)), ring(1 << 15)
{
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
BinlogWriter::appendMetric(Tick tick, std::uint32_t metric_index,
                           double value)
{
    BinRecord r;
    r.tick = tick;
    r.addr = static_cast<Addr>(metric_index);
    r.arg = doubleBits(value);
    r.msg = static_cast<std::uint16_t>(MsgId::MetricValue);
    push(r);
}

void
BinlogWriter::push(const BinRecord &r)
{
    cnsim_assert(active(), "binlog '%s' append outside begin()/finish()",
                 out_path.c_str());
    while (!ring.tryPush(r)) {
        // Ring full: the producer never drops -- it wakes the writer
        // and yields until a slot frees up. Output bytes stay a pure
        // function of the append order.
        {
            MutexLock lk(wake_mutex);
        }
        wake.notify_one();
        std::this_thread::yield();
    }
    ++n_appended;
    // Deliberately no wake-up on the non-full path: the writer drains
    // on its own timed cadence, and finish() forces the last drain.
    // Notifying here makes the just-woken writer preempt the simulation
    // thread after every append on a loaded (or single-core) host --
    // measured at many times the cost of the push itself. The
    // steady-state append is just the encode, two atomic ops, and a
    // counter bump.
}

void
BinlogWriter::writerMain()
{
    // Zero-copy drain: the ring cells already hold the wire bytes, so
    // a drain is one fwrite per contiguous span (at most two spans per
    // ring lap), then a cursor bump.
    auto drain = [&]() {
        const unsigned char *p = nullptr;
        std::size_t n = ring.peek(p);
        if (n) {
            std::fwrite(p, 1, n * binlog_record_wire_bytes, file);
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
        // Timed cadence instead of producer wake-ups: appends never
        // notify (see push()), so the writer drains whatever has
        // accumulated every couple of milliseconds. The ring is sized
        // so a full measurement-rate burst takes longer than one
        // period to fill it; the full-ring path in push() is the
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
    {
        MutexLock lk(wake_mutex);
        stop_requested = true;
    }
    wake.notify_one();
    writer.join();
    cnsim_assert(n_written == n_appended,
                 "binlog '%s' writer lost records (%" PRIu64 " of %" PRIu64
                 " written)",
                 out_path.c_str(), n_written, n_appended);
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
        std::memcmp(magic, binlog_magic, 8) != 0)
        return fail("'" + path + "' is not a cnsim binlog (CNBLG001)");

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

    std::uint64_t payload =
        static_cast<std::uint64_t>(file_size - header_end) -
        binlog_trailer_bytes;
    if (payload != n_records * binlog_record_wire_bytes)
        return fail(strfmt("record payload mismatch: trailer promises "
                           "%" PRIu64 " records (%" PRIu64 " bytes) but "
                           "the stream holds %" PRIu64 " bytes",
                           n_records,
                           n_records * binlog_record_wire_bytes, payload));

    if (std::fseek(f, header_end, SEEK_SET) != 0)
        return fail("cannot seek '" + path + "'");
    out.records.clear();
    out.records.reserve(n_records);
    constexpr std::size_t chunk_records = 4096;
    std::vector<unsigned char> chunk(chunk_records *
                                     binlog_record_wire_bytes);
    std::uint64_t remaining = n_records;
    while (remaining) {
        std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, chunk_records));
        if (std::fread(chunk.data(), binlog_record_wire_bytes, n, f) != n)
            return fail("truncated record stream");
        for (std::size_t i = 0; i < n; ++i) {
            BinRecord r;
            decodeRecord(chunk.data() + i * binlog_record_wire_bytes, r);
            if (r.msg >= n_msgs)
                return fail(strfmt("record %" PRIu64 " has unknown "
                                   "message id %u",
                                   n_records - remaining + i,
                                   static_cast<unsigned>(r.msg)));
            if (r.component >= 0 &&
                static_cast<std::uint32_t>(r.component) >= n_comps)
                return fail(strfmt("record %" PRIu64 " references "
                                   "component %d outside the table",
                                   n_records - remaining + i,
                                   static_cast<int>(r.component)));
            if (r.msg == static_cast<std::uint16_t>(MsgId::MetricValue) &&
                static_cast<std::uint64_t>(r.addr) >= n_metrics)
                return fail(strfmt("metric record %" PRIu64 " references "
                                   "column %" PRIu64 " outside the table",
                                   n_records - remaining + i,
                                   static_cast<std::uint64_t>(r.addr)));
            out.records.push_back(r);
        }
        remaining -= n;
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
