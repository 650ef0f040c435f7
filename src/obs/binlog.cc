#include "obs/binlog.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <set>

#include "common/bytes.hh"
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

/** Decoder state of one record stream: the cursor and delta bases. */
struct StreamCursor
{
    const unsigned char *p;
    const unsigned char *end;
    Tick tick = 0;
    Addr addr = 0;
};

/** Longest name or signature a header string may hold. */
constexpr std::uint32_t max_header_string = 4096;

/**
 * The reader's view of a header: each read first checks that its
 * bytes are there, so a corrupt header makes readBinlog return false
 * with a message instead of reaching the ByteReader's fatal().
 */
struct HeaderCursor
{
    ByteReader r;

    /** Read one little-endian integer. */
    template <typename T>
    bool
    get(T &v)
    {
        if (r.remaining() < sizeof(v))
            return false;
        r.raw(&v, sizeof(v));
        return true;
    }

    bool
    str(std::string &s)
    {
        std::uint32_t len = 0;
        if (!get(len) || len > max_header_string || r.remaining() < len)
            return false;
        s.resize(len);
        r.raw(s.data(), len);
        return true;
    }
};

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
            e = getVarint(s.p, s.end, v);
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

    ByteWriter h;
    h.raw(binlog_magic, sizeof(binlog_magic));
    h.u32(static_cast<std::uint32_t>(num_msg_ids));
    for (int m = 0; m < num_msg_ids; ++m) {
        h.u16(static_cast<std::uint16_t>(m));
        h.str(msg_registry[m].name);
        h.str(msg_registry[m].signature);
    }
    h.u32(static_cast<std::uint32_t>(components.size()));
    for (const std::string &c : components)
        h.str(c);
    h.u32(static_cast<std::uint32_t>(metrics.size()));
    for (const std::string &m : metrics)
        h.str(m);
    write(h.bytes().data(), h.bytes().size());

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
    p = putVarint(p, zigzag(static_cast<std::uint64_t>(
                         std::int64_t{ev.component})));
    p = putVarint(p, zigzag(static_cast<std::uint64_t>(
                         std::int64_t{ev.core})));
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
    ev.arg = std::bit_cast<std::uint64_t>(value);
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
            // A failed write still consumes its bytes, so a producer
            // waiting on a full ring never blocks; finish() reports it.
            n_written += write(p, n);
            ring.consume(n);
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
    ByteWriter t;
    t.raw(binlog_trailer, sizeof(binlog_trailer));
    t.u64(n_appended);
    t.u64(0);  // n_dropped
    write(t.bytes().data(), t.bytes().size());
    if (std::fclose(file) != 0 && write_errno == 0)
        write_errno = errno;
    file = nullptr;
    finished = true;
    releasePath(out_path);
    if (write_errno != 0)
        fatal("cannot write binlog '%s': %s", out_path.c_str(),
              std::strerror(write_errno));
    cnsim_assert(n_written == n_published,
                 "binlog '%s' writer lost bytes (%" PRIu64 " of %" PRIu64
                 " written)",
                 out_path.c_str(), n_written, n_published);
}

std::size_t
BinlogWriter::write(const void *p, std::size_t n)
{
    std::size_t done = std::fwrite(p, 1, n, file);
    if (done != n && write_errno == 0)
        write_errno = errno != 0 ? errno : EIO;
    return done;
}

bool
readBinlog(const std::string &path, BinlogData &out, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    std::string file;
    if (FileStatus st = readFile(path, file); !st.ok())
        return fail("cannot open '" + path + "': " + st.error);
    if (file.size() < sizeof(binlog_magic) ||
        std::memcmp(file.data(), binlog_magic, 5) != 0)
        return fail("'" + path + "' is not a cnsim binlog (CNBLG002)");
    if (std::memcmp(file.data(), binlog_magic, sizeof(binlog_magic)) != 0)
        return fail("'" + path + "' is a " + file.substr(0, 8) +
                    " binlog; this reader reads only CNBLG002, so rerun "
                    "the simulation to log it again");

    HeaderCursor h{ByteReader(file.data() + sizeof(binlog_magic),
                              file.size() - sizeof(binlog_magic), path)};
    std::uint32_t n_msgs = 0;
    if (!h.get(n_msgs))
        return fail("truncated message table");
    if (n_msgs == 0 || n_msgs > 65536)
        return fail("corrupt message table");
    out.messages.clear();
    for (std::uint32_t i = 0; i < n_msgs; ++i) {
        BinlogMessage m;
        if (!h.get(m.id))
            return fail("truncated message table");
        if (!h.str(m.name) || !h.str(m.signature))
            return fail("corrupt message registry entry");
        out.messages.push_back(std::move(m));
    }

    std::uint32_t n_comps = 0;
    if (!h.get(n_comps))
        return fail("truncated component table");
    if (n_comps > 65536)
        return fail("corrupt component table");
    out.components.clear();
    for (std::uint32_t i = 0; i < n_comps; ++i) {
        std::string name;
        if (!h.str(name))
            return fail("corrupt component name");
        out.components.push_back(std::move(name));
    }

    std::uint32_t n_metrics = 0;
    if (!h.get(n_metrics))
        return fail("truncated metric table");
    if (n_metrics > (1u << 20))
        return fail("corrupt metric table");
    out.metrics.clear();
    for (std::uint32_t i = 0; i < n_metrics; ++i) {
        std::string name;
        if (!h.str(name))
            return fail("corrupt metric path");
        out.metrics.push_back(std::move(name));
    }

    const std::size_t header_end = file.size() - h.r.remaining();
    if (file.size() - header_end < binlog_trailer_bytes)
        return fail("missing trailer: stream is truncated");
    const std::size_t stream_end = file.size() - binlog_trailer_bytes;
    if (std::memcmp(file.data() + stream_end, binlog_trailer,
                    sizeof(binlog_trailer)) != 0)
        return fail("missing trailer: stream is truncated or corrupt");
    ByteReader t(file.data() + stream_end + sizeof(binlog_trailer),
                 binlog_trailer_bytes - sizeof(binlog_trailer), path);
    std::uint64_t n_records = t.u64();
    out.dropped = t.u64();

    const auto *bytes = reinterpret_cast<const unsigned char *>(file.data());
    StreamCursor s{bytes + header_end, bytes + stream_end};
    out.records.clear();
    out.records.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        n_records, static_cast<std::uint64_t>(s.end - s.p) /
                       min_record_bytes)));
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
        row[static_cast<std::size_t>(r.addr)] = std::bit_cast<double>(r.arg);
    }
    if (open)
        flush();
    return s;
}

} // namespace obs
} // namespace cnsim
