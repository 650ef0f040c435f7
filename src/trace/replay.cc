#include "trace/replay.hh"

#include "common/bytes.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "trace/trace_file.hh"

namespace cnsim
{

namespace
{

/**
 * Upper bound on chunks per core (8192 x 4096 records covers ~1.4 G
 * instructions per core at the paper workloads' densest record rate --
 * beyond any configured budget). The slot tables are pre-sized to this
 * so readers can index them without synchronizing with growth.
 */
constexpr std::size_t max_chunks = 8192;

inline std::uint32_t
opCode(MemOp op)
{
    switch (op) {
      case MemOp::Load: return 0;
      case MemOp::Store: return 1;
      case MemOp::Ifetch: return 2;
    }
    cnsim_unreachable("MemOp");
}

inline void
encodeRecord(std::vector<std::uint8_t> &out, Addr &prev_iaddr,
             Addr &prev_addr, const TraceRecord &rec)
{
    unsigned char buf[3 * max_varint_bytes];
    unsigned char *p = putVarint(
        buf, (static_cast<std::uint64_t>(rec.gap) << 2) | opCode(rec.op));
    p = putVarint(p, zigzag(rec.iaddr - prev_iaddr));
    p = putVarint(p, zigzag(rec.addr - prev_addr));
    out.insert(out.end(), buf, p);
    prev_iaddr = rec.iaddr;
    prev_addr = rec.addr;
}

/**
 * Byte-serialize every field that shapes the generated stream, in
 * declaration order. Used both as the exact TraceCache key (no hash
 * collisions possible) and as input to the provenance hash.
 */
std::string
serializeParams(const SynthWorkloadParams &params)
{
    ByteWriter w;
    w.u64(params.seed);
    w.u32(params.shared_regions ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(params.threads.size()));
    for (const SynthThreadParams &t : params.threads) {
        w.f64(t.mean_gap);
        w.f64(t.frac_ros);
        w.f64(t.frac_rws);
        w.u32(t.private_blocks);
        w.f64(t.private_theta);
        w.f64(t.private_hot_frac);
        w.u32(t.private_hot_blocks);
        w.u32(t.ros_blocks);
        w.f64(t.ros_follow);
        w.f64(t.ros_reuse.p0);
        w.f64(t.ros_reuse.p1);
        w.f64(t.ros_reuse.p2_5);
        w.f64(t.ros_reuse.p_more);
        w.u32(t.rws_blocks);
        w.f64(t.rws_write_frac);
        w.f64(t.rws_migratory);
        w.u32(t.code_blocks);
        w.f64(t.code_theta);
        w.f64(t.code_hot_frac);
        w.u32(t.code_hot_blocks);
        w.f64(t.store_frac);
        w.f64(t.frac_stream);
        w.u32(t.stream_blocks);
    }
    return w.take();
}

} // namespace

bool
PackedStreamReader::next(TraceRecord &out)
{
    if (cur == end || bad)
        return false;
    std::uint64_t go = 0, di = 0, da = 0;
    if (getVarint(cur, end, go) || getVarint(cur, end, di) ||
        getVarint(cur, end, da) || (go & 3) == 3 ||
        (go >> 2) > 0xffffffffULL) {
        bad = true;
        return false;
    }
    out.gap = static_cast<std::uint32_t>(go >> 2);
    out.op = (go & 3) == 0   ? MemOp::Load
             : (go & 3) == 1 ? MemOp::Store
                             : MemOp::Ifetch;
    prev_iaddr += unzigzag(di);
    prev_addr += unzigzag(da);
    out.iaddr = prev_iaddr;
    out.addr = prev_addr;
    ++n_decoded;
    return true;
}

RecordedTrace::RecordedTrace() = default;

RecordedTrace::RecordedTrace(const SynthWorkloadParams &params)
    : num_cores(static_cast<int>(params.threads.size())),
      trace_seed(params.seed), params_hash(hashParams(params)),
      synth(std::make_unique<SynthWorkload>(params))
{
    slots.resize(params.threads.size());
    for (auto &core_slots : slots)
        core_slots.resize(max_chunks);
}

RecordedTrace::~RecordedTrace() = default;

std::uint64_t
RecordedTrace::hashParams(const SynthWorkloadParams &params)
{
    std::string s = serializeParams(params);
    return fnv1a(s.data(), s.size());
}

void
RecordedTrace::grow(std::size_t idx)
{
    MutexLock lock(grow_mutex);
    while (published.load(std::memory_order_relaxed) <= idx) {
        std::size_t pub = published.load(std::memory_order_relaxed);
        cnsim_assert(pub < max_chunks,
                     "trace exceeds %zu chunks of %u records per core",
                     max_chunks, chunk_records);
        std::vector<std::unique_ptr<Chunk>> pending;
        pending.reserve(static_cast<std::size_t>(num_cores));
        for (int c = 0; c < num_cores; ++c) {
            auto chunk = std::make_unique<Chunk>();
            chunk->records.reserve(chunk_records);
            pending.push_back(std::move(chunk));
        }
        std::vector<TraceRecord> round(static_cast<std::size_t>(num_cores));
        for (std::uint32_t r = 0; r < chunk_records; ++r) {
            synth->drawRound(round);
            for (std::size_t c = 0; c < round.size(); ++c) {
                pending[c]->instr_total += round[c].gap + 1;
                pending[c]->records.push_back(round[c]);
            }
        }
        for (int c = 0; c < num_cores; ++c) {
            auto ci = static_cast<std::size_t>(c);
            slots[ci][pub] = std::move(pending[ci]);
        }
        published.store(pub + 1, std::memory_order_release);
    }
}

std::uint64_t
RecordedTrace::recordsPublished(int core) const
{
    std::size_t pub = published.load(std::memory_order_acquire);
    std::uint64_t n = 0;
    const auto &core_slots = slots[static_cast<std::size_t>(core)];
    for (std::size_t i = 0; i < pub; ++i)
        n += core_slots[i]->nRecords();
    return n;
}

std::uint64_t
RecordedTrace::bytesPublished() const
{
    std::size_t pub = published.load(std::memory_order_acquire);
    std::uint64_t n = 0;
    for (const auto &core_slots : slots)
        for (std::size_t i = 0; i < pub; ++i)
            n += core_slots[i]->records.size() * sizeof(TraceRecord);
    return n;
}

void
RecordedTrace::saveTrf(const std::string &path) const
{
    // Published chunks are immutable, so an acquire snapshot of the
    // count is all the synchronization a consistent save needs.
    std::size_t pub = published.load(std::memory_order_acquire);
    cnsim_assert(pub > 0 || frozen(), "saving an empty trace");
    PackedTrace t;
    t.params_hash = params_hash;
    t.seed = trace_seed;
    t.cores.resize(static_cast<std::size_t>(num_cores));
    for (int c = 0; c < num_cores; ++c) {
        const auto &core_slots = slots[static_cast<std::size_t>(c)];
        PackedCoreTrace &out = t.cores[static_cast<std::size_t>(c)];
        // Pack on the way out: files keep the delta-varint codec (this
        // is the only encode the flat in-memory chunks ever pay).
        Addr prev_iaddr = 0, prev_addr = 0;
        for (std::size_t i = 0; i < pub; ++i) {
            const Chunk &ch = *core_slots[i];
            out.n_records += ch.nRecords();
            for (const TraceRecord &rec : ch.records)
                encodeRecord(out.bytes, prev_iaddr, prev_addr, rec);
        }
    }
    writeTrf(path, t);
}

std::shared_ptr<RecordedTrace>
RecordedTrace::fromFile(const std::string &path)
{
    PackedTrace t = readTrf(path);
    std::shared_ptr<RecordedTrace> trace(new RecordedTrace());
    trace->num_cores = static_cast<int>(t.cores.size());
    trace->trace_seed = t.seed;
    trace->params_hash = t.params_hash;
    trace->slots.resize(t.cores.size());
    trace->published.store(1, std::memory_order_relaxed);
    for (std::size_t c = 0; c < t.cores.size(); ++c) {
        PackedCoreTrace &core = t.cores[c];
        // Decode the whole payload up front (validating: nothing
        // malformed may pass) straight into the flat chunk the hot
        // replay path reads.
        PackedStreamReader reader(core.bytes.data(), core.bytes.size());
        TraceRecord rec;
        auto chunk = std::make_unique<Chunk>();
        chunk->records.reserve(core.n_records);
        while (reader.next(rec)) {
            chunk->instr_total += rec.gap + 1;
            chunk->records.push_back(rec);
        }
        if (reader.error() || reader.decoded() != core.n_records) {
            fatal("corrupt packed stream for core %zu in '%s': "
                  "%llu of %llu records decode",
                  c, path.c_str(),
                  static_cast<unsigned long long>(reader.decoded()),
                  static_cast<unsigned long long>(core.n_records));
        }
        trace->slots[c].resize(1);
        trace->slots[c][0] = std::move(chunk);
    }
    return trace;
}

std::shared_ptr<RecordedTrace>
RecordedTrace::fromRecords(
    const std::vector<std::vector<TraceRecord>> &records)
{
    cnsim_assert(!records.empty(), "trace needs at least one core");
    std::shared_ptr<RecordedTrace> trace(new RecordedTrace());
    trace->num_cores = static_cast<int>(records.size());
    trace->slots.resize(records.size());
    trace->published.store(1, std::memory_order_relaxed);
    for (std::size_t c = 0; c < records.size(); ++c) {
        cnsim_assert(!records[c].empty(),
                     "core %zu has an empty record stream", c);
        auto chunk = std::make_unique<Chunk>();
        chunk->records = records[c];
        for (const TraceRecord &rec : records[c])
            chunk->instr_total += rec.gap + 1;
        trace->slots[c].resize(1);
        trace->slots[c][0] = std::move(chunk);
    }
    return trace;
}

ReplaySource::ReplaySource(RecordedTrace &trace, int core)
    : trace(trace), core(core)
{
    cnsim_assert(core >= 0 && core < trace.cores(),
                 "core %d out of range for a %d-core trace", core,
                 trace.cores());
    advanceTo(0);
}

void
ReplaySource::advanceTo(std::size_t idx)
{
    const RecordedTrace::Chunk *c = trace.chunk(core, idx);
    if (!c) {
        // Frozen trace ran dry: wrap to the top (sources never run dry
        // by contract).
        if (n_wraps++ == 0)
            warnOnce(strfmt("replay-wrap-core-%d", core),
                     "trace replay wrapped on core %d; consider a "
                     "longer capture",
                     core);
        idx = 0;
        c = trace.chunk(core, 0);
    }
    chunk_idx = idx;
    cur = c;
    off = 0;
}

TraceRecord
ReplaySource::next()
{
    std::uint32_t n = cur->nRecords();
    if (off == n) {
        advanceTo(chunk_idx + 1);
        n = cur->nRecords();
    }
    ++n_consumed;
    const TraceRecord *recs = cur->records.data();
    if (off + prefetch_distance < n)
        __builtin_prefetch(recs + off + prefetch_distance);
    return recs[off++];
}

void
ReplaySource::skip(std::uint64_t n)
{
    while (n) {
        if (off == cur->nRecords())
            advanceTo(chunk_idx + 1);
        std::uint64_t left = cur->nRecords() - off;
        std::uint64_t step = std::min(n, left);
        off += static_cast<std::uint32_t>(step);
        n_consumed += step;
        n -= step;
    }
}

SkipResult
ReplaySource::skipInstructions(std::uint64_t min_instrs)
{
    SkipResult r;
    while (r.instructions < min_instrs) {
        if (off == cur->nRecords())
            advanceTo(chunk_idx + 1);
        // Hop the chunk whenever a scan-and-count loop would consume
        // all of it without reaching the target inside.
        if (off == 0 &&
            r.instructions + cur->instr_total < min_instrs) {
            r.instructions += cur->instr_total;
            r.records += cur->nRecords();
            n_consumed += cur->nRecords();
            off = cur->nRecords();
            continue;
        }
        TraceRecord rec = next();
        ++r.records;
        r.instructions += rec.gap + 1;
    }
    return r;
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    return cache;
}

std::shared_ptr<RecordedTrace>
TraceCache::lookup(const std::string &key)
{
    auto it = entries.find(key);
    return it == entries.end() ? nullptr : it->second.lock();
}

void
TraceCache::publish(const std::string &key,
                    const std::shared_ptr<RecordedTrace> &t)
{
    for (auto e = entries.begin(); e != entries.end();) {
        if (e->second.expired())
            e = entries.erase(e);
        else
            ++e;
    }
    entries[key] = t;
}

std::shared_ptr<RecordedTrace>
TraceCache::find(const SynthWorkloadParams &params)
{
    std::string key = serializeParams(params);
    MutexLock lock(mutex);
    return lookup(key);
}

std::shared_ptr<RecordedTrace>
TraceCache::acquire(const SynthWorkloadParams &params)
{
    std::string key = serializeParams(params);
    MutexLock lock(mutex);
    if (std::shared_ptr<RecordedTrace> t = lookup(key))
        return t;
    auto t = std::make_shared<RecordedTrace>(params);
    publish(key, t);
    return t;
}

std::shared_ptr<RecordedTrace>
TraceCache::acquireFile(const std::string &path)
{
    // Every params key holds NUL bytes (the shared_regions word), which
    // a path never does, so the two kinds of key cannot collide.
    const std::string key = "file:" + path;
    {
        MutexLock lock(mutex);
        if (std::shared_ptr<RecordedTrace> t = lookup(key))
            return t;
    }
    // Decode outside the lock: a corrupt file is fatal, and no other
    // acquire should wait on file I/O.
    std::shared_ptr<RecordedTrace> t = RecordedTrace::fromFile(path);
    MutexLock lock(mutex);
    publish(key, t);
    return t;
}

std::size_t
TraceCache::liveEntries()
{
    MutexLock lock(mutex);
    std::size_t n = 0;
    for (const auto &e : entries)
        if (!e.second.expired())
            ++n;
    return n;
}

// ---------------------------------------------------------------------
// CanonicalWorkload: the canonical stream without the codec.
// ---------------------------------------------------------------------

/**
 * A final TraceSource popping one core's records from its FIFO buffer,
 * drawing a fresh canonical round from the shared workload whenever
 * the buffer runs dry. The buffer absorbs consumption skew: a core
 * running ahead of the others forces rounds that park records in the
 * laggards' buffers, bounded by the cores' retirement skew (the run
 * ends when the *first* core meets its budget).
 */
class CanonicalWorkload::CoreSource final : public TraceSource
{
  public:
    explicit CoreSource(CanonicalWorkload &o) : owner(o) {}

    TraceRecord
    next() override
    {
        if (head == buf.size()) {
            buf.clear();
            head = 0;
            owner.drawRound();
        } else if (head >= buf.size() - head) {
            // Trim the consumed prefix once it is at least as long as
            // the backlog: each surviving record has been paid for by
            // a prior pop, so the move cost amortizes to O(1) per
            // record regardless of how far this core lags, and the
            // held memory stays within 2x the live skew.
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(head));
            head = 0;
        }
        return buf[head++];
    }

  private:
    friend class CanonicalWorkload;

    CanonicalWorkload &owner;
    std::vector<TraceRecord> buf;
    std::size_t head = 0;
};

CanonicalWorkload::CanonicalWorkload(const SynthWorkloadParams &params)
    : synth(params), round(params.threads.size())
{
    for (std::size_t c = 0; c < round.size(); ++c)
        sources.push_back(std::make_unique<CoreSource>(*this));
}

CanonicalWorkload::~CanonicalWorkload() = default;

TraceSource &
CanonicalWorkload::source(int core)
{
    return *sources[static_cast<std::size_t>(core)];
}

void
CanonicalWorkload::drawRound()
{
    synth.drawRound(round);
    for (std::size_t c = 0; c < round.size(); ++c)
        sources[c]->buf.push_back(round[c]);
}

} // namespace cnsim
