/**
 * @file
 * Zero-copy trace capture and replay.
 *
 * A paper figure is a grid of L2 organizations all driven by the same
 * synthetic reference stream, yet historically every grid cell re-ran
 * the full generative model. A RecordedTrace materializes each
 * (workload, seed) stream once -- all cores, in a *canonical* order --
 * into flat per-core record buffers, and ReplaySource replays a core's
 * stream from those buffers with nothing but an array read per record.
 * Every cell of a sweep then shares one immutable trace (via
 * TraceCache), so generation is paid once instead of once per cell,
 * and every organization is, by construction, measured against the
 * bit-identical reference stream.
 *
 * In-memory chunks are deliberately *not* varint-packed: profiling the
 * packed read path on a seven-org sweep measured the per-record varint
 * decode costing as much as generation itself
 * (~25 ns each on the baseline host), which capped a replay-backed
 * sweep at parity with regenerating the stream in every cell. A flat
 * TraceRecord array trades ~3x the trace memory (24 B/record vs ~8 B
 * packed) for a decode-free hot path. That memory is not small: the
 * Fig. 10 sweep at 2M + 8M instructions per core holds three streams
 * of 4 x 245760 records, about 68 MiB, most of its peak RSS. The
 * varint codec below survives only at the file boundary: CNTRF001
 * payloads are packed on save and decoded (with validation) once on
 * load.
 *
 * The hardware prefetchers do not hide those reads. One load site in
 * ReplaySource::next serves every core's stream in turn, each at its
 * own address, so that load shows no single stride, and each new host
 * line of a stream is a demand miss on the simulator's critical path.
 * next() therefore prefetches a fixed distance ahead in software; that
 * the software prefetch removes the stall supports this reading.
 *
 * Canonical generation order. The synthetic model keeps cross-thread
 * state (the ROS/RWS recently-used registries), so per-core streams
 * depend on the order in which cores draw records. The only draw is
 * SynthWorkload::drawRound, one record per core, core 0..N-1, repeat:
 * a fixed interleaving independent of any simulator timing. A
 * RecordedTrace materializes that stream and a CanonicalWorkload
 * generates it on demand; both call drawRound, so there is one stream,
 * identical for every organization, every --jobs value, and every
 * host.
 *
 * Record encoding (the payload CNTRF001 files transport, ~8 B/record
 * for the paper workloads vs 24 B flat):
 *   varint(gap * 4 + op)                  op: 0 load, 1 store, 2 ifetch
 *   varint(zigzag(iaddr - prev_iaddr))
 *   varint(zigzag(addr - prev_addr))
 * where varint is the usual 7-bits-per-byte little-endian continuation
 * code and prev_* start at 0 per core stream. Decoding is strictly
 * sequential, which is exactly how cores consume traces.
 *
 * Thread-safety: a RecordedTrace generates lazily in fixed-size chunks
 * under a mutex, publishing each completed chunk with a release store;
 * ReplaySources on any thread read published chunks lock-free. Frozen
 * traces (loaded from file) are immutable.
 */

#ifndef CNSIM_TRACE_REPLAY_HH
#define CNSIM_TRACE_REPLAY_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "trace/synth.hh"
#include "trace/trace.hh"

namespace cnsim
{

/**
 * Bounds-checked sequential decoder over one packed core stream; the
 * validating counterpart of ReplaySource's trusting hot-path decoder.
 * Used when ingesting untrusted CNTRF001 payloads and by cntrace.
 */
class PackedStreamReader
{
  public:
    PackedStreamReader(const std::uint8_t *data, std::size_t size)
        : cur(data), end(data + size)
    {
    }

    /**
     * Decode one record. @return false at the end of the buffer or on
     * a malformed record (check error() to distinguish).
     */
    bool next(TraceRecord &out);

    /** True when decoding stopped on malformed bytes, not clean EOF. */
    bool error() const { return bad; }

    /** Records decoded so far. */
    std::uint64_t decoded() const { return n_decoded; }

  private:
    const std::uint8_t *cur;
    const std::uint8_t *end;
    Addr prev_iaddr = 0;
    Addr prev_addr = 0;
    std::uint64_t n_decoded = 0;
    bool bad = false;
};

/**
 * One (workload, seed) reference stream, materialized once for all
 * cores into packed per-core chunk lists.
 *
 * Two modes:
 *  - generating: owns a SynthWorkload and extends every core's stream
 *    on demand (canonical round-robin order), so consumers never run
 *    dry and a cold cache costs exactly one generation pass;
 *  - frozen: loaded from a CNTRF001 file (or fixed record vectors);
 *    consumers wrap to the start when they exhaust it, because sources
 *    never run dry by contract.
 */
class RecordedTrace
{
  public:
    /** Records per generated chunk, per core. */
    static constexpr std::uint32_t chunk_records = 4096;

    /** One flat segment of a core's stream (see the file comment for
     *  why in-memory chunks are not varint-packed). The instruction
     *  total lets ReplaySource fast-forward over a whole chunk in
     *  O(1): it decides whether a scan-and-count loop would stop
     *  inside it. */
    struct Chunk
    {
        std::vector<TraceRecord> records;
        /** Sum of (gap + 1) over the chunk's records. */
        std::uint64_t instr_total = 0;

        std::uint32_t nRecords() const
        {
            return static_cast<std::uint32_t>(records.size());
        }
    };

    /** Generating mode over a fresh SynthWorkload for @p params. */
    explicit RecordedTrace(const SynthWorkloadParams &params);

    /**
     * Frozen mode from a CNTRF001 file. Every core's payload is
     * decode-validated against its header record count; fatal on
     * malformed or empty streams.
     */
    static std::shared_ptr<RecordedTrace>
    fromFile(const std::string &path);

    /** Frozen mode from explicit per-core records (tests, adapters). */
    static std::shared_ptr<RecordedTrace>
    fromRecords(const std::vector<std::vector<TraceRecord>> &records);

    ~RecordedTrace();

    RecordedTrace(const RecordedTrace &) = delete;
    RecordedTrace &operator=(const RecordedTrace &) = delete;

    int cores() const { return num_cores; }

    /** True for file/record-backed traces that can run dry (and wrap). */
    bool frozen() const { return !synth; }

    /** Records currently published for @p core (grows in generating
     *  mode as consumers pull). */
    std::uint64_t recordsPublished(int core) const;

    /** Flat in-memory record bytes currently published, across all
     *  cores (sizeof(TraceRecord) per record; the varint-packed size
     *  exists only in CNTRF001 files). */
    std::uint64_t bytesPublished() const;

    /** Effective workload seed (provenance; 0 for fromRecords). */
    std::uint64_t seed() const { return trace_seed; }

    /** FNV-1a hash of the generating params (0 for fromRecords). */
    std::uint64_t paramsHash() const { return params_hash; }

    /** Snapshot the published stream prefix as a CNTRF001 file. */
    void saveTrf(const std::string &path) const;

    /**
     * Chunk @p idx of @p core's stream: generates (and publishes) it
     * first if needed in generating mode; nullptr past the end of a
     * frozen trace. Lock-free for already-published chunks.
     */
    const Chunk *
    chunk(int core, std::size_t idx)
    {
        if (idx >= published.load(std::memory_order_acquire)) {
            if (frozen())
                return nullptr;
            grow(idx);
        }
        return slots[static_cast<std::size_t>(core)][idx].get();
    }

    /** FNV-1a hash of a params structure (file provenance field). */
    static std::uint64_t hashParams(const SynthWorkloadParams &params);

  private:
    RecordedTrace();  // frozen-mode shell, filled by the factories

    /** Generate and publish chunks until @p idx is available. */
    void grow(std::size_t idx);

    int num_cores CNSIM_SYNC_NOTE("immutable after the factory") = 0;
    std::uint64_t trace_seed
        CNSIM_SYNC_NOTE("immutable after the factory") = 0;
    std::uint64_t params_hash
        CNSIM_SYNC_NOTE("immutable after the factory") = 0;

    /** Generating mode only; null when frozen. The pointer itself is
     *  set once at construction (frozen() null-checks it lock-free);
     *  the workload it points to advances only under grow_mutex. */
    std::unique_ptr<SynthWorkload> synth CNSIM_PT_GUARDED_BY(grow_mutex);

    /**
     * slots[core][chunk] -> published chunks. Pre-sized so readers can
     * index without synchronizing with growth; `published` (release/
     * acquire) is the visibility fence for slot contents.
     */
    std::vector<std::vector<std::unique_ptr<Chunk>>> slots
        CNSIM_SYNC_NOTE("cells below `published` are frozen and read "
                        "lock-free; cells above it are written only "
                        "under grow_mutex, then published with a "
                        "release store");
    std::atomic<std::size_t> published{0};
    Mutex grow_mutex;
};

/**
 * A final, pointer-bumping TraceSource over one core's stream of a
 * RecordedTrace. Replaces the whole generative machinery on the replay
 * side of a sweep: next() is an array read from the current chunk.
 *
 * Multiple ReplaySources (across threads) may share one RecordedTrace;
 * each keeps its own cursor.
 */
class ReplaySource final : public TraceSource
{
  public:
    /**
     * How many records ahead of the cursor next() prefetches, within
     * the current chunk only: 16 records are 384 B, six host lines.
     * Measured, not tuned per run: on a 4-CPU Xeon (GCC 12.2,
     * RelWithDebInfo+LTO), in 6 rotating ledger rounds per workload,
     * 8 ran fig10-sweep 5% slower than 16 (winning 1 round of 6) and
     * fig12-obs 4% faster, and 32 stayed within 2% of 16 everywhere.
     */
    static constexpr std::uint32_t prefetch_distance = 16;

    ReplaySource(RecordedTrace &trace, int core);

    TraceRecord next() override;

    /** Positional reposition; hops whole chunks in O(1) each. */
    void skip(std::uint64_t n) override;

    /** Instruction-bounded fast-forward; hops whole chunks using the
     *  per-chunk instruction totals, scanning only the partial chunk
     *  the stopping record lands in. */
    SkipResult skipInstructions(std::uint64_t min_instrs) override;

    /** Times a frozen trace ran dry and restarted from the top. */
    std::uint64_t wraps() const { return n_wraps; }

    /** Records consumed so far -- the stream cursor a checkpoint
     *  persists. Purely positional: record N of any stream generated
     *  from the same workload family is the N-th canonical draw. */
    std::uint64_t consumed() const { return n_consumed; }

  private:
    /** Step to chunk @p idx; wraps frozen traces at the end. */
    void advanceTo(std::size_t idx);

    RecordedTrace &trace;
    int core;
    const RecordedTrace::Chunk *cur = nullptr;
    std::size_t chunk_idx = 0;
    std::uint32_t off = 0;
    std::uint64_t n_wraps = 0;
    std::uint64_t n_consumed = 0;
};

/**
 * The canonical stream generated on demand instead of materialized.
 *
 * Each core pops records from its own FIFO; when one runs dry, a
 * SynthWorkload::drawRound appends one record to every core's FIFO,
 * so the FIFOs absorb the skew between the fixed draw order and the
 * timing-dependent consumption order. Every record equals the
 * materialized trace's record at the same position, so a run's results
 * do not depend on which of the two delivers its stream.
 *
 * Runner::run generates through this class whenever no materialized
 * trace of its stream is live: a lone consumer gains nothing from
 * materializing, because a freshly created trace generates every
 * record it hands out, skipped ones included, and then holds them.
 *
 * Not thread-safe: one instance drives one run, like SynthWorkload.
 */
class CanonicalWorkload
{
  public:
    explicit CanonicalWorkload(const SynthWorkloadParams &params);
    ~CanonicalWorkload();

    CanonicalWorkload(const CanonicalWorkload &) = delete;
    CanonicalWorkload &operator=(const CanonicalWorkload &) = delete;

    int cores() const { return static_cast<int>(round.size()); }

    /** Trace source driving @p core; emits the canonical stream. */
    TraceSource &source(int core);

  private:
    class CoreSource;

    /** Draw one canonical round into every core's FIFO. */
    void drawRound();

    SynthWorkload synth;
    /** One round's records, reused by every draw. */
    std::vector<TraceRecord> round;
    std::vector<std::unique_ptr<CoreSource>> sources;
};

/**
 * Process-wide cache of RecordedTraces keyed by the *effective*
 * workload parameters (every field, plus the seed), so every grid cell
 * of a sweep -- across Runner, ParallelRunner workers, and bench
 * binaries -- shares one trace per (workload, seed). Entries are held
 * by weak_ptr: a trace lives exactly as long as some runner holds it.
 */
class TraceCache
{
  public:
    static TraceCache &global();

    /**
     * The shared trace for @p params (which must already include the
     * run seed mixing, i.e. Runner's effective params), creating it on
     * first use.
     */
    std::shared_ptr<RecordedTrace>
    acquire(const SynthWorkloadParams &params);

    /** The live trace for @p params if some holder keeps one, else
     *  null; never creates one. */
    std::shared_ptr<RecordedTrace>
    find(const SynthWorkloadParams &params);

    /**
     * The frozen trace of the CNTRF001 file at @p path, decoded on
     * first use (RecordedTrace::fromFile) and shared while any runner
     * holds it, so every cell of a --trace-replay grid reads one copy.
     */
    std::shared_ptr<RecordedTrace> acquireFile(const std::string &path);

    /** Live (still-referenced) entries; for tests and diagnostics. */
    std::size_t liveEntries();

  private:
    /** The live trace stored under @p key, or null. */
    std::shared_ptr<RecordedTrace> lookup(const std::string &key)
        CNSIM_REQUIRES(mutex);
    /** Store @p t under @p key, first pruning released traces. */
    void publish(const std::string &key,
                 const std::shared_ptr<RecordedTrace> &t)
        CNSIM_REQUIRES(mutex);

    Mutex mutex;
    /** acquire's traces keyed by serialized params, acquireFile's by
     *  "file:" + path. */
    std::map<std::string, std::weak_ptr<RecordedTrace>> entries
        CNSIM_GUARDED_BY(mutex);
};

} // namespace cnsim

#endif // CNSIM_TRACE_REPLAY_HH
