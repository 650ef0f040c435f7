/**
 * @file
 * Always-on binary structured logging (DESIGN.md 3j).
 *
 * The hot path appends fixed-size records -- {message id, tick, raw
 * operands} -- to a per-System lock-free SPSC ring; a background
 * writer thread drains the ring into a CNBLG01 streamed binary file.
 * No formatting, no string building, and no unbounded in-memory store
 * happen on the simulation thread: every human-readable rendering
 * moves offline to tools/cntrace, which reconstructs text/JSON/CSV
 * from the stream plus the message registry embedded in the file
 * header.
 *
 * Message ids are static: one id per emit site, with the operand
 * signature registered once in msg_registry and written once into the
 * file header, so the stream is self-describing without carrying any
 * strings per record.
 *
 * Determinism contract: the file's bytes depend only on the order of
 * append() calls (the simulation thread's emission order) -- never on
 * writer-thread scheduling -- so binlog output is byte-identical for
 * every ParallelRunner --jobs value. The producer never drops: when
 * the ring is full it wakes the writer and yields until space frees
 * up.
 *
 * File layout (all integers little-endian):
 *   "CNBLG001"                                    8-byte magic
 *   u32 n_messages; per message:
 *       u16 id, str name, str signature           str = u32 len + bytes
 *   u32 n_components; per component: str path
 *   u32 n_metrics;    per metric:    str path
 *   BinRecord * n  (binlog_record_wire_bytes each)
 *   "CNBLGEND" u64 n_records u64 n_dropped        24-byte trailer
 *
 * n_dropped is always written as 0: nothing on the capture side drops
 * events. Readers still surface a non-zero value.
 *
 * The trailer makes truncation detectable: a reader seeks it from the
 * end of the file and rejects streams whose payload size or record
 * count disagrees with it.
 */

#ifndef CNSIM_OBS_BINLOG_HH
#define CNSIM_OBS_BINLOG_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/types.hh"
#include "obs/event.hh"

namespace cnsim
{
namespace obs
{

/**
 * Static message-id registry: one id per emit site. The first seven
 * ids mirror EventKind one-to-one so TraceSink events convert with a
 * cast; MetricValue carries one metrics-registry sample per record.
 */
enum class MsgId : std::uint16_t
{
    BusTx,        //!< bus transaction (mirrors EventKind::BusTx)
    Transition,   //!< coherence transition
    DGroup,       //!< d-group activity
    L1BackInval,  //!< L1 back-invalidation
    Resource,     //!< port grant
    CoreStall,    //!< core memory stall
    Directory,    //!< directory reading
    MetricValue,  //!< one metrics sample (addr = column, arg = f64 bits)
};

/** Number of registered message ids. */
constexpr int num_msg_ids = 8;

/** Registered name + operand signature of one message id. */
struct MsgInfo
{
    const char *name;
    /** Operand signature: which record fields the message uses and
     *  what they mean, e.g. "core,addr,old:a,new:b,cause:c". */
    const char *signature;
};

/** The message registry, indexed by MsgId; embedded in every file. */
constexpr MsgInfo msg_registry[num_msg_ids] = {
    {"busTx", "comp,cmd:a,dur"},
    {"transition", "comp,core,addr,old:a,new:b,cause:c,flags:arg"},
    {"dgroup", "comp,core,addr,op:a,dgroup:arg,closest:b"},
    {"l1BackInval", "comp,core,addr,blocks:arg"},
    {"resource", "comp,wait:arg,occ:dur"},
    {"coreStall", "comp,core,addr,dur"},
    {"directory", "comp,core,addr,sharers:arg,owner:a,cmd:b"},
    {"metricValue", "metric:addr,f64:arg"},
};

/** The MsgId an EventKind's emit site registered. */
constexpr MsgId
msgIdFor(EventKind k)
{
    return static_cast<MsgId>(static_cast<std::uint16_t>(k));
}

/**
 * One fixed-size binlog record: message id, tick, raw operands.
 * Interpretation follows msg_registry[msg].signature; unused fields
 * stay zero so the serialized stream is deterministic.
 */
struct BinRecord
{
    Tick tick = 0;
    Addr addr = 0;
    std::uint64_t arg = 0;
    std::uint64_t dur = 0;
    std::uint16_t msg = 0;
    std::int16_t component = -1;
    std::int16_t core = -1;
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint8_t c = 0;
};

/** Serialized size of one BinRecord. */
constexpr std::size_t binlog_record_wire_bytes = 41;

/** Build the BinRecord a TraceSink event serializes as. */
BinRecord toBinRecord(const TraceEvent &ev);

/** Rebuild the TraceEvent a non-metric BinRecord was made from. */
TraceEvent toTraceEvent(const BinRecord &r);

/**
 * Single-producer/single-consumer lock-free ring of wire-encoded
 * BinRecords. The simulation thread pushes (encoding the record
 * straight into its 41-byte ring cell -- the bytes that hit the file),
 * the writer thread drains contiguous spans with peek()/consume() and
 * hands them to fwrite without copying or re-encoding. head/tail are
 * monotonically increasing record counters with acquire/release
 * ordering, so neither side ever takes a lock on the hot path.
 */
class SpscRing
{
  public:
    /** @p capacity (in records) is rounded up to a power of two. */
    explicit SpscRing(std::size_t capacity);

    /** Producer: append @p r; false when the ring is full. */
    bool tryPush(const BinRecord &r);

    /** Consumer: pop up to @p max records into @p out; returns count.
     *  (Decoding convenience for tests; the writer uses peek().) */
    std::size_t popBulk(BinRecord *out, std::size_t max);

    /**
     * Consumer: widest contiguous span of encoded records starting at
     * the read cursor. @p p receives the span's first byte; the return
     * value is the record count (0 when empty). The span stays valid
     * until consume().
     */
    std::size_t peek(const unsigned char *&p) const;

    /** Consumer: retire @p n records previously peek()ed. */
    void consume(std::size_t n);

    /** Records currently queued (approximate across threads). */
    std::size_t
    size() const
    {
        return head.load(std::memory_order_acquire) -
               tail.load(std::memory_order_acquire);
    }

    bool empty() const { return size() == 0; }

    std::size_t capacity() const { return cap; }

  private:
    /** cap * wire-bytes, encoded records. */
    std::vector<unsigned char> buf
        CNSIM_SYNC_NOTE("SPSC: producer writes [tail, head) cells it "
                        "owns, consumer reads cells head/tail publish");
    const std::size_t cap;
    const std::size_t mask;
    /** Next record the producer writes (monotonic counter). */
    std::atomic<std::size_t> head{0};
    /** Next record the consumer reads (monotonic counter). */
    std::atomic<std::size_t> tail{0};
};

/**
 * Streams BinRecords to a CNBLG01 file through an SpscRing drained by
 * a background writer thread. One writer per System; begin() is
 * called at the measurement epoch (component and metric registration
 * is complete by then), finish() at the end of the run.
 *
 * A writer owns its path from begin() to finish(), process-wide: two
 * parallel runs given the same binlog_out would otherwise truncate and
 * interleave one file silently, so a second begin() on a path that is
 * still open is fatal().
 */
class BinlogWriter
{
  public:
    /** Remembers @p path; the file opens at begin(). */
    explicit BinlogWriter(std::string path);

    /** Joins the writer thread and seals the file if still open. */
    ~BinlogWriter();

    BinlogWriter(const BinlogWriter &) = delete;
    BinlogWriter &operator=(const BinlogWriter &) = delete;

    /**
     * Claim the path, open the file, write the header (message
     * registry + component + metric tables), and start the writer
     * thread. The header is written synchronously on the calling
     * thread, so the tables must be final.
     */
    void begin(const std::vector<std::string> &components,
               const std::vector<std::string> &metrics);

    /** @return true between begin() and finish(). */
    bool active() const { return begun && !finished; }

    /** Append one trace event (hot path: convert + ring push). */
    void append(const TraceEvent &ev) { push(toBinRecord(ev)); }

    /** Append one metrics sample for column @p metric_index. */
    void appendMetric(Tick tick, std::uint32_t metric_index,
                      double value);

    /**
     * Stop the writer thread, drain the ring, write the trailer, and
     * release the path. Idempotent.
     */
    void finish();

    /** Records appended so far (producer-side count). */
    std::uint64_t records() const { return n_appended; }

    const std::string &path() const { return out_path; }

  private:
    void push(const BinRecord &r);
    void writerMain();

    const std::string out_path;
    std::FILE *file
        CNSIM_SYNC_NOTE("opened/closed by the producer outside the "
                        "writer's lifetime; writer-thread-owned "
                        "between begin() and finish()") = nullptr;
    SpscRing ring
        CNSIM_SYNC_NOTE("SPSC hand-off: producer pushes, writer drains");
    std::thread writer;
    Mutex wake_mutex;
    std::condition_variable_any wake;
    bool stop_requested CNSIM_GUARDED_BY(wake_mutex) = false;
    bool begun CNSIM_SYNC_NOTE("producer thread only") = false;
    bool finished CNSIM_SYNC_NOTE("producer thread only") = false;
    std::uint64_t n_appended
        CNSIM_SYNC_NOTE("producer thread only") = 0;
    std::uint64_t n_written
        CNSIM_SYNC_NOTE("writer thread; producer reads after join()") = 0;
};

/** One decoded message-table entry of a CNBLG01 file. */
struct BinlogMessage
{
    std::uint16_t id = 0;
    std::string name;
    std::string signature;
};

/** A fully decoded CNBLG01 stream. */
struct BinlogData
{
    std::vector<BinlogMessage> messages;
    std::vector<std::string> components;
    std::vector<std::string> metrics;
    std::vector<BinRecord> records;
    /** Drop count recorded in the trailer (0 in every file this
     *  writer produces). */
    std::uint64_t dropped = 0;
};

/**
 * Read a CNBLG01 file written by BinlogWriter. Strict: corrupt
 * headers, truncated streams, missing trailers, record-count
 * mismatches, and unknown message ids are all rejected.
 *
 * @return true on success; on failure @p error (if non-null) receives
 *         a description.
 */
bool readBinlog(const std::string &path, BinlogData &out,
                std::string *error = nullptr);

/** Reconstruct TraceEvents from the non-metric records of @p d. */
std::vector<TraceEvent> binlogEvents(const BinlogData &d);

/**
 * Reconstruct the metrics time-series CSV ("tick,<path>,..." header,
 * one row per snapshot) from the MetricValue records of @p d.
 */
std::string binlogMetricsCsv(const BinlogData &d);

} // namespace obs
} // namespace cnsim

#endif // CNSIM_OBS_BINLOG_HH
