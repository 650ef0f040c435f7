/**
 * @file
 * Always-on binary structured logging (DESIGN.md 3j).
 *
 * The hot path encodes each event once, as a compact delta-coded
 * record, into a staging block only the simulation thread touches. A
 * full block moves to a per-System lock-free SPSC byte ring in one
 * copy, and a background writer thread drains the ring into a CNBLG002
 * streamed binary file. No formatting, no string building, and no
 * unbounded in-memory store happen on the simulation thread: every
 * human-readable rendering moves offline to tools/cntrace, which
 * reconstructs text/JSON/CSV from the stream plus the message registry
 * embedded in the file header.
 *
 * Message ids are static: one id per emit site, with the operand
 * signature registered once in msg_registry and written once into the
 * file header, so the stream is self-describing without carrying any
 * strings per record.
 *
 * Determinism contract: the file's bytes depend only on the order of
 * append() calls (the simulation thread's emission order) -- never on
 * writer-thread scheduling or on where staging blocks end -- so binlog
 * output is byte-identical for every ParallelRunner --jobs value. The
 * producer never drops: when the ring is full it wakes the writer and
 * yields until space frees up.
 *
 * File layout (header and trailer integers are little-endian):
 *   "CNBLG002"                                    8-byte magic
 *   u32 n_messages; per message:
 *       u16 id, str name, str signature           str = u32 len + bytes
 *   u32 n_components; per component: str path
 *   u32 n_metrics;    per metric:    str path
 *   n records, each:
 *       u8 head       bits 0-3 message id; bits 4, 5, 6 and 7 flag
 *                     that addr, arg, dur and {a, b, c} follow
 *       var zigzag(tick - previous record's tick)
 *       var zigzag(component), var zigzag(core)
 *       var zigzag(addr - previous non-zero addr)   if addr != 0
 *       var arg                                     if arg != 0
 *       var dur                                     if dur != 0
 *       u8 a, u8 b, u8 c                            if any is non-zero
 *   "CNBLGEND" u64 n_records u64 n_dropped        24-byte trailer
 *
 * "var" is an unsigned LEB128 varint of at most 10 bytes. Differences
 * wrap modulo 2^64, both delta bases start at 0, and zigzag maps a
 * two's-complement value v to (v << 1) ^ (v >> 63). Records absent a
 * field decode it as 0, so a record never stores a zero operand.
 *
 * n_dropped is always written as 0: nothing on the capture side drops
 * events. Readers still surface a non-zero value.
 *
 * The trailer makes truncation detectable: a reader seeks it from the
 * end of the file and rejects streams whose records do not decode to
 * exactly its record count.
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
static_assert(num_msg_ids <= 16,
              "a record's head byte holds the message id in 4 bits");

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
 * One decoded binlog record: message id, tick, raw operands.
 * Interpretation follows msg_registry[msg].signature; operands the
 * message does not use are zero (-1 for component and core).
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

/** Rebuild the TraceEvent a non-metric BinRecord was made from. */
TraceEvent toTraceEvent(const BinRecord &r);

/**
 * Single-producer/single-consumer lock-free byte ring. The simulation
 * thread pushes whole staging blocks of encoded records; the writer
 * thread drains contiguous spans with peek()/consume() and hands them
 * to fwrite without copying. head/tail are monotonically increasing
 * byte counters with acquire/release ordering, each on its own cache
 * line, so neither side takes a lock or writes a line the other
 * writes.
 */
class SpscRing
{
  public:
    /** @p capacity (in bytes) is rounded up to a power of two. */
    explicit SpscRing(std::size_t capacity);

    /**
     * Producer: append the @p n bytes at @p p -- one copy, two when
     * they wrap -- and publish them at once; false, with nothing
     * written, when fewer than @p n bytes are free.
     */
    bool tryPush(const unsigned char *p, std::size_t n);

    /**
     * Consumer: widest contiguous span of bytes starting at the read
     * cursor. @p p receives the span's first byte; the return value is
     * its length (0 when empty). The span stays valid until consume().
     */
    std::size_t peek(const unsigned char *&p) const;

    /** Consumer: retire @p n bytes previously peek()ed. */
    void consume(std::size_t n);

    /** Bytes currently queued (approximate across threads). */
    std::size_t
    size() const
    {
        return head.load(std::memory_order_acquire) -
               tail.load(std::memory_order_acquire);
    }

    bool empty() const { return size() == 0; }

    std::size_t capacity() const { return cap; }

  private:
    std::vector<unsigned char> buf
        CNSIM_SYNC_NOTE("SPSC: producer writes [head, tail + cap) bytes "
                        "it owns, consumer reads bytes head publishes");
    const std::size_t cap;
    const std::size_t mask;
    /** Next byte the producer writes (monotonic counter). */
    alignas(64) std::atomic<std::size_t> head{0};
    /** Next byte the consumer reads (monotonic counter). */
    alignas(64) std::atomic<std::size_t> tail{0};
};

/**
 * Streams records to a CNBLG002 file: the simulation thread encodes
 * into a private staging block, full blocks move through an SpscRing,
 * and a background writer thread drains the ring. One writer per
 * System; begin() is called at the measurement epoch (component and
 * metric registration is complete by then), finish() at the end of
 * the run.
 *
 * A writer owns its path from begin() to finish(), process-wide: two
 * parallel runs given the same binlog_out would otherwise truncate and
 * interleave one file silently, so a second begin() on a path that is
 * still open is fatal().
 */
class BinlogWriter
{
  public:
    /**
     * Staging-block size: the producer stores records into lines only
     * it touches and publishes once per block. Against 16 KB on the
     * fig12-obs ledger workload (4-CPU Xeon, 4 alternating pairs
     * each), 4 KB ran at 0.98x and 64 KB at 1.01x events_per_s, both
     * inside the runs' spread.
     */
    static constexpr std::size_t block_bytes = std::size_t{16} << 10;

    /**
     * Ring size: at ~7.2 B per record, 1 MB holds ~140k records, close
     * to the 1.3 MB of the fixed-width ring it replaced, so peak RSS
     * holds. Over a 5 s fig12-obs pass (6000+ blocks) the producer
     * found it full once on 4 CPUs and never when pinned to one CPU.
     */
    static constexpr std::size_t ring_bytes = std::size_t{1} << 20;

    /**
     * Remembers @p path; the file opens at begin(). @p ring_capacity
     * exists so tests can make blocks wrap a small ring under
     * backpressure; it must hold a whole block.
     */
    explicit BinlogWriter(std::string path,
                          std::size_t ring_capacity = ring_bytes);

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

    /** Append one trace event (hot path: encode into the block). */
    void append(const TraceEvent &ev);

    /** Append one metrics sample for column @p metric_index. */
    void appendMetric(Tick tick, std::uint32_t metric_index,
                      double value);

    /**
     * Publish the partial block, stop the writer thread, drain the
     * ring, write the trailer, and release the path. Idempotent.
     * fatal() when any write or the close failed, so a run whose log
     * did not reach the disk cannot exit 0.
     */
    void finish();

    /** Records appended so far (producer-side count). */
    std::uint64_t records() const { return n_appended; }

    const std::string &path() const { return out_path; }

  private:
    /** Encode @p ev's fields as one record of message @p msg. */
    void put(std::uint16_t msg, const TraceEvent &ev);
    void publish();
    void writerMain();
    /** fwrite @p n bytes, keeping the errno of the first failure;
     *  @return the bytes written. */
    std::size_t write(const void *p, std::size_t n);

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
    /** Encoder state: the bases the next record's deltas start from. */
    Tick prev_tick CNSIM_SYNC_NOTE("producer thread only") = 0;
    Addr prev_addr CNSIM_SYNC_NOTE("producer thread only") = 0;
    /** Bytes of block holding encoded, unpublished records. */
    std::size_t fill CNSIM_SYNC_NOTE("producer thread only") = 0;
    std::uint64_t n_published
        CNSIM_SYNC_NOTE("producer thread only; bytes pushed") = 0;
    std::uint64_t n_written
        CNSIM_SYNC_NOTE("writer thread; producer reads after join()") = 0;
    /** errno of the first failed write or close; 0 while all succeed. */
    int write_errno
        CNSIM_SYNC_NOTE("producer before the writer starts and after "
                        "join(), writer thread in between") = 0;
    alignas(64) unsigned char block[block_bytes]
        CNSIM_SYNC_NOTE("producer thread only");
};

/** One decoded message-table entry of a CNBLG002 file. */
struct BinlogMessage
{
    std::uint16_t id = 0;
    std::string name;
    std::string signature;
};

/** A fully decoded CNBLG002 stream. */
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
 * Read a CNBLG002 file written by BinlogWriter. Strict: a wrong magic
 * (CNBLG001 included), a corrupt header, a missing trailer, a varint
 * over 10 bytes or 64 bits, a stream ending inside a record, an
 * unregistered message id, a component or metric column outside its
 * table, a record count other than the trailer's, and bytes after the
 * last record are all rejected.
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
