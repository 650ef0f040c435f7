/**
 * @file
 * Trace-record vocabulary for the trace-driven cores.
 */

#ifndef CNSIM_TRACE_TRACE_HH
#define CNSIM_TRACE_TRACE_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/packet.hh"

namespace cnsim
{

/**
 * One unit of work for an in-order core: @p gap non-memory instructions
 * (1 cycle each), an instruction fetch at @p iaddr, then one data
 * reference.
 *
 * The two 4 B fields lead so the record packs into 24 B with no
 * padding: replayed streams are flat arrays of these, so record size
 * is their memory footprint. The order also guards initializers: a
 * positional {gap, iaddr, addr, op} fails to compile, because an
 * address cannot initialize `op`, instead of swapping fields.
 */
struct TraceRecord
{
    /** Non-memory instructions executed before this reference. */
    std::uint32_t gap = 0;
    /** Load or Store. */
    MemOp op = MemOp::Load;
    /** Instruction-fetch address for this record's code. */
    Addr iaddr = 0;
    /** Data address referenced. */
    Addr addr = 0;
};

static_assert(sizeof(TraceRecord) == 24, "TraceRecord must stay unpadded");

/** What a fast-forward consumed: see TraceSource::skipInstructions. */
struct SkipResult
{
    std::uint64_t records = 0;
    std::uint64_t instructions = 0;
};

/** An infinite, per-core supplier of trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next record. Sources never run dry. */
    virtual TraceRecord next() = 0;

    /**
     * Discard the next @p n records (checkpoint-restore positioning:
     * record N of a stream is the N-th canonical draw, so decode-and-
     * discard repositions any source exactly).
     */
    virtual void
    skip(std::uint64_t n)
    {
        while (n--)
            (void)next();
    }

    /**
     * Discard records until at least @p min_instrs instructions (each
     * record is gap + 1) have been passed over, stopping with the
     * record that reaches the target -- exactly the records a
     * decode-and-count loop would consume, so a replay source may
     * satisfy this positionally without decoding every record.
     */
    virtual SkipResult
    skipInstructions(std::uint64_t min_instrs)
    {
        SkipResult r;
        while (r.instructions < min_instrs) {
            TraceRecord rec = next();
            ++r.records;
            r.instructions += rec.gap + 1;
        }
        return r;
    }
};

} // namespace cnsim

#endif // CNSIM_TRACE_TRACE_HH
