/**
 * @file
 * CNTRF001: the packed multi-core trace file behind --trace-capture /
 * --trace-replay (trace/replay.hh).
 *
 * One file holds every core's stream, each delta+varint encoded to
 * ~8 B/record. Layout (little-endian):
 *   8-byte magic "CNTRF001"
 *   u32 num_cores, u32 reserved (0)
 *   u64 params_hash   (provenance: FNV-1a of the workload params)
 *   u64 seed          (provenance: effective workload seed)
 *   per core: u64 n_records, u64 n_bytes
 *   per core: n_bytes of packed stream (see replay.hh for the record
 *             encoding)
 * This header only transports the packed bytes; encoding/decoding them
 * is RecordedTrace's job.
 */

#ifndef CNSIM_TRACE_TRACE_FILE_HH
#define CNSIM_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cnsim
{

/** One core's packed stream inside a CNTRF001 trace. */
struct PackedCoreTrace
{
    std::uint64_t n_records = 0;
    std::vector<std::uint8_t> bytes;
};

/** In-memory image of a CNTRF001 multi-core packed trace file. */
struct PackedTrace
{
    /** FNV-1a hash of the generating workload params (0 if unknown). */
    std::uint64_t params_hash = 0;
    /** Effective workload seed the trace was generated with. */
    std::uint64_t seed = 0;
    std::vector<PackedCoreTrace> cores;
};

/** Write @p trace to @p path in CNTRF001 format; fatal on I/O error. */
void writeTrf(const std::string &path, const PackedTrace &trace);

/**
 * Load a CNTRF001 file. Fatal on malformed input: bad magic, an absurd
 * core count, a truncated header, a core with no records, fewer than 3
 * or more than 30 bytes per record, or payload bytes that do not match
 * the header's per-core sizes exactly. Sizes are checked against the
 * file before they size any allocation. (Record-level validation -- do
 * the packed bytes decode to n_records records -- is RecordedTrace's
 * job, since the codec lives there.)
 */
PackedTrace readTrf(const std::string &path);

} // namespace cnsim

#endif // CNSIM_TRACE_TRACE_FILE_HH
