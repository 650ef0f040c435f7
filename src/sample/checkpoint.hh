/**
 * @file
 * CNCKPT01: validated snapshot/restore of full machine state.
 *
 * A checkpoint captures everything needed to resume a run exactly where
 * it stopped: per-core retirement and replay-cursor positions, the one
 * pending step event per core, the event-queue clock, and an opaque
 * architectural payload (cache arrays, LRU state, d-group layouts,
 * coherence directories, resource occupancies) written by the System
 * through the same ByteWriter (common/bytes.hh).
 *
 * The format follows the CNTRF001 trace-file discipline: a fixed magic,
 * an explicit version, little-endian fixed-width fields, full bounds
 * validation on every read, and an FNV-1a checksum over the payload so
 * truncation and bit corruption are user errors (fatal), never memory
 * errors. Checkpoints are config-strict: the core count, L2
 * organization, interconnect, and trace provenance hash must match the
 * resuming run (the trace hash check can be relaxed for in-memory
 * sharing across variability seeds, where streams differ by
 * construction but are positionally interchangeable), and so must the
 * behaviour settings of a NuRAPID checkpoint, which change what the
 * warmed state means but not the shape of its arrays.
 *
 * Layout:
 *   "CNCKPT01"                       8-byte magic
 *   u32 version                      currently 4
 *   u32 num_cores, l2_kind, interconnect
 *   u64 tick, events_executed
 *   u64 trace_params_hash, trace_seed, warmup_instructions
 *   u8 enable_cr, enable_isc, u32 promotion, replication  (settings)
 *   per core: u64 instructions, data_refs, step_when, step_seq, consumed
 *   u32 n_meta, then per entry: str name, u64 value   (inspector summary)
 *   u64 arch_len, arch bytes                          (opaque payload)
 *   u64 checksum                     FNV-1a of everything above
 */

#ifndef CNSIM_SAMPLE_CHECKPOINT_HH
#define CNSIM_SAMPLE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace cnsim
{

namespace sample
{

/** Saved position of one core: retirement counters, the single pending
 * step event, and the replay-stream cursor (consumed-record count). */
struct CoreState
{
    std::uint64_t instructions = 0;
    std::uint64_t data_refs = 0;
    Tick step_when = 0;
    std::uint64_t step_seq = 0;
    std::uint64_t consumed = 0;
};

/**
 * The settings a warmed machine depends on that leave its arrays' shape
 * alone, so no geometry check on load can see them. Only CMP-NuRAPID
 * reads them: CR, ISC, and the promotion and replication policies (the
 * raw PromotionPolicy and ReplicationPolicy values).
 */
struct BehaviourSettings
{
    std::uint8_t enable_cr = 1;
    std::uint8_t enable_isc = 1;
    std::uint32_t promotion = 0;
    std::uint32_t replication = 0;
};

/** An in-memory checkpoint; serialize()/deserialize() map it to the
 * validated CNCKPT01 byte format. */
struct Checkpoint
{
    /** Version 2 added the settings; CMP-SNUCA's payload lost a port.
     *  Version 3 moved CMP-NuRAPID's tag LRU stamps ahead of its tag
     *  entries, the layout of every other organization's arrays.
     *  Version 4 gave the L1s that layout too: geometry, LRU clock and
     *  stamps, then {u64 addr, u8 flags} per block. */
    static constexpr std::uint32_t current_version = 4;

    std::uint32_t version = current_version;
    std::uint32_t num_cores = 0;
    std::uint32_t l2_kind = 0;
    std::uint32_t interconnect = 0;
    Tick tick = 0;
    std::uint64_t events_executed = 0;
    std::uint64_t trace_params_hash = 0;
    std::uint64_t trace_seed = 0;
    std::uint64_t warmup_instructions = 0;
    BehaviourSettings settings;
    std::vector<CoreState> cores;
    /** Inspector-facing summary facts ("l2.blocksValid", ...). */
    std::vector<std::pair<std::string, std::uint64_t>> meta;
    /** Opaque architectural payload written by System::saveState. */
    std::string arch;

    /** Render to the CNCKPT01 byte format (checksummed). */
    [[nodiscard]] std::string serialize() const;

    /** Parse + validate bytes; fatal on any corruption. @p what names
     * the source (a path or "<memory>") in error messages. */
    static Checkpoint deserialize(const std::string &bytes,
                                  const std::string &what);

    /**
     * Non-fatal structural check: magic present, checksum matches,
     * version readable. A cache layer holding checkpoints of unknown
     * provenance (src/farm) calls this before handing bytes to the
     * fatal-on-corruption deserialize(); a failing blob is *rejected*
     * (recomputed), never trusted and never a process exit.
     */
    [[nodiscard]] static bool checksumOk(const std::string &bytes);

    /** Write serialize() to @p path; fatal on I/O failure. */
    void saveFile(const std::string &path) const;

    /** Read + deserialize @p path; fatal on I/O or validation failure. */
    static Checkpoint loadFile(const std::string &path);

    /**
     * Fatal unless this checkpoint matches the resuming run's shape.
     * @p check_trace additionally pins the trace provenance hash
     * (file checkpoints are strict; the in-memory variability path
     * relaxes it because each seed replays its own stream). The caller
     * passes @p run_settings for a NuRAPID checkpoint, whose warm state
     * depends on them; each setting that differs is fatal by name.
     */
    void validateConfig(std::uint32_t run_cores, std::uint32_t run_l2_kind,
                        std::uint32_t run_interconnect,
                        std::uint64_t run_trace_hash, bool check_trace,
                        const std::string &what,
                        const BehaviourSettings *run_settings =
                            nullptr) const;
};

} // namespace sample

} // namespace cnsim

#endif // CNSIM_SAMPLE_CHECKPOINT_HH
