/**
 * @file
 * Online coherence-protocol invariant auditor.
 *
 * The auditor subscribes to the TraceSink's transition stream and
 * mirrors, per block, the coherence state every core's copy should be
 * in. On each transition it checks the documented protocol reading
 * (DESIGN.md 2):
 *
 *  - emitted old state agrees with the audited state (catches both
 *    protocol bugs and missed/incorrect instrumentation);
 *  - single-M / exclusivity: an E or M copy is the only valid copy;
 *  - no-exit-from-C except invalidation by replacement (BusRepl or a
 *    local tag/frame victim) -- MESIC only;
 *  - C never appears under a non-MESIC protocol;
 *  - write-through-for-C: a processor write that keeps a block in C
 *    must carry the bus-broadcast flag (every C write is a BusRdX);
 *  - directory agreement (mesh/ring runs): each Directory event is an
 *    independent reading of who should hold the block -- at the next
 *    safe point every valid audited copy must appear in the sharer
 *    bitset, and a named owner must still hold a valid copy (no stale
 *    owner). The directory may conservatively name extra sharers
 *    (e.g. while an eviction notice is in flight), never fewer.
 *
 * Structural invariants that are only consistent *between* accesses --
 * forward/reverse pointer agreement in CMP-NuRAPID's tag/frame arrays
 * -- cannot be checked mid-transition, so the auditor accumulates the
 * blocks touched since the last safe point and System::access drains
 * them through runDeferredChecks(), which calls the owning L2
 * organization's per-block invariant hook.
 *
 * A violation panic()s with the last N events recorded for the block,
 * giving the same post-mortem a debugger watchpoint session would.
 *
 * Per block the auditor keeps one fixed-size record inline in its
 * block table: a holder mask per valid state and the last directory
 * reading, plus the index of the block's history ring in a chunked
 * pool (DESIGN.md 3d). Tracking a block allocates no memory of its
 * own, and the exclusivity check is a few mask operations.
 */

#ifndef CNSIM_OBS_AUDITOR_HH
#define CNSIM_OBS_AUDITOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/coh_state.hh"
#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "obs/event.hh"

namespace cnsim
{
namespace obs
{

/** Which protocol reading the auditor enforces. */
enum class AuditProtocol
{
    Mesi,         //!< private-L2 MESI snooping
    Mesic,        //!< CMP-NuRAPID MESI + Communication state
    WriteUpdate,  //!< Dragon-style write-update baseline
    Directory,    //!< shared-L2 per-core I/S/M directory view
};

/** Human-readable name for an AuditProtocol. */
inline const char *
toString(AuditProtocol p)
{
    switch (p) {
      case AuditProtocol::Mesi: return "MESI";
      case AuditProtocol::Mesic: return "MESIC";
      case AuditProtocol::WriteUpdate: return "write-update";
      case AuditProtocol::Directory: return "directory";
    }
    cnsim_unreachable("AuditProtocol");
}

/** Online checker of per-block coherence invariants. */
class ProtocolAuditor
{
  public:
    /**
     * @param proto Protocol reading to enforce.
     * @param num_cores Cores to track, at most 64 (one bit of each
     *        per-block holder mask).
     * @param history_depth Events of per-block history kept for the
     *        violation report.
     */
    ProtocolAuditor(AuditProtocol proto, int num_cores,
                    std::size_t history_depth = 16);

    /** Check one event; TraceSink::record calls this for every event. */
    void onEvent(const TraceEvent &ev);

    /**
     * Run the owning L2 organization's per-block structural checks on
     * every block touched since the last call. Called by
     * System::access between accesses (the atomic-transaction safe
     * point); tests driving an L2Org directly must call it themselves.
     */
    void runDeferredChecks();

    /** Per-block structural hook (wired to L2Org::checkBlockInvariants). */
    std::function<void(Addr)> blockCheck;

    /** @return transitions audited so far. */
    std::uint64_t transitions() const { return n_transitions; }

    /** @return distinct blocks seen so far. */
    std::size_t blocksTracked() const { return blocks.size(); }

    /** @return the audited state of @p core's copy of @p addr. */
    CohState stateOf(CoreId core, Addr addr) const;

    /** @return the formatted event history of @p addr (for tests). */
    std::string historyDump(Addr addr) const;

  private:
    /**
     * One remembered event: what formatEvent prints for the kinds the
     * auditor keeps (transitions, d-group ops, L1 back-invalidations,
     * directory readings). The block address is the ring's key, and
     * the component always renders as "?" in a report.
     */
    struct HistEntry
    {
        Tick tick;
        std::uint64_t arg;
        std::int16_t core;
        EventKind kind;
        std::uint8_t a;
        std::uint8_t b;
        std::uint8_t c;
    };
    static_assert(sizeof(HistEntry) == 24);

    /** Audited state of one block, stored inline in the block table. */
    struct BlockAudit
    {
        /** Holders per valid state: bit c of held[s - 1] is set when
         *  core c holds the block in CohState s (S, E, M, C). */
        std::uint64_t held[4] = {};
        /** Last directory sharer-bitset reading for this block. */
        std::uint64_t dir_sharers = 0;
        /** Total events ever recorded into the ring. */
        std::uint64_t seen = 0;
        /** Index of this block's history ring in the pool. */
        std::uint32_t ring = 0;
        /** Last directory owner reading, invalid_id if none. */
        std::int16_t dir_owner = invalid_id;
        /** True once a Directory event has been seen for this block. */
        bool dir_seen = false;

        /** @return the mask of cores holding a valid copy. */
        std::uint64_t
        validMask() const
        {
            return held[0] | held[1] | held[2] | held[3];
        }

        /** @return the audited state of core @p c's copy. */
        CohState stateOf(int c) const;
    };
    static_assert(sizeof(BlockAudit) == 56);

    BlockAudit &blockFor(Addr addr);
    HistEntry *ringOf(const BlockAudit &ba) const;
    /** @return @p n modulo the history depth. */
    std::size_t
    wrap(std::uint64_t n) const
    {
        return depth_pow2 ? n & (depth - 1) : n % depth;
    }
    void remember(BlockAudit &ba, const TraceEvent &ev);
    void auditTransition(const TraceEvent &ev);
    void checkDirectoryReading(Addr addr, const BlockAudit &ba) const;
    [[noreturn]] void violation(Addr addr, const BlockAudit &ba,
                                const std::string &msg) const;
    std::string historyOf(Addr addr, const BlockAudit &ba) const;

    AuditProtocol proto;
    int ncores;
    std::size_t depth;
    bool depth_pow2;
    /** Audited state per block; open-addressing -- this is consulted
     *  on every audited transition. */
    FlatMap<Addr, BlockAudit> blocks;
    /**
     * History ring pool: chunk k holds rings [k << ring_shift,
     * (k + 1) << ring_shift) of `depth` entries each. A chunk never
     * moves once allocated, and its entries are left uninitialized
     * (each slot is written before it is read), so tracking a block
     * allocates nothing but, now and then, a whole chunk.
     */
    std::vector<std::unique_ptr<HistEntry[]>> chunks;
    /** log2 of the rings per chunk. */
    unsigned ring_shift;
    std::uint32_t n_rings = 0;
    std::vector<Addr> touched;
    std::uint64_t n_transitions = 0;
    /** True once any Directory event has arrived. */
    bool dir_events = false;
};

} // namespace obs
} // namespace cnsim

#endif // CNSIM_OBS_AUDITOR_HH
