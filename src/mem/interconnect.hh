/**
 * @file
 * Abstract on-chip interconnect interface.
 *
 * The paper's platform couples the L2 organizations through a snooping
 * bus; past a handful of cores the bus serializes every coherence
 * action and becomes the scalability wall (the scaling study in
 * DESIGN.md 3h). This interface lets the protocol-owning L2
 * organizations issue the same logical transactions against either
 * fabric:
 *
 *  - SnoopBus (mem/bus.hh): the paper's pipelined split-transaction
 *    bus. Timing and accounting only; `src`/`addr` are ignored, so the
 *    4-core configurations stay bit-identical to the pre-interface
 *    goldens.
 *  - DirectoryInterconnect (mem/directory.hh): home-node directories
 *    over a 2D-mesh (or ring) NoC, replacing broadcasts with
 *    multicast-to-sharers.
 *
 * Protocol *logic* (who responds, what state changes) stays in the L2
 * organizations, which have the global view; an Interconnect provides
 * timing, ordering, and per-command accounting. The directory
 * additionally mirrors sharer membership from the (cmd, src, addr)
 * stream, which is why the org-facing entry points carry the requestor
 * and block address, and hands that membership back through
 * snoopTargets() so the organizations probe only the cores that may
 * hold a block.
 */

#ifndef CNSIM_MEM_INTERCONNECT_HH
#define CNSIM_MEM_INTERCONNECT_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/packet.hh"

namespace cnsim
{

namespace obs
{
class TraceSink;
} // namespace obs

class ByteReader;
class ByteWriter;

/** Which interconnect fabric couples the L2 organizations. */
enum class InterconnectKind
{
    Bus,   //!< the paper's snooping bus (4-core baseline)
    Mesh,  //!< 2D mesh NoC with directory coherence
    Ring,  //!< 1D ring (degenerate mesh) with directory coherence
};

/** Human-readable name of an InterconnectKind. */
inline const char *
toString(InterconnectKind k)
{
    switch (k) {
      case InterconnectKind::Bus: return "bus";
      case InterconnectKind::Mesh: return "mesh";
      case InterconnectKind::Ring: return "ring";
    }
    cnsim_unreachable("InterconnectKind");
}

/** Bitset naming cores 0 .. @p n - 1, for 0 <= n <= 64 (n = 64 sets
 *  every bit without the undefined 1 << 64). */
constexpr std::uint64_t
coreMask(int n)
{
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/**
 * Call @p fn(core) for each set bit of @p mask, lowest core first --
 * the order a loop over every core visits them, so a loop narrowed to
 * Interconnect::snoopTargets() sees the same cores in the same order.
 */
template <typename Fn>
void
forEachCore(std::uint64_t mask, Fn &&fn)
{
    for (; mask != 0; mask &= mask - 1)
        fn(static_cast<CoreId>(std::countr_zero(mask)));
}

/** Timing/accounting model of the coherence interconnect. */
class Interconnect
{
  public:
    virtual ~Interconnect() = default;

    /**
     * Place a transaction of kind @p cmd for block @p addr on the
     * fabric at tick @p at, on behalf of core @p src (invalid_id for
     * anonymous timing-only traffic).
     *
     * @return the tick at which the transaction has been ordered,
     *         observed by every required party, and any combined
     *         response (shared/dirty signals, pointer return, data) is
     *         available at the requestor.
     */
    [[nodiscard]] virtual Tick transaction(BusCmd cmd, CoreId src,
                                           Addr addr, Tick at) = 0;

    /**
     * Place a transaction that does not stall the issuer (BusRepl,
     * writeback address phases, eviction notices).
     */
    virtual void postedTransaction(BusCmd cmd, CoreId src, Addr addr,
                                   Tick at) = 0;

    /** Anonymous timing-only transaction (micro-benchmarks, tests). */
    [[nodiscard]] Tick
    transaction(BusCmd cmd, Tick at)
    {
        return transaction(cmd, invalid_id, 0, at);
    }

    /** Anonymous timing-only posted transaction. */
    void
    postedTransaction(BusCmd cmd, Tick at)
    {
        postedTransaction(cmd, invalid_id, 0, at);
    }

    /**
     * True if the fabric tracks sharer membership and needs a DirPut
     * notice when a clean copy leaves a cache silently. The snooping
     * bus returns false, so the bus-coupled protocols stay exactly as
     * the paper describes them.
     */
    [[nodiscard]] virtual bool wantsEvictionNotices() const
    {
        return false;
    }

    /**
     * @return a superset of the cores that may hold @p addr's block,
     * one bit per core. The snooping bus broadcasts, so it names every
     * core; a directory names the block's sharers. Organizations walk
     * this mask (forEachCore) instead of probing every core, so it must
     * never omit a holder -- the auditor's directory reading checks
     * exactly that after every access.
     */
    [[nodiscard]] virtual std::uint64_t snoopTargets(Addr addr) const = 0;

    /** snoopTargets(@p addr) narrowed to cores 0 .. @p cores - 1 and
     *  without @p self (invalid_id keeps every core). */
    [[nodiscard]] std::uint64_t
    snoopPeers(Addr addr, int cores, CoreId self = invalid_id) const
    {
        std::uint64_t m = snoopTargets(addr) & coreMask(cores);
        return self == invalid_id ? m : m & ~(std::uint64_t{1} << self);
    }

    virtual void regStats(StatGroup &group) = 0;
    virtual void resetStats() = 0;

    /** Emit transaction (and internal Resource) events into @p s. */
    virtual void attachSink(obs::TraceSink *s) = 0;

    /** Transactions of @p cmd since the last resetStats(). */
    [[nodiscard]] virtual std::uint64_t count(BusCmd cmd) const = 0;

    /** Nominal end-to-end visibility latency (energy/latency models). */
    [[nodiscard]] virtual Tick latency() const = 0;

    /** Serialize fabric state (slot/link occupancy, directory
     *  membership) into a checkpoint. */
    virtual void saveState(ByteWriter &w) const = 0;

    /** Restore fabric state from a checkpoint. */
    virtual void loadState(ByteReader &r) = 0;
};

} // namespace cnsim

#endif // CNSIM_MEM_INTERCONNECT_HH
