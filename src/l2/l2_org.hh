/**
 * @file
 * Abstract interface shared by every L2 organization.
 *
 * The paper evaluates five organizations of the 8 MB on-chip L2:
 * uniform-shared, private, non-uniform-shared (CMP-SNUCA), ideal
 * (shared capacity at private latency), and CMP-NuRAPID. They all
 * implement this interface so the System, Runner, and benches treat
 * them interchangeably.
 */

#ifndef CNSIM_L2_L2_ORG_HH
#define CNSIM_L2_L2_ORG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

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

/** Base class for L2 cache organizations. */
class L2Org
{
  public:
    L2Org() = default;
    virtual ~L2Org() = default;

    L2Org(const L2Org &) = delete;
    L2Org &operator=(const L2Org &) = delete;

    /**
     * Perform an L2 access on behalf of @p acc.core at tick @p at,
     * updating all coherence state atomically and composing the
     * completion time from resource occupancies.
     */
    [[nodiscard]] virtual AccessResult access(const MemAccess &acc,
                                              Tick at) = 0;

    /** Short organization name for reports ("shared", "private", ...). */
    [[nodiscard]] virtual std::string kind() const = 0;

    /** Register statistics. Overriders must call the base. */
    virtual void
    regStats(StatGroup &group)
    {
        group.addCounter("l2.accesses", &n_accesses, "L2 accesses");
        group.addCounter("l2.hits", &cls[0], "L2 hits");
        group.addCounter("l2.rosMisses", &cls[1], "read-only-sharing misses");
        group.addCounter("l2.rwsMisses", &cls[2], "read-write-sharing misses");
        group.addCounter("l2.capacityMisses", &cls[3], "capacity misses");
    }

    /** Reset statistics (end of warm-up). Overriders call the base. */
    virtual void
    resetStats()
    {
        n_accesses.reset();
        for (auto &c : cls)
            c.reset();
    }

    /**
     * Serialize the organization's full architectural state (arrays,
     * LRU stamps, coherence metadata, port occupancies) into a
     * checkpoint payload. Pure so a new organization cannot silently
     * opt out of checkpointing.
     */
    virtual void saveState(ByteWriter &w) const = 0;

    /** Restore state written by saveState on an identically-configured
     * organization. */
    virtual void loadState(ByteReader &r) = 0;

    /** Valid data copies currently resident (checkpoint inspector's
     *  occupancy summary). */
    [[nodiscard]] virtual std::uint64_t validBlockCount() const = 0;

    /** Verify internal invariants; panics on violation. */
    virtual void checkInvariants() const {}

    /**
     * Verify the structural invariants involving one block (the
     * per-block slice of checkInvariants); called by the protocol
     * auditor at inter-access safe points. The default checks nothing.
     */
    virtual void checkBlockInvariants(Addr addr) const { (void)addr; }

    /**
     * Attach the observability sink; organizations override to
     * register their component tracks (and forward to inner caches and
     * resources) and then emit typed events on every state change.
     * Pass null to detach.
     */
    virtual void setTraceSink(obs::TraceSink *s) { sink = s; }

    /**
     * Notification that @p core's L1 serviced a data access to @p addr
     * without involving the L2. Organizations that track block-reuse
     * statistics (Figure 7 counts *processor-level* reuses of resident
     * blocks, most of which the L1 absorbs) override this; the default
     * ignores it.
     */
    virtual void noteL1Hit(CoreId core, Addr addr)
    {
        (void)core;
        (void)addr;
    }

    /**
     * @return true if this organization overrides noteL1Hit. L1 hits
     * are the most common outcome of every access, so System skips the
     * virtual call entirely for the (default) organizations that
     * ignore the notification.
     */
    [[nodiscard]] bool wantsL1HitNotes() const { return wants_l1_hit_notes; }

    /** Total recorded L2 accesses. */
    [[nodiscard]] std::uint64_t accesses() const { return n_accesses.value(); }

    /** Count of accesses with the given classification. */
    [[nodiscard]] std::uint64_t
    clsCount(AccessClass c) const
    {
        return cls[static_cast<int>(c)].value();
    }

    /** Fraction of accesses with the given classification. */
    [[nodiscard]] double
    clsFraction(AccessClass c) const
    {
        std::uint64_t a = accesses();
        return a ? static_cast<double>(clsCount(c)) / a : 0.0;
    }

    /** Overall miss fraction. */
    [[nodiscard]] double
    missFraction() const
    {
        return 1.0 - clsFraction(AccessClass::Hit);
    }

    /**
     * Hook installed by the System: invalidate every L1 block of
     * @p core covered by the L2 block at the given address.
     */
    std::function<void(CoreId core, Addr l2_block_addr)> l1Invalidate;

    /**
     * Hook installed by the System: downgrade (remove store ownership
     * from) the L1 blocks of @p core covered by the L2 block; the bool
     * requests C-state write-through marking.
     */
    std::function<void(CoreId core, Addr l2_block_addr, bool wt)> l1Downgrade;

    /** Install both L1 hooks. */
    void
    setL1Hooks(std::function<void(CoreId, Addr)> inv,
               std::function<void(CoreId, Addr, bool)> down)
    {
        l1Invalidate = std::move(inv);
        l1Downgrade = std::move(down);
    }

  protected:
    /** Record one classified access. */
    void
    record(AccessClass c)
    {
        n_accesses.inc();
        cls[static_cast<int>(c)].inc();
    }

    void
    invalidateL1(CoreId core, Addr l2_block_addr)
    {
        if (l1Invalidate)
            l1Invalidate(core, l2_block_addr);
    }

    void
    downgradeL1(CoreId core, Addr l2_block_addr, bool wt)
    {
        if (l1Downgrade)
            l1Downgrade(core, l2_block_addr, wt);
    }

    /** Observability sink; null (and dormant) unless enabled. */
    obs::TraceSink *sink = nullptr;

    /** Set by organizations that override noteL1Hit. */
    bool wants_l1_hit_notes = false;

  private:
    Counter n_accesses;
    Counter cls[4];
};

} // namespace cnsim

#endif // CNSIM_L2_L2_ORG_HH
