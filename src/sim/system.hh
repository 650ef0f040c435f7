/**
 * @file
 * System assembly: a CMP with L1s, a chosen L2 organization, a chosen
 * interconnect (the paper's snooping bus, or a mesh/ring NoC with
 * directory coherence for core counts the bus cannot reach), and main
 * memory (the paper's Section 4 platform at the 4-core default).
 */

#ifndef CNSIM_SIM_SYSTEM_HH
#define CNSIM_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/l1_cache.hh"
#include "common/stats.hh"
#include "l2/l2_org.hh"
#include "l2/private_l2.hh"
#include "l2/shared_l2.hh"
#include "mem/bus.hh"
#include "mem/interconnect.hh"
#include "mem/memory.hh"
#include "mem/noc.hh"
#include "nurapid/cmp_nurapid.hh"
#include "obs/auditor.hh"
#include "obs/binlog.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "trace/trace.hh"

namespace cnsim
{

/** Which L2 organization to instantiate. */
enum class L2Kind
{
    Shared,   //!< uniform-shared (base case)
    Private,  //!< private caches + MESI snooping
    Snuca,    //!< CMP-SNUCA non-uniform shared [6]
    Ideal,    //!< shared capacity at private latency (upper bound)
    Nurapid,  //!< CMP-NuRAPID (this paper)
    Update,   //!< private caches + write-update protocol (Section 3.2)
    Dnuca,    //!< CMP-DNUCA with block migration [6]
};

/** Human-readable name of an L2Kind. */
const char *toString(L2Kind k);

/** Full system configuration (defaults = the paper's Section 4). */
struct SystemConfig
{
    /**
     * Core count -- the single source of truth. The System constructor
     * propagates it into the per-organization params (which default to
     * the paper's 4) and asserts on an explicit mismatch.
     */
    int num_cores = 4;
    L2Kind l2_kind = L2Kind::Nurapid;
    /** Coherence fabric: the paper's bus, or a directory NoC. */
    InterconnectKind interconnect = InterconnectKind::Bus;
    /** Average cycles per non-memory instruction in the cores. */
    double core_non_mem_cpi = 1.4;
    /**
     * Retire store *hits* through the store buffer: the L2/bus
     * occupancy is charged, but the core continues after one cycle.
     * Store misses (write-allocate fills) still stall the core.
     */
    bool store_buffering = true;
    L1Params l1d;
    L1Params l1i;
    SharedL2Params shared;
    PrivateL2Params priv;
    SnucaParams snuca;
    NurapidParams nurapid;
    /** Private-cache latency used by the ideal configuration. */
    Tick ideal_latency = 10;
    BusParams bus;
    /** Mesh/ring + directory timing (mesh/ring interconnects only). */
    NocParams noc;
    MemoryParams memory;
    /** Observability: event log, metrics, protocol auditing. */
    obs::ObsParams obs;
};

/** A CMP with the selected on-chip cache hierarchy and interconnect. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /**
     * Execute one trace record's memory activity for @p core starting
     * at @p at (after its gap instructions): the instruction fetch,
     * then the data reference.
     *
     * @return the tick at which the core may proceed.
     */
    Tick access(CoreId core, const TraceRecord &rec, Tick at);

    L2Org &l2() { return *l2_org; }
    const L2Org &l2() const { return *l2_org; }
    MainMemory &memory() { return *mem; }
    /** The coherence interconnect (bus or directory NoC). */
    Interconnect &bus() { return *icn; }
    L1Cache &l1d(CoreId c) { return *l1ds[c]; }
    L1Cache &l1i(CoreId c) { return *l1is[c]; }
    const SystemConfig &config() const { return cfg; }

    void regStats(StatGroup &group);

    /**
     * Reset all statistics, begin the binlog and arm the trace sink:
     * from here on, every event is logged, so logged event counts line
     * up with the post-reset statistics counters.
     */
    void resetStats();

    /** Run the active organization's invariant checks. */
    void checkInvariants() const { l2_org->checkInvariants(); }

    /**
     * Serialize the full architectural state -- memory channels,
     * interconnect (links/bus slot + directory), the L2 organization,
     * and every L1 -- into a checkpoint payload, in a fixed order the
     * matching loadState() replays.
     */
    void saveState(ByteWriter &w) const;

    /** Restore state written by saveState on an identically-configured
     *  system. */
    void loadState(ByteReader &r);

    /** Append inspector-facing occupancy facts to @p meta. */
    void checkpointMeta(
        std::vector<std::pair<std::string, std::uint64_t>> &meta) const;

    /** The per-run trace sink, or null when observability is off. */
    obs::TraceSink *traceSink() { return sink_.get(); }

    /** The online protocol auditor, or null unless auditing. */
    obs::ProtocolAuditor *auditor() { return auditor_.get(); }

    /** The metrics registry, or null unless an interval is set. */
    obs::MetricsRegistry *metrics() { return metrics_.get(); }

    /**
     * Close out observability at the end of the run: emits the
     * trailing partial-interval metrics snapshot and seals the binlog
     * stream (writer drained, trailer written). Idempotent; safe when
     * observability is off.
     */
    void finishObs(Tick now);

    /** Periodic observability work (metrics snapshots); cheap no-op
     *  when the registry is off. Called from the run loop. */
    void
    obsTick(Tick now)
    {
        if (metrics_)
            metrics_->tick(now);
    }

  private:
    Tick accessImpl(CoreId core, const TraceRecord &rec, Tick at);

    /** Map an L2Kind to the protocol family its auditor checks. */
    static obs::AuditProtocol auditProtocolFor(L2Kind kind);

    SystemConfig cfg;
    unsigned l2_block_size;
    /** Cached l2_org->wantsL1HitNotes(): checked on every L1 hit. */
    bool l2_notes_l1 = false;
    std::unique_ptr<MainMemory> mem;
    std::unique_ptr<Interconnect> icn;
    std::unique_ptr<L2Org> l2_org;
    std::vector<std::unique_ptr<L1Cache>> l1ds;
    std::vector<std::unique_ptr<L1Cache>> l1is;
    std::unique_ptr<obs::TraceSink> sink_;
    std::unique_ptr<obs::ProtocolAuditor> auditor_;
    std::unique_ptr<obs::MetricsRegistry> metrics_;
    std::unique_ptr<obs::BinlogWriter> binlog_;
};

} // namespace cnsim

#endif // CNSIM_SIM_SYSTEM_HH
