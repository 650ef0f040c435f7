/**
 * @file
 * Per-run structured event recorder.
 *
 * Components hold a `TraceSink *` that is null unless observability is
 * enabled for the run, so the disabled hot path is a single
 * branch-predictable pointer test. When enabled, typed emit helpers
 * build a TraceEvent and hand it to record(), which passes it to the
 * protocol auditor (when one is attached) and, once recording is armed
 * at the measurement epoch, to the CNBLG002 binlog, so logged event
 * counts line up with post-reset statistics counters. Timing-only
 * events (bus transactions, port grants, core stalls) are built only
 * for an armed binlog: the auditor ignores them.
 *
 * The sink is owned by one System and never shared: the ParallelRunner
 * determinism contract holds because no process-global state is
 * involved and no event carries wall-clock data.
 *
 * The sink stores nothing: the binlog's hot path encodes one compact
 * record into a block only this thread touches, and every rendering -- text,
 * summaries, Chrome trace_event JSON -- happens offline in
 * tools/cntrace through the formatters declared below (DESIGN.md 3j).
 */

#ifndef CNSIM_OBS_TRACE_SINK_HH
#define CNSIM_OBS_TRACE_SINK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/coh_state.hh"
#include "common/types.hh"
#include "mem/packet.hh"
#include "obs/event.hh"

namespace cnsim
{
namespace obs
{

class BinlogWriter;
class ProtocolAuditor;

/** Per-System observability configuration. */
struct ObsParams
{
    /** Attach the online protocol auditor to the transition stream. */
    bool audit = false;
    /** Ticks between metrics snapshots; 0 disables the registry. */
    Tick metrics_interval = 0;
    /** Stream events + metrics to this CNBLG002 file; "" disables. */
    std::string binlog_out;
};

/** A per-run recorder of typed simulator events. */
class TraceSink
{
  public:
    /**
     * Register a component track by dotted path (e.g.
     * "l2.nurapid.core0.tag"); repeated registration of the same path
     * returns the same id. Track ids index components().
     */
    int registerComponent(const std::string &path);

    /** @return registered component paths, indexed by track id. */
    const std::vector<std::string> &components() const { return comps; }

    /** @return true if record() currently does any work. */
    bool active() const { return armed || auditor != nullptr; }

    /** Start logging events (called at the measurement epoch). */
    void armRecording() { armed = binlog != nullptr; }

    /** Stop logging events; the auditor keeps seeing them. */
    void disarmRecording() { armed = false; }

    /** @return true if events are currently being logged. */
    bool recording() const { return armed; }

    /**
     * Pass every emitted event, armed or not, to @p a (not owned; must
     * outlive the sink or be detached with nullptr).
     */
    void setAuditor(ProtocolAuditor *a) { auditor = a; }

    /**
     * Stream armed events to @p w (not owned; must outlive the sink
     * or be detached). The writer must be begin()-started before the
     * sink is armed.
     */
    void setBinlog(BinlogWriter *w) { binlog = w; }

    /** Dispatch one event to the auditor and, when armed, the binlog. */
    void record(const TraceEvent &ev);

    /** Last tick seen by record(); for emitters outside the timed path. */
    Tick approxNow() const { return last_tick; }

    // Typed emit helpers -- all no-ops when the sink is inactive.
    // The timing-only ones (busTx, resourceAcquire, coreStall) are
    // no-ops too while no log is armed: the auditor ignores their
    // kinds, so their events are never built for it.

    /** A coherence transition on @p core's copy of block @p addr. */
    void
    transition(Tick t, int comp, CoreId core, Addr addr, CohState olds,
               CohState news, TransCause cause, std::uint64_t flags = 0)
    {
        if (!active())
            return;
        TraceEvent ev;
        ev.tick = t;
        ev.addr = addr;
        ev.arg = flags;
        ev.component = static_cast<std::int16_t>(comp);
        ev.core = static_cast<std::int16_t>(core);
        ev.kind = EventKind::Transition;
        ev.a = static_cast<std::uint8_t>(olds);
        ev.b = static_cast<std::uint8_t>(news);
        ev.c = static_cast<std::uint8_t>(cause);
        record(ev);
    }

    /** A bus transaction spanning @p dur ticks from @p t. */
    void
    busTx(Tick t, int comp, BusCmd cmd, Tick dur)
    {
        if (!logsTiming(t))
            return;
        TraceEvent ev;
        ev.tick = t;
        ev.dur = static_cast<std::uint64_t>(dur);
        ev.component = static_cast<std::int16_t>(comp);
        ev.kind = EventKind::BusTx;
        ev.a = static_cast<std::uint8_t>(cmd);
        record(ev);
    }

    /** D-group activity for block @p addr; @p closest flags proximity. */
    void
    dgroupOp(Tick t, int comp, CoreId core, Addr addr, DGroupOp op,
             DGroupId dg, bool closest = false)
    {
        if (!active())
            return;
        TraceEvent ev;
        ev.tick = t;
        ev.addr = addr;
        ev.arg = static_cast<std::uint64_t>(dg);
        ev.component = static_cast<std::int16_t>(comp);
        ev.core = static_cast<std::int16_t>(core);
        ev.kind = EventKind::DGroup;
        ev.a = static_cast<std::uint8_t>(op);
        ev.b = closest ? 1 : 0;
        record(ev);
    }

    /** An L1 back-invalidation of @p blocks L1 blocks under @p addr. */
    void
    backInval(Tick t, int comp, CoreId core, Addr addr,
              std::uint64_t blocks)
    {
        if (!active())
            return;
        TraceEvent ev;
        ev.tick = t;
        ev.addr = addr;
        ev.arg = blocks;
        ev.component = static_cast<std::int16_t>(comp);
        ev.core = static_cast<std::int16_t>(core);
        ev.kind = EventKind::L1BackInval;
        record(ev);
    }

    /** A port grant after @p wait ticks, held for @p occupancy. */
    void
    resourceAcquire(Tick t, int comp, Tick wait, Tick occupancy)
    {
        if (!logsTiming(t))
            return;
        TraceEvent ev;
        ev.tick = t;
        ev.arg = static_cast<std::uint64_t>(wait);
        ev.dur = static_cast<std::uint64_t>(occupancy);
        ev.component = static_cast<std::int16_t>(comp);
        ev.kind = EventKind::Resource;
        record(ev);
    }

    /** A core memory stall of @p dur ticks on block @p addr. */
    void
    coreStall(Tick t, int comp, CoreId core, Addr addr, Tick dur)
    {
        if (!logsTiming(t))
            return;
        TraceEvent ev;
        ev.tick = t;
        ev.addr = addr;
        ev.dur = static_cast<std::uint64_t>(dur);
        ev.component = static_cast<std::int16_t>(comp);
        ev.core = static_cast<std::int16_t>(core);
        ev.kind = EventKind::CoreStall;
        record(ev);
    }

    /**
     * A directory reading for block @p addr after a request by
     * @p core: the post-update sharer bitset and owner (invalid_id for
     * none), and the BusCmd that triggered it.
     */
    void
    directoryState(Tick t, int comp, CoreId core, Addr addr,
                   std::uint64_t sharers, CoreId owner, BusCmd cmd)
    {
        if (!active())
            return;
        TraceEvent ev;
        ev.tick = t;
        ev.addr = addr;
        ev.arg = sharers;
        ev.component = static_cast<std::int16_t>(comp);
        ev.core = static_cast<std::int16_t>(core);
        ev.kind = EventKind::Directory;
        ev.a = static_cast<std::uint8_t>(owner + 1);
        ev.b = static_cast<std::uint8_t>(cmd);
        record(ev);
    }

    /** Minimum stall, in ticks, for cores to emit CoreStall events. */
    Tick stallThreshold() const { return core_stall_threshold; }

    /** @return 0: the sink drops no event. */
    std::uint64_t dropped() const { return 0; }

    /** @return records streamed to the binlog, metrics samples
     *  included (0 without one). */
    std::uint64_t recordedEvents() const;

  private:
    /**
     * @return true if a timing-only event at @p t is logged. Without an
     * armed log the event is dropped unbuilt, and approxNow() advances
     * to @p t as record() would have advanced it.
     */
    bool
    logsTiming(Tick t)
    {
        if (armed)
            return true;
        if (auditor)
            last_tick = t;
        return false;
    }

    static constexpr Tick core_stall_threshold = 8;

    std::vector<std::string> comps;
    ProtocolAuditor *auditor = nullptr;
    BinlogWriter *binlog = nullptr;
    Tick last_tick = 0;
    bool armed = false;
};

/**
 * Write @p events as Chrome trace_event JSON with one track per entry
 * of @p components; @p dropped, the drop count a binlog's trailer
 * records, is surfaced in the top-level metadata object.
 */
void writeChromeJson(const std::string &path,
                     const std::vector<TraceEvent> &events,
                     const std::vector<std::string> &components,
                     std::uint64_t dropped = 0);

/**
 * Render a per-kind / per-component / per-cause summary of @p events,
 * as printed by `cntrace summary`; a non-zero @p dropped count adds an
 * incomplete-capture warning line.
 */
std::string summarize(const std::vector<TraceEvent> &events,
                      const std::vector<std::string> &components,
                      std::uint64_t dropped = 0);

/** Render one event as a single human-readable line. */
std::string formatEvent(const TraceEvent &ev,
                        const std::vector<std::string> &components);

} // namespace obs
} // namespace cnsim

#endif // CNSIM_OBS_TRACE_SINK_HH
