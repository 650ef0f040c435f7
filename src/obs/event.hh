/**
 * @file
 * Typed trace-event vocabulary for the observability subsystem.
 *
 * Every record a component emits into the TraceSink is one TraceEvent:
 * a fixed-size POD tagged with an EventKind. Field meaning depends on
 * the kind (see the per-kind comments below). A record carries no
 * wall-clock state, keeping logs bit-identical across ParallelRunner
 * worker counts; the binlog serializes it as one BinRecord.
 */

#ifndef CNSIM_OBS_EVENT_HH
#define CNSIM_OBS_EVENT_HH

#include <cstdint>

#include "common/types.hh"

namespace cnsim
{
namespace obs
{

/** Kind tag of one TraceEvent. */
enum class EventKind : std::uint8_t
{
    BusTx,        //!< bus transaction (a = BusCmd, dur = span on bus)
    Transition,   //!< coherence transition (a = old, b = new, c = cause)
    DGroup,       //!< d-group activity (a = DGroupOp, arg = d-group id)
    L1BackInval,  //!< L1 back-invalidation (arg = L1 blocks invalidated)
    Resource,     //!< port grant (arg = wait ticks, dur = occupancy)
    CoreStall,    //!< core memory stall (dur = stall ticks)
    Directory,    //!< directory reading (arg = sharers, a = owner+1,
                  //!< b = BusCmd that triggered it)
};

/** Number of distinct EventKind values. */
constexpr int num_event_kinds = 7;

/** Why a coherence transition happened. */
enum class TransCause : std::uint8_t
{
    PrRd,         //!< processor read on this core
    PrWr,         //!< processor write on this core
    BusRd,        //!< remote read observed on the bus
    BusRdX,       //!< remote write/invalidate observed on the bus
    BusUpg,       //!< remote upgrade observed on the bus
    BusUpd,       //!< remote write-update observed on the bus
    BusRepl,      //!< shared-data replacement notification (paper 3.1)
    Replacement,  //!< local eviction (tag or frame victim)
    Fill,         //!< fill from memory
};

/** Number of distinct TransCause values. */
constexpr int num_trans_causes = 9;

/** What happened at a data d-group. */
enum class DGroupOp : std::uint8_t
{
    Hit,          //!< data serviced from this d-group
    Promotion,    //!< block moved toward the accessor (capacity stealing)
    Demotion,     //!< block moved away to free a closer frame
    Replication,  //!< controlled replication made a second copy
    PointerJoin,  //!< tag joined an existing frame via forward pointer
    Eviction,     //!< frame contents evicted from the d-group
    Migration,    //!< ISC moved the dirty copy next to a reader
};

/** Number of distinct DGroupOp values. */
constexpr int num_dgroup_ops = 7;

/** Flag bits carried in TraceEvent::arg for Transition events. */
enum TransFlags : std::uint64_t
{
    /** The transition was accompanied by a bus broadcast (C write).
     *  Bit 0x1 is unused; this value is the one CNBLG002 logs carry. */
    trans_flag_broadcast = 0x2,
};

/**
 * One trace record. Interpretation of @p addr, @p arg, @p dur and the
 * small fields depends on @p kind; unused fields stay zero so binary
 * serialization is deterministic.
 */
struct TraceEvent
{
    /** Simulated tick the event fired at. */
    Tick tick = 0;
    /** Block address (Transition/DGroup/L1BackInval) or 0. */
    Addr addr = 0;
    /** Kind-specific payload (wait ticks, flag bits, d-group id...). */
    std::uint64_t arg = 0;
    /** Duration in ticks (full Tick width; a stall or occupancy can
     *  exceed 2^32 ticks on long runs); 0 renders as an instant
     *  event. */
    std::uint64_t dur = 0;
    /** Track id from TraceSink::registerComponent, -1 if unknown. */
    std::int16_t component = -1;
    /** Initiating/affected core, -1 if not core-specific. */
    std::int16_t core = -1;
    /** Which record type this is. */
    EventKind kind = EventKind::BusTx;
    /** Kind-specific small fields (old state / BusCmd / DGroupOp...). */
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint8_t c = 0;
};

/** Human-readable name for an EventKind. */
inline const char *
toString(EventKind k)
{
    switch (k) {
      case EventKind::BusTx: return "busTx";
      case EventKind::Transition: return "transition";
      case EventKind::DGroup: return "dgroup";
      case EventKind::L1BackInval: return "l1BackInval";
      case EventKind::Resource: return "resource";
      case EventKind::CoreStall: return "coreStall";
      case EventKind::Directory: return "directory";
    }
    return "?";
}

/** Human-readable name for a TransCause. */
inline const char *
toString(TransCause c)
{
    switch (c) {
      case TransCause::PrRd: return "PrRd";
      case TransCause::PrWr: return "PrWr";
      case TransCause::BusRd: return "BusRd";
      case TransCause::BusRdX: return "BusRdX";
      case TransCause::BusUpg: return "BusUpg";
      case TransCause::BusUpd: return "BusUpd";
      case TransCause::BusRepl: return "BusRepl";
      case TransCause::Replacement: return "Replacement";
      case TransCause::Fill: return "Fill";
    }
    return "?";
}

/** Human-readable name for a DGroupOp. */
inline const char *
toString(DGroupOp op)
{
    switch (op) {
      case DGroupOp::Hit: return "hit";
      case DGroupOp::Promotion: return "promotion";
      case DGroupOp::Demotion: return "demotion";
      case DGroupOp::Replication: return "replication";
      case DGroupOp::PointerJoin: return "pointerJoin";
      case DGroupOp::Eviction: return "eviction";
      case DGroupOp::Migration: return "migration";
    }
    return "?";
}

} // namespace obs
} // namespace cnsim

#endif // CNSIM_OBS_EVENT_HH
