/**
 * @file
 * Request/response vocabulary shared by the whole memory system.
 */

#ifndef CNSIM_MEM_PACKET_HH
#define CNSIM_MEM_PACKET_HH

#include <string>

#include "common/types.hh"

namespace cnsim
{

/** Kind of memory reference issued by a core. */
enum class MemOp
{
    Load,
    Store,
    Ifetch,
};

/** @return true for operations that read. */
constexpr bool
isRead(MemOp op)
{
    return op != MemOp::Store;
}

/**
 * Classification of an L2 access, following the paper's Section 5.1.1:
 * a miss is a ROS (read-only-sharing) miss when another on-chip copy of
 * the block exists in a clean shared state, a RWS (read-write-sharing)
 * miss when a dirty on-chip copy exists, and a capacity miss otherwise.
 */
enum class AccessClass
{
    Hit,
    ROSMiss,
    RWSMiss,
    CapacityMiss,
};

/** Human-readable name for an AccessClass. */
inline const char *
toString(AccessClass c)
{
    switch (c) {
      case AccessClass::Hit: return "hit";
      case AccessClass::ROSMiss: return "rosMiss";
      case AccessClass::RWSMiss: return "rwsMiss";
      case AccessClass::CapacityMiss: return "capacityMiss";
    }
    return "?";
}

/** A memory reference presented to the cache hierarchy. */
struct MemAccess
{
    CoreId core = 0;
    Addr addr = 0;
    MemOp op = MemOp::Load;
};

/**
 * Result of an L2 access: when it completes, how it was classified,
 * and what the requestor's L1 may do with its copy.
 */
struct AccessResult
{
    /** Tick at which the requesting core may resume. */
    Tick complete = 0;
    /** Paper-style access classification. */
    AccessClass cls = AccessClass::Hit;
    /** True if the L1 copy (if any) must be write-through (C state). */
    bool l1WriteThrough = false;
    /** True if the L1 may cache the block with silent-store ownership. */
    bool l1Owned = false;
};

/** Snooping-bus transaction kinds (MESI + the paper's additions). */
enum class BusCmd
{
    BusRd,    //!< read miss broadcast
    BusRdX,   //!< write miss / C-state write broadcast
    BusUpg,   //!< upgrade (write to a clean shared block)
    BusRepl,  //!< replacement notification for shared data (paper 3.1)
    WrBack,   //!< dirty writeback to memory
    BusUpd,   //!< write-update broadcast (update-protocol baseline)
    DirPut,   //!< clean-eviction notice to a directory home node
};

/** Number of distinct BusCmd values. */
constexpr int num_bus_cmds = 7;

/** Human-readable name for a BusCmd. */
inline const char *
toString(BusCmd c)
{
    switch (c) {
      case BusCmd::BusRd: return "BusRd";
      case BusCmd::BusRdX: return "BusRdX";
      case BusCmd::BusUpg: return "BusUpg";
      case BusCmd::BusRepl: return "BusRepl";
      case BusCmd::WrBack: return "WrBack";
      case BusCmd::BusUpd: return "BusUpd";
      case BusCmd::DirPut: return "DirPut";
    }
    return "?";
}

/** Stat name for a BusCmd ("bus.busRd" style lower camel case). */
inline const char *
statName(BusCmd c)
{
    switch (c) {
      case BusCmd::BusRd: return "busRd";
      case BusCmd::BusRdX: return "busRdX";
      case BusCmd::BusUpg: return "busUpg";
      case BusCmd::BusRepl: return "busRepl";
      case BusCmd::WrBack: return "wrBack";
      case BusCmd::BusUpd: return "busUpd";
      case BusCmd::DirPut: return "dirPut";
    }
    return "?";
}

} // namespace cnsim

#endif // CNSIM_MEM_PACKET_HH
