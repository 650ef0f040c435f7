#include "obs/auditor.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>

#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{
namespace obs
{

namespace
{

static_assert(static_cast<int>(CohState::Shared) == 1 &&
                  static_cast<int>(CohState::Exclusive) == 2 &&
                  static_cast<int>(CohState::Modified) == 3 &&
                  static_cast<int>(CohState::Communication) == 4,
              "BlockAudit::held is indexed by CohState - 1");

/** @return held[] index of valid state @p s. */
constexpr int
heldIndex(CohState s)
{
    return static_cast<int>(s) - 1;
}

/** History entries per pool chunk, before rounding to whole rings. */
constexpr std::size_t chunk_entries = 8192;

/** @return log2 of the rings per pool chunk at history depth @p depth:
 *  chunk_entries / depth rounded down to a power of two, at least 1. */
unsigned
ringShift(std::size_t depth)
{
    if (depth == 0 || depth >= chunk_entries)
        return 0;
    return static_cast<unsigned>(std::bit_width(chunk_entries / depth)) - 1;
}

/** @return true if @p x has more than one bit set. */
constexpr bool
manyBits(std::uint64_t x)
{
    return (x & (x - 1)) != 0;
}

} // namespace

ProtocolAuditor::ProtocolAuditor(AuditProtocol proto, int num_cores,
                                 std::size_t history_depth)
    : proto(proto), ncores(num_cores), depth(history_depth),
      depth_pow2(std::has_single_bit(history_depth)),
      ring_shift(ringShift(history_depth))
{
    cnsim_assert(num_cores > 0, "auditor needs at least one core");
    cnsim_assert(num_cores <= 64,
                 "auditor tracks at most 64 cores, got %d", num_cores);
    cnsim_assert(history_depth > 0, "auditor needs a non-empty history");
}

CohState
ProtocolAuditor::BlockAudit::stateOf(int c) const
{
    const std::uint64_t bit = 1ull << c;
    for (int i = 0; i < 4; ++i) {
        if (held[i] & bit)
            return static_cast<CohState>(i + 1);
    }
    return CohState::Invalid;
}

ProtocolAuditor::BlockAudit &
ProtocolAuditor::blockFor(Addr addr)
{
    if (BlockAudit *ba = blocks.find(addr))
        return *ba;
    if ((n_rings >> ring_shift) == chunks.size())
        chunks.push_back(std::make_unique_for_overwrite<HistEntry[]>(
            (std::size_t{1} << ring_shift) * depth));
    BlockAudit &ba = blocks[addr];
    ba.ring = n_rings++;
    return ba;
}

ProtocolAuditor::HistEntry *
ProtocolAuditor::ringOf(const BlockAudit &ba) const
{
    const std::uint32_t in_chunk = (1u << ring_shift) - 1;
    return chunks[ba.ring >> ring_shift].get() +
           (ba.ring & in_chunk) * depth;
}

void
ProtocolAuditor::remember(BlockAudit &ba, const TraceEvent &ev)
{
    ringOf(ba)[wrap(ba.seen)] =
        HistEntry{ev.tick, ev.arg, ev.core, ev.kind, ev.a, ev.b, ev.c};
    ++ba.seen;
}

void
ProtocolAuditor::onEvent(const TraceEvent &ev)
{
    switch (ev.kind) {
      case EventKind::Transition:
        auditTransition(ev);
        break;
      case EventKind::DGroup:
      case EventKind::L1BackInval:
        // Structural (pointer) state may have moved; remember the
        // event for post-mortems and queue the block for the deferred
        // per-block check.
        remember(blockFor(ev.addr), ev);
        touched.push_back(ev.addr);
        break;
      case EventKind::Directory: {
        // An independent reading of who should hold the block. The
        // directory updates before the organization emits its own
        // Transitions for the same request, so agreement is only
        // checked at the next safe point.
        BlockAudit &ba = blockFor(ev.addr);
        remember(ba, ev);
        ba.dir_sharers = ev.arg;
        ba.dir_owner = static_cast<std::int16_t>(ev.a - 1);
        ba.dir_seen = true;
        dir_events = true;
        touched.push_back(ev.addr);
        break;
      }
      case EventKind::BusTx:
      case EventKind::Resource:
      case EventKind::CoreStall:
        // Timing-only events; no coherence or structural state moves.
        break;
    }
}

void
ProtocolAuditor::auditTransition(const TraceEvent &ev)
{
    ++n_transitions;
    BlockAudit &ba = blockFor(ev.addr);
    remember(ba, ev);
    touched.push_back(ev.addr);

    const auto olds = static_cast<CohState>(ev.a);
    const auto news = static_cast<CohState>(ev.b);
    const auto cause = static_cast<TransCause>(ev.c);

    if (ev.core < 0 || ev.core >= ncores)
        violation(ev.addr, ba,
                  strfmt("transition for out-of-range core %d", ev.core));

    // The emitted old state must agree with the audited one; a mismatch
    // means either an illegal transition or a missed emission upstream.
    const std::uint64_t bit = 1ull << ev.core;
    CohState tracked = ba.stateOf(ev.core);
    if (tracked != olds)
        violation(ev.addr, ba,
                  strfmt("core%d emitted old state %c but audited state "
                         "is %c",
                         ev.core, stateChar(olds), stateChar(tracked)));

    // The Communication state only exists under MESIC.
    if (proto != AuditProtocol::Mesic &&
        (olds == CohState::Communication ||
         news == CohState::Communication))
        violation(ev.addr, ba,
                  strfmt("C state under %s protocol", toString(proto)));

    // No-exit-from-C: a C copy leaves C only by being invalidated on a
    // replacement (BusRepl from a remote eviction, or a local victim).
    if (olds == CohState::Communication &&
        news != CohState::Communication) {
        bool legal = news == CohState::Invalid &&
                     (cause == TransCause::BusRepl ||
                      cause == TransCause::Replacement);
        if (!legal)
            violation(ev.addr, ba,
                      strfmt("illegal C exit on core%d: C>%c cause=%s",
                             ev.core, stateChar(news), toString(cause)));
    }

    // Write-through-for-C: every processor write that stays in C must
    // have been broadcast (the paper's C writes are all BusRdX).
    if (proto == AuditProtocol::Mesic && cause == TransCause::PrWr &&
        olds == CohState::Communication &&
        news == CohState::Communication &&
        !(ev.arg & trans_flag_broadcast))
        violation(ev.addr, ba,
                  strfmt("core%d C write without bus broadcast",
                         ev.core));

    cnsim_assert(news <= CohState::Communication,
                 "transition to unknown state %d", ev.b);
    if (isValid(olds))
        ba.held[heldIndex(olds)] &= ~bit;
    if (isValid(news))
        ba.held[heldIndex(news)] |= bit;

    // Exclusivity: an E or M copy must be the only valid copy, and at
    // most one M copy may exist, under every protocol reading.
    const std::uint64_t mod = ba.held[heldIndex(CohState::Modified)];
    const std::uint64_t priv =
        mod | ba.held[heldIndex(CohState::Exclusive)];
    const std::uint64_t valid = ba.validMask();
    if (manyBits(mod))
        violation(ev.addr, ba,
                  strfmt("%d M copies after core%d %c>%c",
                         std::popcount(mod), ev.core, stateChar(olds),
                         stateChar(news)));
    if (priv && manyBits(valid))
        violation(ev.addr, ba,
                  strfmt("E/M copy coexists with %d other valid copies "
                         "after core%d %c>%c",
                         std::popcount(valid) - 1, ev.core,
                         stateChar(olds), stateChar(news)));
}

void
ProtocolAuditor::runDeferredChecks()
{
    if (touched.empty())
        return;
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    if (dir_events) {
        for (Addr a : touched) {
            if (const BlockAudit *ba = blocks.find(a)) {
                if (ba->dir_seen)
                    checkDirectoryReading(a, *ba);
            }
        }
    }
    if (blockCheck) {
        for (Addr a : touched)
            blockCheck(a);
    }
    touched.clear();
}

void
ProtocolAuditor::checkDirectoryReading(Addr addr,
                                       const BlockAudit &ba) const
{
    // Every valid audited copy must be in the directory's sharer set;
    // the converse is allowed (the directory may be a superset while
    // eviction notices drain). The lowest such core is reported.
    if (std::uint64_t omitted = ba.validMask() & ~ba.dir_sharers) {
        const int c = std::countr_zero(omitted);
        violation(addr, ba,
                  strfmt("core%d holds %c but directory sharers "
                         "0x%" PRIx64 " omit it",
                         c, stateChar(ba.stateOf(c)), ba.dir_sharers));
    }
    // No stale owner: a named owner must still hold a valid copy.
    if (ba.dir_owner != invalid_id) {
        if (ba.dir_owner < 0 || ba.dir_owner >= ncores)
            violation(addr, ba,
                      strfmt("directory owner %d out of range",
                             ba.dir_owner));
        if (!isValid(ba.stateOf(ba.dir_owner)))
            violation(addr, ba,
                      strfmt("directory names core%d owner but its "
                             "audited state is %c",
                             ba.dir_owner,
                             stateChar(ba.stateOf(ba.dir_owner))));
    }
}

CohState
ProtocolAuditor::stateOf(CoreId core, Addr addr) const
{
    const BlockAudit *ba = blocks.find(addr);
    if (!ba || core < 0 || core >= ncores)
        return CohState::Invalid;
    return ba->stateOf(core);
}

std::string
ProtocolAuditor::historyOf(Addr addr, const BlockAudit &ba) const
{
    // The ring is chronological starting at seen % depth once it has
    // wrapped.
    std::string s;
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(ba.seen, depth));
    const std::size_t start = ba.seen > depth ? wrap(ba.seen) : 0;
    if (ba.seen > n)
        s += strfmt("  (... %" PRIu64 " earlier events dropped)\n",
                    ba.seen - n);
    static const std::vector<std::string> no_comps;
    const HistEntry *ring = ringOf(ba);
    for (std::size_t i = 0; i < n; ++i) {
        const HistEntry &h = ring[(start + i) % n];
        const TraceEvent ev{.tick = h.tick, .addr = addr, .arg = h.arg,
                            .core = h.core, .kind = h.kind, .a = h.a,
                            .b = h.b, .c = h.c};
        s += "  " + formatEvent(ev, no_comps) + "\n";
    }
    return s;
}

std::string
ProtocolAuditor::historyDump(Addr addr) const
{
    const BlockAudit *ba = blocks.find(addr);
    return ba ? historyOf(addr, *ba) : std::string();
}

void
ProtocolAuditor::violation(Addr addr, const BlockAudit &ba,
                           const std::string &msg) const
{
    std::string states;
    for (int c = 0; c < ncores; ++c)
        states += strfmt("%s core%d=%c", c ? "," : "", c,
                         stateChar(ba.stateOf(c)));
    panic("%s audit violation for block 0x%" PRIx64 ": %s\n"
          "  audited states:%s\n"
          "  last %zu events for this block:\n%s",
          toString(proto), static_cast<std::uint64_t>(addr), msg.c_str(),
          states.c_str(),
          static_cast<std::size_t>(std::min<std::uint64_t>(ba.seen, depth)),
          historyOf(addr, ba).c_str());
}

} // namespace obs
} // namespace cnsim
