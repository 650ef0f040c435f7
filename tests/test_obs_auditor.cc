/**
 * @file
 * Tests for the obs::ProtocolAuditor: injected illegal transitions
 * must die with a per-block event history, fuzz-style randomized
 * workloads against the real L2 organizations must audit clean with
 * the auditor's mirrored states agreeing with the arrays, and a
 * randomized legal event stream must leave the auditor's per-block
 * masks and history rings in step with a reference copy of the
 * per-core-vector bookkeeping they replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "l2/private_l2.hh"
#include "l2/update_l2.hh"
#include "mem/bus.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"
#include "obs/auditor.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{
namespace
{

obs::TraceEvent
makeTrans(Tick t, CoreId core, Addr addr, CohState olds, CohState news,
          obs::TransCause cause, std::uint64_t flags = 0)
{
    obs::TraceEvent ev;
    ev.tick = t;
    ev.addr = addr;
    ev.arg = flags;
    ev.core = static_cast<std::int16_t>(core);
    ev.kind = obs::EventKind::Transition;
    ev.a = static_cast<std::uint8_t>(olds);
    ev.b = static_cast<std::uint8_t>(news);
    ev.c = static_cast<std::uint8_t>(cause);
    return ev;
}

obs::TraceEvent
makeDir(Tick t, CoreId core, Addr addr, std::uint64_t sharers,
        CoreId owner)
{
    obs::TraceEvent ev;
    ev.tick = t;
    ev.addr = addr;
    ev.arg = sharers;
    ev.core = static_cast<std::int16_t>(core);
    ev.kind = obs::EventKind::Directory;
    ev.a = static_cast<std::uint8_t>(owner + 1);
    ev.b = static_cast<std::uint8_t>(BusCmd::BusRd);
    return ev;
}

TEST(ProtocolAuditor, LegalMesiSequencePasses)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesi, 4);
    const Addr x = 0x1000;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid, CohState::Exclusive,
                         obs::TransCause::Fill));
    au.onEvent(makeTrans(20, 0, x, CohState::Exclusive, CohState::Shared,
                         obs::TransCause::BusRd));
    au.onEvent(makeTrans(20, 1, x, CohState::Invalid, CohState::Shared,
                         obs::TransCause::Fill));
    au.onEvent(makeTrans(30, 0, x, CohState::Shared, CohState::Invalid,
                         obs::TransCause::BusUpg));
    au.onEvent(makeTrans(30, 1, x, CohState::Shared, CohState::Modified,
                         obs::TransCause::PrWr));
    EXPECT_EQ(au.transitions(), 5u);
    EXPECT_EQ(au.stateOf(0, x), CohState::Invalid);
    EXPECT_EQ(au.stateOf(1, x), CohState::Modified);
    EXPECT_EQ(au.blocksTracked(), 1u);
    EXPECT_FALSE(au.historyDump(x).empty());
}

TEST(ProtocolAuditorDeathTest, DoubleModifiedDiesWithHistory)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesi, 4);
    const Addr x = 0x2000;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid, CohState::Modified,
                         obs::TransCause::Fill));
    // Core 1 claims M without core 0 ever being invalidated: the report
    // must name the violation and include the block's event history.
    EXPECT_DEATH(
        au.onEvent(makeTrans(20, 1, x, CohState::Invalid,
                             CohState::Modified, obs::TransCause::Fill)),
        "M copies.*\n.*audited states.*\n.*events for this block");
}

TEST(ProtocolAuditorDeathTest, OldStateMismatchDies)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesi, 4);
    const Addr x = 0x3000;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid, CohState::Exclusive,
                         obs::TransCause::Fill));
    EXPECT_DEATH(
        au.onEvent(makeTrans(20, 0, x, CohState::Modified,
                             CohState::Invalid,
                             obs::TransCause::Replacement)),
        "emitted old state M but audited state is E");
}

TEST(ProtocolAuditorDeathTest, ExclusiveCoexistenceDies)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesi, 4);
    const Addr x = 0x3800;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid, CohState::Shared,
                         obs::TransCause::Fill));
    EXPECT_DEATH(
        au.onEvent(makeTrans(20, 1, x, CohState::Invalid,
                             CohState::Exclusive, obs::TransCause::Fill)),
        "E/M copy coexists");
}

TEST(ProtocolAuditorDeathTest, IllegalCExitDies)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesic, 4);
    const Addr x = 0x4000;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid,
                         CohState::Communication, obs::TransCause::PrWr,
                         obs::trans_flag_broadcast));
    EXPECT_DEATH(
        au.onEvent(makeTrans(20, 0, x, CohState::Communication,
                             CohState::Shared, obs::TransCause::BusRd)),
        "illegal C exit");
}

TEST(ProtocolAuditor, CExitByReplacementIsLegal)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesic, 4);
    const Addr x = 0x4800;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid,
                         CohState::Communication, obs::TransCause::PrWr,
                         obs::trans_flag_broadcast));
    au.onEvent(makeTrans(20, 0, x, CohState::Communication,
                         CohState::Invalid, obs::TransCause::BusRepl));
    EXPECT_EQ(au.stateOf(0, x), CohState::Invalid);
}

TEST(ProtocolAuditorDeathTest, CUnderNonMesicDies)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesi, 4);
    EXPECT_DEATH(
        au.onEvent(makeTrans(10, 0, 0x5000, CohState::Invalid,
                             CohState::Communication,
                             obs::TransCause::Fill)),
        "C state under MESI");
}

TEST(ProtocolAuditorDeathTest, CWriteWithoutBroadcastDies)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesic, 4);
    const Addr x = 0x7000;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid,
                         CohState::Communication, obs::TransCause::PrWr,
                         obs::trans_flag_broadcast));
    EXPECT_DEATH(
        au.onEvent(makeTrans(20, 0, x, CohState::Communication,
                             CohState::Communication,
                             obs::TransCause::PrWr)),
        "C write without bus broadcast");
}

TEST(ProtocolAuditorDeathTest, DirectoryOmittingCore63Dies)
{
    // The top bit of the holder masks: the report must name core 63,
    // not a neighbor or a wrapped shift.
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesi, 64);
    const Addr x = 0x7800;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid, CohState::Shared,
                         obs::TransCause::Fill));
    au.onEvent(makeTrans(10, 63, x, CohState::Invalid, CohState::Shared,
                         obs::TransCause::Fill));
    au.onEvent(makeDir(10, 63, x, 0x1, invalid_id));
    EXPECT_DEATH(au.runDeferredChecks(),
                 "core63 holds S but directory sharers 0x1 omit it");

    // With several holders omitted, the lowest is named, as the
    // per-core scan named it.
    obs::ProtocolAuditor au2(obs::AuditProtocol::Mesi, 64);
    for (CoreId c : {1, 63})
        au2.onEvent(makeTrans(10, c, x, CohState::Invalid,
                              CohState::Shared, obs::TransCause::Fill));
    au2.onEvent(makeDir(10, 63, x, 0x1, invalid_id));
    EXPECT_DEATH(au2.runDeferredChecks(),
                 "core1 holds S but directory sharers 0x1 omit it");
}

TEST(ProtocolAuditorDeathTest, StaleDirectoryOwner63Dies)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesi, 64);
    const Addr x = 0x7c00;
    au.onEvent(makeTrans(10, 63, x, CohState::Invalid,
                         CohState::Modified, obs::TransCause::Fill));
    au.onEvent(makeDir(10, 63, x, 1ull << 63, 63));
    au.runDeferredChecks();
    au.onEvent(makeTrans(20, 63, x, CohState::Modified, CohState::Invalid,
                         obs::TransCause::Replacement));
    EXPECT_DEATH(au.runDeferredChecks(),
                 "directory names core63 owner but its audited state "
                 "is I");
}

/** Attach a sink + auditor to @p l2, as System does for `--audit`. */
template <typename L2>
struct Audited
{
    obs::TraceSink sink;
    obs::ProtocolAuditor auditor;

    Audited(L2 &l2, obs::AuditProtocol proto)
        : auditor(proto, 4)
    {
        auditor.blockCheck = [&l2](Addr a) {
            l2.checkBlockInvariants(a);
        };
        sink.setAuditor(&auditor);
        l2.setTraceSink(&sink);
    }
};

/**
 * Random multi-core read/write mix over a footprint that forces
 * replacements, replications, promotions, and C joins; the auditor
 * vets every transition online and the mirrored states must agree
 * with the arrays afterwards.
 */
template <typename L2>
void
fuzzAgainst(L2 &l2, obs::AuditProtocol proto, std::uint64_t seed,
            int steps)
{
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    Audited<L2> audit(l2, proto);
    Rng rng(seed);
    std::vector<Addr> pool;
    // A footprint larger than the tag/frame capacity plus set overlap.
    for (Addr a = 0; a < 64; ++a)
        pool.push_back(0x8000 + a * 128);

    Tick t = 0;
    for (int i = 0; i < steps; ++i) {
        CoreId c = static_cast<CoreId>(rng.below(4));
        Addr a = pool[rng.below(static_cast<std::uint32_t>(pool.size()))];
        bool w = rng.chance(0.35);
        l2.access({c, a, w ? MemOp::Store : MemOp::Load}, t);
        audit.auditor.runDeferredChecks();
        t += 200;
    }
    EXPECT_GT(audit.auditor.transitions(), 0u);
    for (Addr a : pool)
        for (CoreId c = 0; c < 4; ++c)
            EXPECT_EQ(audit.auditor.stateOf(c, a), l2.stateOf(c, a))
                << "core " << c << " block " << std::hex << a;
    l2.checkInvariants();
}

NurapidParams
fuzzNurapid()
{
    NurapidParams p;
    p.num_cores = 4;
    p.num_dgroups = 4;
    p.dgroup_capacity = 16 * 128;
    p.block_size = 128;
    p.assoc = 8;
    p.tag_factor = 2;
    return p;
}

PrivateL2Params
fuzzPrivate()
{
    PrivateL2Params p;
    p.capacity_per_core = 2048;
    p.assoc = 2;
    p.block_size = 128;
    p.num_cores = 4;
    return p;
}

TEST(ProtocolAuditorFuzz, NurapidMesicRandomWorkload)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        MainMemory mem;
        SnoopBus bus;
        CmpNurapid l2(fuzzNurapid(), bus, mem);
        fuzzAgainst(l2, obs::AuditProtocol::Mesic, seed, 4000);
    }
}

TEST(ProtocolAuditorFuzz, NurapidNoIscNoCrRandomWorkload)
{
    NurapidParams p = fuzzNurapid();
    p.enable_isc = false;
    p.enable_cr = false;
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(p, bus, mem);
    fuzzAgainst(l2, obs::AuditProtocol::Mesic, 99, 4000);
}

TEST(ProtocolAuditorFuzz, PrivateMesiRandomWorkload)
{
    for (std::uint64_t seed : {3u, 11u}) {
        MainMemory mem;
        SnoopBus bus;
        PrivateL2 l2(fuzzPrivate(), bus, mem);
        fuzzAgainst(l2, obs::AuditProtocol::Mesi, seed, 4000);
    }
}

TEST(ProtocolAuditorFuzz, UpdateDragonRandomWorkload)
{
    for (std::uint64_t seed : {5u, 13u}) {
        MainMemory mem;
        SnoopBus bus;
        UpdateL2 l2(fuzzPrivate(), bus, mem);
        fuzzAgainst(l2, obs::AuditProtocol::WriteUpdate, seed, 4000);
    }
}

/**
 * The per-block bookkeeping the auditor kept before its holder masks
 * and pooled rings: one CohState per core and a ring of full
 * TraceEvents per block. It checks nothing; it is the reference the
 * differential test below diffs states, counters, deferred-check order
 * and history dumps against.
 */
class ReferenceAudit
{
  public:
    ReferenceAudit(int cores, std::size_t depth)
        : ncores(cores), depth(depth)
    {
    }

    void
    onEvent(const obs::TraceEvent &ev)
    {
        switch (ev.kind) {
          case obs::EventKind::Transition: {
            ++n_transitions;
            Block &b = blockFor(ev.addr);
            remember(b, ev);
            b.st[ev.core] = static_cast<CohState>(ev.b);
            touched.push_back(ev.addr);
            break;
          }
          case obs::EventKind::DGroup:
          case obs::EventKind::L1BackInval:
          case obs::EventKind::Directory:
            remember(blockFor(ev.addr), ev);
            touched.push_back(ev.addr);
            break;
          case obs::EventKind::BusTx:
          case obs::EventKind::Resource:
          case obs::EventKind::CoreStall:
            break;
        }
    }

    /** @return the blocks a deferred check visits, in its order. */
    std::vector<Addr>
    drainTouched()
    {
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        std::vector<Addr> out;
        out.swap(touched);
        return out;
    }

    /** @return @p addr's per-core states, or null if untracked. */
    const std::vector<CohState> *
    statesOf(Addr addr) const
    {
        auto it = blocks.find(addr);
        return it == blocks.end() ? nullptr : &it->second.st;
    }

    std::uint64_t transitions() const { return n_transitions; }
    std::size_t blocksTracked() const { return blocks.size(); }

    std::string
    historyDump(Addr addr) const
    {
        auto it = blocks.find(addr);
        if (it == blocks.end())
            return {};
        const Block &b = it->second;
        std::string s;
        std::size_t n = b.hist.size();
        std::size_t start = n < depth ? 0 : b.next;
        if (b.seen > n)
            s += strfmt("  (... %" PRIu64 " earlier events dropped)\n",
                        b.seen - n);
        for (std::size_t i = 0; i < n; ++i)
            s += "  " + obs::formatEvent(b.hist[(start + i) % n], {}) +
                 "\n";
        return s;
    }

  private:
    struct Block
    {
        std::vector<CohState> st;
        std::vector<obs::TraceEvent> hist;
        std::size_t next = 0;
        std::uint64_t seen = 0;
    };

    Block &
    blockFor(Addr addr)
    {
        Block &b = blocks[addr];
        if (b.st.empty())
            b.st.assign(ncores, CohState::Invalid);
        return b;
    }

    void
    remember(Block &b, const obs::TraceEvent &ev)
    {
        if (b.hist.size() < depth) {
            b.hist.push_back(ev);
        } else {
            b.hist[b.next] = ev;
            b.next = (b.next + 1) % depth;
        }
        ++b.seen;
    }

    int ncores;
    std::size_t depth;
    std::unordered_map<Addr, Block> blocks;
    std::vector<Addr> touched;
    std::uint64_t n_transitions = 0;
};

/**
 * A randomized MESIC event stream that obeys every rule the auditor
 * checks. Each step is one access or structural event on one block:
 * reads and writes with their remote invalidations, downgrades and C
 * joins, evictions, d-group ops and L1 back-invalidations. A block
 * with a directory reading gets a fresh one after every step that
 * moves its holders, so each deferred check sees a reading that
 * covers every holder and names a live owner. Two steps in five go
 * to three hot blocks, whose rings wrap many times; the rest walk
 * every block in turn.
 */
class LegalStream
{
  public:
    static constexpr int hot_blocks = 3;

    LegalStream(int cores, int nblocks, std::uint64_t seed)
        : ncores(cores),
          st(nblocks, std::vector<CohState>(cores, CohState::Invalid)),
          dir_seen(nblocks, false), rng(seed)
    {
    }

    static Addr addrOf(int block) { return 0x40000 + Addr(block) * 128; }

    /** Append the events of one step to @p out. */
    void
    step(std::vector<obs::TraceEvent> &out)
    {
        t += 1 + rng.below(50);
        const int blk = rng.chance(0.4)
                            ? static_cast<int>(rng.below(hot_blocks))
                            : cursor++ % static_cast<int>(st.size());
        const CoreId c = static_cast<CoreId>(rng.below(ncores));
        const Addr x = addrOf(blk);
        const std::uint64_t moves = n_trans;
        const std::uint32_t op = rng.below(100);
        if (op < 30)
            read(out, blk, c);
        else if (op < 60)
            write(out, blk, c);
        else if (op < 75)
            evict(out, blk, c);
        else if (op < 85)
            out.push_back(dgroup(x, c));
        else if (op < 95)
            out.push_back(backInval(x, c));
        if (op >= 95 || (dir_seen[blk] && n_trans != moves))
            out.push_back(directory(blk, c));
    }

  private:
    void
    trans(std::vector<obs::TraceEvent> &out, int blk, CoreId c,
          CohState news, obs::TransCause cause, std::uint64_t flags = 0)
    {
        obs::TraceEvent ev;
        ev.tick = t;
        ev.addr = addrOf(blk);
        ev.arg = flags;
        ev.component = static_cast<std::int16_t>(rng.below(3));
        ev.core = static_cast<std::int16_t>(c);
        ev.kind = obs::EventKind::Transition;
        ev.a = static_cast<std::uint8_t>(st[blk][c]);
        ev.b = static_cast<std::uint8_t>(news);
        ev.c = static_cast<std::uint8_t>(cause);
        out.push_back(ev);
        st[blk][c] = news;
        ++n_trans;
    }

    bool
    anyHolderIn(int blk, CohState s) const
    {
        return std::find(st[blk].begin(), st[blk].end(), s) !=
               st[blk].end();
    }

    void
    read(std::vector<obs::TraceEvent> &out, int blk, CoreId c)
    {
        if (isValid(st[blk][c])) {
            out.push_back(dgroup(addrOf(blk), c));
            return;
        }
        CohState mine = CohState::Shared;
        bool others = false;
        for (CoreId h = 0; h < ncores; ++h) {
            CohState s = st[blk][h];
            others |= isValid(s);
            if (s == CohState::Exclusive) {
                trans(out, blk, h, CohState::Shared,
                      obs::TransCause::BusRd);
            } else if (s == CohState::Modified) {
                // A dirty block is either shared clean or communicated.
                bool comm = rng.chance(0.5);
                trans(out, blk, h,
                      comm ? CohState::Communication : CohState::Shared,
                      obs::TransCause::BusRd);
                if (comm)
                    mine = CohState::Communication;
            } else if (s == CohState::Communication) {
                mine = CohState::Communication;
            }
        }
        if (!others && rng.chance(0.5))
            mine = CohState::Exclusive;
        trans(out, blk, c, mine, obs::TransCause::Fill);
    }

    void
    write(std::vector<obs::TraceEvent> &out, int blk, CoreId c)
    {
        CohState s = st[blk][c];
        if (s == CohState::Modified || s == CohState::Exclusive) {
            trans(out, blk, c, CohState::Modified, obs::TransCause::PrWr);
        } else if (s == CohState::Communication ||
                   anyHolderIn(blk, CohState::Communication)) {
            // C is left only by replacement, so a write to a C block
            // joins C and goes through to every holder.
            trans(out, blk, c, CohState::Communication,
                  obs::TransCause::PrWr, obs::trans_flag_broadcast);
        } else {
            for (CoreId h = 0; h < ncores; ++h) {
                if (h != c && isValid(st[blk][h]))
                    trans(out, blk, h, CohState::Invalid,
                          obs::TransCause::BusRdX);
            }
            trans(out, blk, c, CohState::Modified,
                  isValid(s) ? obs::TransCause::PrWr
                             : obs::TransCause::Fill);
        }
    }

    void
    evict(std::vector<obs::TraceEvent> &out, int blk, CoreId c)
    {
        if (!isValid(st[blk][c])) {
            out.push_back(dgroup(addrOf(blk), c));
            return;
        }
        trans(out, blk, c, CohState::Invalid,
              rng.chance(0.3) ? obs::TransCause::BusRepl
                              : obs::TransCause::Replacement);
    }

    obs::TraceEvent
    dgroup(Addr x, CoreId c)
    {
        obs::TraceEvent ev;
        ev.tick = t;
        ev.addr = x;
        ev.arg = rng.below(4);
        ev.core = static_cast<std::int16_t>(c);
        ev.kind = obs::EventKind::DGroup;
        ev.a = static_cast<std::uint8_t>(rng.below(obs::num_dgroup_ops));
        ev.b = rng.chance(0.5) ? 1 : 0;
        return ev;
    }

    obs::TraceEvent
    backInval(Addr x, CoreId c)
    {
        obs::TraceEvent ev;
        ev.tick = t;
        ev.addr = x;
        ev.arg = 1 + rng.below(4);
        ev.core = static_cast<std::int16_t>(c);
        ev.kind = obs::EventKind::L1BackInval;
        return ev;
    }

    /** A reading that covers every holder, plus random extra sharers,
     *  and names a holder as owner or none. */
    obs::TraceEvent
    directory(int blk, CoreId c)
    {
        const std::uint64_t all =
            ncores == 64 ? ~0ull : (1ull << ncores) - 1;
        std::uint64_t sharers =
            ((std::uint64_t{rng.next()} << 32) | rng.next()) & all &
            (rng.chance(0.5) ? ~0ull : 0);
        CoreId owner = invalid_id;
        for (CoreId h = 0; h < ncores; ++h) {
            if (isValid(st[blk][h])) {
                sharers |= 1ull << h;
                if (owner == invalid_id || rng.chance(0.5))
                    owner = h;
            }
        }
        if (rng.chance(0.3))
            owner = invalid_id;
        dir_seen[blk] = true;
        obs::TraceEvent ev = makeDir(t, c, addrOf(blk), sharers, owner);
        ev.b = static_cast<std::uint8_t>(rng.below(num_bus_cmds));
        return ev;
    }

    int ncores;
    std::vector<std::vector<CohState>> st;
    std::vector<bool> dir_seen;
    Rng rng;
    Tick t = 0;
    int cursor = 0;
    std::uint64_t n_trans = 0;
};

/** (cores, history depth) for one differential run. */
using DiffCase = std::pair<int, std::size_t>;

class AuditorDifferential : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(AuditorDifferential, MatchesPerCoreVectorReference)
{
    const auto [cores, depth] = GetParam();
    constexpr int nblocks = 1000;
    constexpr int steps = 2000;
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesic, cores, depth);
    ReferenceAudit ref(cores, depth);
    std::vector<Addr> checked;
    au.blockCheck = [&checked](Addr a) { checked.push_back(a); };
    LegalStream stream(cores, nblocks,
                       static_cast<std::uint64_t>(cores) * 131 + depth);

    std::vector<obs::TraceEvent> evs;
    std::size_t n_events = 0;
    for (int i = 0; i < steps; ++i) {
        evs.clear();
        stream.step(evs);
        for (const obs::TraceEvent &ev : evs) {
            au.onEvent(ev);
            ref.onEvent(ev);
            ++n_events;
            ASSERT_EQ(au.transitions(), ref.transitions());
            ASSERT_EQ(au.blocksTracked(), ref.blocksTracked());
            for (int b = 0; b < nblocks; ++b) {
                const Addr x = LegalStream::addrOf(b);
                const std::vector<CohState> *want = ref.statesOf(x);
                for (CoreId c = 0; c < cores; ++c) {
                    CohState s = want ? (*want)[c] : CohState::Invalid;
                    if (au.stateOf(c, x) != s) {
                        FAIL() << "event " << n_events << ": core" << c
                               << " of block 0x" << std::hex << x
                               << " is " << stateChar(au.stateOf(c, x))
                               << ", reference " << stateChar(s);
                    }
                }
            }
        }
        // Deferred checks visit each touched block once, in ascending
        // address order.
        checked.clear();
        au.runDeferredChecks();
        ASSERT_EQ(checked, ref.drainTouched()) << "step " << i;
    }

    EXPECT_EQ(au.blocksTracked(), static_cast<std::size_t>(nblocks));
    for (int b = 0; b < nblocks; ++b) {
        const Addr x = LegalStream::addrOf(b);
        ASSERT_EQ(au.historyDump(x), ref.historyDump(x))
            << "block 0x" << std::hex << x;
    }
    EXPECT_EQ(au.historyDump(LegalStream::addrOf(nblocks)), "");
    EXPECT_EQ(au.stateOf(cores, LegalStream::addrOf(0)),
              CohState::Invalid);

    // The hot blocks' rings wrapped many times.
    const std::string hot = au.historyDump(LegalStream::addrOf(0));
    std::uint64_t dropped = 0;
    ASSERT_EQ(std::sscanf(hot.c_str(),
                          "  (... %" SCNu64 " earlier events dropped)",
                          &dropped),
              1);
    EXPECT_GT(dropped, 10 * depth);
}

INSTANTIATE_TEST_SUITE_P(
    CoresByDepth, AuditorDifferential,
    ::testing::Values(DiffCase{1, 1}, DiffCase{1, 3}, DiffCase{1, 16},
                      DiffCase{4, 1}, DiffCase{4, 3}, DiffCase{4, 16},
                      DiffCase{16, 1}, DiffCase{16, 3}, DiffCase{16, 16},
                      DiffCase{64, 1}, DiffCase{64, 3},
                      DiffCase{64, 16}),
    [](const auto &info) {
        return "cores" + std::to_string(info.param.first) + "_depth" +
               std::to_string(info.param.second);
    });

} // namespace
} // namespace cnsim
