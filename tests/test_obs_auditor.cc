/**
 * @file
 * Tests for the obs::ProtocolAuditor: injected illegal transitions
 * must die with a per-block event history, and fuzz-style randomized
 * workloads against the real L2 organizations must audit clean with
 * the auditor's mirrored states agreeing with the arrays.
 */

#include <gtest/gtest.h>

#include <string>
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

TEST(ProtocolAuditorDeathTest, BusyTagInvalidationDies)
{
    obs::ProtocolAuditor au(obs::AuditProtocol::Mesic, 4);
    const Addr x = 0x6000;
    au.onEvent(makeTrans(10, 0, x, CohState::Invalid, CohState::Shared,
                         obs::TransCause::Fill));
    EXPECT_DEATH(
        au.onEvent(makeTrans(20, 0, x, CohState::Shared,
                             CohState::Invalid, obs::TransCause::BusRepl,
                             obs::trans_flag_busy)),
        "busy tag invalidated");
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

} // namespace
} // namespace cnsim
