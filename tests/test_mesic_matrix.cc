/**
 * @file
 * Table-driven MESIC state-transition matrix for CMP-NuRAPID.
 *
 * Each case applies a sequence of reads/writes from different cores to
 * one block and asserts the resulting per-core coherence states and
 * the number of data frames holding the block -- a systematic check of
 * Figure 4(b)'s protocol plus this implementation's documented
 * interpretation (DESIGN.md "MESIC interpretation notes").
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "mem/bus.hh"
#include "mem/directory.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"
#include "obs/auditor.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{
namespace
{

/**
 * Attach a MESIC ProtocolAuditor to @p l2 so every matrix sequence is
 * also checked online, exactly as `cnsim --audit` would.
 */
struct AuditHarness
{
    obs::TraceSink sink;
    obs::ProtocolAuditor auditor{obs::AuditProtocol::Mesic, 4};

    explicit AuditHarness(CmpNurapid &l2)
    {
        auditor.blockCheck = [&l2](Addr a) {
            l2.checkBlockInvariants(a);
        };
        sink.setAuditor(&auditor);
        l2.setTraceSink(&sink);
    }
};

struct Step
{
    CoreId core;
    char op;  // 'R' or 'W'
};

struct MesicCase
{
    const char *name;
    std::vector<Step> steps;
    /** Expected state per core, as stateChar (I/S/E/M/C). */
    const char *states;
    /** Expected number of data frames holding the block. */
    int frames;
};

/**
 * Print a case as its name. Without this gtest dumps the struct's
 * bytes, pointers included, and the ctest names that
 * gtest_discover_tests derives from that dump change with every run.
 */
void
PrintTo(const MesicCase &c, std::ostream *os)
{
    *os << c.name;
}

NurapidParams
tinyNurapid()
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

class MesicMatrix : public ::testing::TestWithParam<MesicCase>
{
};

TEST_P(MesicMatrix, SequenceReachesExpectedStates)
{
    const MesicCase &c = GetParam();
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(tinyNurapid(), bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    AuditHarness audit(l2);

    const Addr x = 0x1000;
    Tick t = 0;
    for (const Step &s : c.steps) {
        l2.access({s.core, x,
                   s.op == 'W' ? MemOp::Store : MemOp::Load},
                  t);
        audit.auditor.runDeferredChecks();
        t += 1000;
    }
    EXPECT_GT(audit.auditor.transitions(), 0u);
    // The audited mirror must agree with the arrays' actual states.
    for (CoreId core = 0; core < 4; ++core)
        EXPECT_EQ(audit.auditor.stateOf(core, x), l2.stateOf(core, x))
            << c.name << " core " << core;
    std::string got;
    for (CoreId core = 0; core < 4; ++core)
        got += stateChar(l2.stateOf(core, x));
    EXPECT_EQ(got, c.states) << c.name;
    EXPECT_EQ(l2.framesHolding(x), c.frames) << c.name;
    l2.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Protocol, MesicMatrix,
    ::testing::Values(
        // Private-data transitions.
        MesicCase{"coldRead", {{0, 'R'}}, "EIII", 1},
        MesicCase{"readTwice", {{0, 'R'}, {0, 'R'}}, "EIII", 1},
        MesicCase{"silentUpgrade", {{0, 'R'}, {0, 'W'}}, "MIII", 1},
        MesicCase{"coldWrite", {{0, 'W'}}, "MIII", 1},
        MesicCase{"writeReadSameCore", {{0, 'W'}, {0, 'R'}}, "MIII", 1},
        // Controlled replication (clean sharing).
        MesicCase{"pointerJoin", {{0, 'R'}, {1, 'R'}}, "SSII", 1},
        MesicCase{"secondUseReplicates",
                  {{0, 'R'}, {1, 'R'}, {1, 'R'}}, "SSII", 2},
        MesicCase{"threeReaders",
                  {{0, 'R'}, {1, 'R'}, {2, 'R'}}, "SSSI", 1},
        MesicCase{"allCoresRead",
                  {{0, 'R'}, {1, 'R'}, {2, 'R'}, {3, 'R'}}, "SSSS", 1},
        // In-situ communication (dirty sharing).
        MesicCase{"readJoinsDirty", {{0, 'W'}, {1, 'R'}}, "CCII", 1},
        MesicCase{"writeJoinsDirty", {{0, 'W'}, {1, 'W'}}, "CCII", 1},
        MesicCase{"thirdSharerJoins",
                  {{0, 'W'}, {1, 'R'}, {2, 'R'}}, "CCCI", 1},
        MesicCase{"writerAfterReaders",
                  {{0, 'W'}, {1, 'R'}, {2, 'W'}}, "CCCI", 1},
        MesicCase{"noExitFromC",
                  {{0, 'W'}, {1, 'R'}, {0, 'W'}, {0, 'W'}, {1, 'R'}},
                  "CCII", 1},
        // Upgrades on shared blocks.
        MesicCase{"upgradeEntersC",
                  {{0, 'R'}, {1, 'R'}, {1, 'W'}}, "CCII", 1},
        MesicCase{"upgradeAfterReplicationCollapsesCopies",
                  {{0, 'R'}, {1, 'R'}, {1, 'R'}, {0, 'W'}}, "CCII", 1},
        // Write miss over clean copies invalidates (MESI semantics).
        MesicCase{"writeMissInvalidatesCleanSharers",
                  {{0, 'R'}, {1, 'R'}, {2, 'W'}}, "IIMI", 1},
        MesicCase{"writeMissOverExclusive",
                  {{0, 'R'}, {1, 'W'}}, "IMII", 1},
        // Longer mixed sequences.
        MesicCase{"migratorySharing",
                  {{0, 'W'}, {1, 'R'}, {1, 'W'}, {2, 'R'}, {2, 'W'},
                   {3, 'R'}},
                  "CCCC", 1},
        MesicCase{"readShareThenCommunicate",
                  {{0, 'R'}, {1, 'R'}, {2, 'R'}, {3, 'R'}, {2, 'W'},
                   {0, 'R'}},
                  "CCCC", 1}));

/**
 * The protocol sequences above at other core counts, over the mesh
 * directory instead of the bus: the migratory-sharing pattern must end
 * with every core in C regardless of scale or fabric, with an
 * equally-scaled auditor watching (including the directory readings).
 */
class MesicMatrixScale : public ::testing::TestWithParam<int>
{
};

TEST_P(MesicMatrixScale, MigratorySharingEndsAllC)
{
    const int cores = GetParam();
    NurapidParams p = tinyNurapid();
    p.num_cores = cores;
    p.num_dgroups = cores;
    MainMemory mem;
    DirectoryInterconnect dir(InterconnectKind::Mesh, cores,
                              p.block_size, CohMode::Mesic);
    CmpNurapid l2(p, dir, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});

    obs::TraceSink sink;
    obs::ProtocolAuditor auditor{obs::AuditProtocol::Mesic, cores};
    auditor.blockCheck = [&l2](Addr a) { l2.checkBlockInvariants(a); };
    sink.setAuditor(&auditor);
    l2.setTraceSink(&sink);
    dir.attachSink(&sink);

    const Addr x = 0x1000;
    Tick t = 0;
    auto step = [&](CoreId c, char op) {
        l2.access({c, x, op == 'W' ? MemOp::Store : MemOp::Load}, t);
        auditor.runDeferredChecks();
        t += 1000;
    };
    step(0, 'W');
    for (CoreId c = 1; c < cores; ++c) {
        step(c, 'R');
        step(c, 'W');
    }
    for (CoreId c = 0; c < cores; ++c) {
        EXPECT_EQ(l2.stateOf(c, x), CohState::Communication)
            << "core " << c << " of " << cores;
        EXPECT_TRUE(dir.sharersOf(x) & (1ull << c));
    }
    EXPECT_EQ(l2.framesHolding(x), 1);
    EXPECT_TRUE(dir.dirtyOf(x));
    l2.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, MesicMatrixScale,
                         ::testing::Values(2, 8, 16));

TEST(MesicMatrix, DirtyBlockAlwaysSingleFrame)
{
    // Property: after any of the matrix sequences ending dirty, there
    // is exactly one frame -- re-checked here across a random walk.
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(tinyNurapid(), bus, mem);
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});
    AuditHarness audit(l2);
    Rng rng(123);
    const Addr x = 0x2000;
    Tick t = 0;
    bool dirty = false;
    for (int i = 0; i < 500; ++i) {
        CoreId c = static_cast<CoreId>(rng.below(4));
        bool w = rng.chance(0.4);
        l2.access({c, x, w ? MemOp::Store : MemOp::Load}, t);
        audit.auditor.runDeferredChecks();
        t += 500;
        dirty = dirty || w;
        if (dirty) {
            EXPECT_EQ(l2.framesHolding(x), 1);
        }
    }
}

} // namespace
} // namespace cnsim
