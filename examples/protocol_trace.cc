/**
 * @file
 * MESIC protocol walkthrough. Replays the paper's running examples
 * step by step, printing each step's outcome and the block's states
 * and frames after it:
 *
 *   Figure 3 (controlled replication): P0 fills X; P1 read-misses and
 *   receives a pointer (tag copy, no data copy); P1's second use
 *   replicates X into its closest d-group.
 *
 *   Section 3.2 (in-situ communication): P0 writes Y; P1 reads it (the
 *   copy migrates next to P1 and both enter C); P0 keeps writing and
 *   P1 keeps reading with no coherence misses; a write to a clean
 *   shared block upgrades into C via BusUpg.
 */

#include <cstdio>

#include "mem/bus.hh"
#include "mem/memory.hh"
#include "nurapid/cmp_nurapid.hh"

using namespace cnsim;

namespace
{

CmpNurapid *g_l2 = nullptr;

void
showState(Addr a, const char *name)
{
    std::printf("    %s: states[", name);
    for (CoreId c = 0; c < 4; ++c)
        std::printf("%c", stateChar(g_l2->stateOf(c, a)));
    FwdPtr f0 = g_l2->fwdOf(0, a);
    FwdPtr f1 = g_l2->fwdOf(1, a);
    std::printf("] frames=%d", g_l2->framesHolding(a));
    if (f0.valid())
        std::printf(" P0->dg%c", 'a' + f0.dgroup);
    if (f1.valid())
        std::printf(" P1->dg%c", 'a' + f1.dgroup);
    std::printf("\n");
}

void
step(const char *what, const MemAccess &acc, Tick t)
{
    std::printf("  %s\n", what);
    AccessResult r = g_l2->access(acc, t);
    std::printf("    -> %s, done at tick %llu%s\n", toString(r.cls),
                (unsigned long long)r.complete,
                r.l1WriteThrough ? " (L1 write-through)" : "");
}

} // namespace

int
main()
{
    NurapidParams p;
    MainMemory mem;
    SnoopBus bus;
    CmpNurapid l2(p, bus, mem);
    g_l2 = &l2;
    l2.setL1Hooks([](CoreId, Addr) {}, [](CoreId, Addr, bool) {});

    const Addr X = 0x1000;
    const Addr Y = 0x2000;

    std::printf("=== Controlled replication (paper Figure 3) ===\n");
    step("P0 reads X (cold miss: fill E into d-group a)",
         {0, X, MemOp::Load}, 0);
    showState(X, "X");
    step("P1 reads X (first use: pointer return, tag copy only)",
         {1, X, MemOp::Load}, 1000);
    showState(X, "X");
    step("P1 reads X again (second use: replicate into d-group b)",
         {1, X, MemOp::Load}, 2000);
    showState(X, "X");

    std::printf("\n=== In-situ communication (paper Section 3.2) ===\n");
    step("P0 writes Y (cold write miss: fill M)", {0, Y, MemOp::Store},
         10000);
    showState(Y, "Y");
    step("P1 reads Y (dirty signal: join C, copy moves next to P1)",
         {1, Y, MemOp::Load}, 11000);
    showState(Y, "Y");
    step("P0 writes Y again (stays C; BusRdX invalidates P1's L1)",
         {0, Y, MemOp::Store}, 12000);
    showState(Y, "Y");
    step("P1 reads Y again (hit in its closest d-group, no coherence miss)",
         {1, Y, MemOp::Load}, 13000);
    showState(Y, "Y");

    std::printf("\n=== Upgrade into C (write to a clean shared block) ===\n");
    step("P2 reads X (pointer join)", {2, X, MemOp::Load}, 20000);
    step("P2 writes X (BusUpg: all sharers repoint and enter C)",
         {2, X, MemOp::Store}, 21000);
    showState(X, "X");

    l2.checkInvariants();
    std::printf("\nfinal stats: pointerJoins=%llu replications=%llu "
                "iscJoins=%llu cWrites=%llu busRepl=%llu demotions=%llu\n",
                (unsigned long long)l2.pointerJoins(),
                (unsigned long long)l2.replications(),
                (unsigned long long)l2.iscJoins(),
                (unsigned long long)l2.cWrites(),
                (unsigned long long)l2.busRepls(),
                (unsigned long long)l2.demotions());
    return 0;
}
