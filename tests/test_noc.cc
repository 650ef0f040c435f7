/**
 * @file
 * Mesh/ring NoC tests: geometry factorization, XY and ring routing,
 * hop-count symmetry, per-link contention, determinism, and the
 * precomputed route table against a hop-by-hop reference walk.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "mem/noc.hh"

namespace cnsim
{
namespace
{

TEST(Noc, MeshFactorsIntoWidestSquarishGrid)
{
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 4).width(), 2);
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 4).height(), 2);
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 8).width(), 2);
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 8).height(), 4);
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 16).width(), 4);
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 16).height(), 4);
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 64).width(), 8);
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 64).height(), 8);
    // A prime count degenerates to a 1 x N line (no wraparound).
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 7).width(), 1);
    EXPECT_EQ(Noc(InterconnectKind::Mesh, 7).height(), 7);
}

TEST(Noc, RingIsOneRow)
{
    Noc ring(InterconnectKind::Ring, 8);
    EXPECT_EQ(ring.width(), 8);
    EXPECT_EQ(ring.height(), 1);
    EXPECT_EQ(ring.nodes(), 8);
}

TEST(Noc, BusKindIsRejected)
{
    EXPECT_DEATH(Noc(InterconnectKind::Bus, 4), "");
}

TEST(Noc, MeshHopCountIsManhattanDistance)
{
    Noc mesh(InterconnectKind::Mesh, 16);  // 4 x 4
    EXPECT_EQ(mesh.hopCount(0, 0), 0);
    EXPECT_EQ(mesh.hopCount(0, 1), 1);
    EXPECT_EQ(mesh.hopCount(0, 4), 1);
    EXPECT_EQ(mesh.hopCount(0, 5), 2);
    EXPECT_EQ(mesh.hopCount(0, 15), 6);  // corner to corner
    for (int s = 0; s < 16; ++s)
        for (int d = 0; d < 16; ++d)
            EXPECT_EQ(mesh.hopCount(s, d), mesh.hopCount(d, s));
}

TEST(Noc, RingTakesTheShortWayAround)
{
    Noc ring(InterconnectKind::Ring, 8);
    EXPECT_EQ(ring.hopCount(0, 3), 3);  // clockwise
    EXPECT_EQ(ring.hopCount(0, 5), 3);  // counter-clockwise wins
    EXPECT_EQ(ring.hopCount(0, 4), 4);  // tie: either way is 4 links
    EXPECT_EQ(ring.hopCount(7, 0), 1);  // wraparound
}

TEST(Noc, UncontendedLatencyComposesPerHop)
{
    NocParams p;
    p.hop_latency = 2;
    p.router_delay = 3;
    Noc mesh(InterconnectKind::Mesh, 16, p);
    // Injection pays one router; each hop pays wire + next router.
    EXPECT_EQ(mesh.send(5, 5, 100), 100 + 3);
    int hops = mesh.hopCount(0, 15);
    EXPECT_EQ(mesh.send(0, 15, 100),
              100 + 3 + static_cast<Tick>(hops) * (2 + 3));
}

TEST(Noc, SharedLinkSerializesMessages)
{
    NocParams p;
    p.link_occupancy = 4;
    Noc mesh(InterconnectKind::Mesh, 4, p);
    // Two messages entering the same directed link at the same tick:
    // the second waits out the first's occupancy.
    Tick a = mesh.send(0, 1, 0);
    Tick b = mesh.send(0, 1, 0);
    EXPECT_EQ(b, a + p.link_occupancy);
    // The opposite direction is a distinct link and stays free.
    Noc fresh(InterconnectKind::Mesh, 4, p);
    (void)fresh.send(0, 1, 0);
    Tick c = fresh.send(1, 0, 0);
    EXPECT_EQ(c, fresh.hopCount(1, 0) *
                         (p.hop_latency + p.router_delay) +
                     p.router_delay);
}

TEST(Noc, RoutesAreDeterministic)
{
    auto drive = []() {
        Noc mesh(InterconnectKind::Mesh, 8);
        std::vector<Tick> out;
        for (int s = 0; s < 8; ++s)
            for (int d = 0; d < 8; ++d)
                out.push_back(mesh.send(s, d, static_cast<Tick>(s * 10)));
        return out;
    };
    EXPECT_EQ(drive(), drive());
}

TEST(Noc, CountsMessagesAndHops)
{
    Noc mesh(InterconnectKind::Mesh, 16);
    (void)mesh.send(0, 15, 0);
    (void)mesh.send(3, 3, 0);  // local: a message, no link traversal
    EXPECT_EQ(mesh.messages(), 2u);
    EXPECT_EQ(mesh.hops(), 6u);
    mesh.resetStats();
    EXPECT_EQ(mesh.messages(), 0u);
    EXPECT_EQ(mesh.hops(), 0u);
}

TEST(Noc, RegStatsExposesAggregateAndLinkCounters)
{
    Noc ring(InterconnectKind::Ring, 4);
    (void)ring.send(0, 2, 0);
    StatGroup g("noc");
    ring.regStats(g);
    std::string dump = g.dump();
    EXPECT_NE(dump.find("noc.msgs"), std::string::npos);
    EXPECT_NE(dump.find("noc.hops"), std::string::npos);
    EXPECT_NE(dump.find("noc.n0.e"), std::string::npos);
}

/** One directed link of a route: the node it leaves and its heading. */
struct RefLink
{
    int node;
    const char *dir;
};

/**
 * The route a message must take from @p src to @p dst, walked one hop
 * at a time from the routing rules: X then Y on a @p w wide mesh; the
 * shorter way round an @p n node ring, east on a tie.
 */
std::vector<RefLink>
referenceRoute(InterconnectKind kind, int n, int w, int src, int dst)
{
    std::vector<RefLink> route;
    int node = src;
    while (node != dst) {
        if (kind == InterconnectKind::Ring) {
            int east_hops = (dst - node + n) % n;
            if (2 * east_hops <= n) {
                route.push_back({node, "e"});
                node = (node + 1) % n;
            } else {
                route.push_back({node, "w"});
                node = (node + n - 1) % n;
            }
        } else if (node % w < dst % w) {
            route.push_back({node, "e"});
            node += 1;
        } else if (node % w > dst % w) {
            route.push_back({node, "w"});
            node -= 1;
        } else if (node / w < dst / w) {
            route.push_back({node, "s"});
            node += w;
        } else {
            route.push_back({node, "n"});
            node -= w;
        }
    }
    return route;
}

/** Grants summed over every link registered in @p g. */
std::uint64_t
totalLinkGrants(const StatGroup &g)
{
    const std::string suffix = ".grants";
    std::uint64_t sum = 0;
    g.forEachCounter([&](const std::string &name, const Counter *c) {
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += c->value();
    });
    return sum;
}

/**
 * Send every (src, dst) message of an @p n node fabric through the
 * route table, one at a time on an idle network, and hold it to the
 * reference walk: the same hop count, the same idle arrival tick, the
 * same links (each granted once, no other link touched) and the same
 * hops() tally. Then send a one-hop message over the route's last link
 * timed to reach it with the first message: it must queue behind it.
 */
void
expectRoutesMatchReference(InterconnectKind kind, int n)
{
    NocParams p;
    p.hop_latency = 2;
    p.router_delay = 3;
    p.link_occupancy = 4;
    const Tick per_hop = p.hop_latency + p.router_delay;
    Noc noc(kind, n, p);
    StatGroup g("noc");
    noc.regStats(g);

    Tick at = 0;
    for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
            SCOPED_TRACE(strfmt("%s of %d nodes, route %d -> %d",
                                toString(kind), n, s, d));
            std::vector<RefLink> ref =
                referenceRoute(kind, n, noc.width(), s, d);
            Tick hops = ref.size();
            ASSERT_EQ(noc.hopCount(s, d), static_cast<int>(hops));

            noc.resetStats();
            Tick arrive = noc.send(s, d, at);
            EXPECT_EQ(arrive, at + p.router_delay + hops * per_hop);
            EXPECT_EQ(noc.messages(), 1u);
            EXPECT_EQ(noc.hops(), hops);
            for (const RefLink &l : ref)
                EXPECT_EQ(g.counter(strfmt("noc.n%d.%s.grants", l.node,
                                           l.dir))
                              .value(),
                          1u)
                    << "link n" << l.node << "." << l.dir;
            EXPECT_EQ(totalLinkGrants(g), hops);

            if (hops > 0) {
                // The last link leaves the second-to-last node; a
                // one-hop message injected there reaches that link in
                // the same tick as the first message and must wait out
                // its occupancy.
                Tick last_link_at = at + (hops - 1) * per_hop;
                Tick queued = noc.send(ref.back().node, d, last_link_at);
                EXPECT_EQ(queued, arrive + p.link_occupancy);
            }
            // Far enough apart that every link is idle again.
            at += 1000;
        }
    }
}

TEST(Noc, RouteTableMatchesReferenceWalkOnMeshes)
{
    for (int n : {1, 2, 8, 13, 16, 64})
        expectRoutesMatchReference(InterconnectKind::Mesh, n);
}

TEST(Noc, RouteTableMatchesReferenceWalkOnRings)
{
    for (int n : {2, 5, 8, 13})
        expectRoutesMatchReference(InterconnectKind::Ring, n);
}

} // namespace
} // namespace cnsim
