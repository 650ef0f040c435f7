/**
 * @file
 * 2D-mesh / ring network-on-chip timing model.
 *
 * The paper's snooping bus serializes every coherence action; the NoC
 * replaces it with point-to-point messages over a W x H mesh of routers
 * (one per core) connected by directed links. A ring is the degenerate
 * 1D case (H = 1) with wraparound.
 *
 * Timing follows the same occupancy philosophy as the rest of the
 * simulator: each directed link is a Resource; a message acquires every
 * link on its route in order, paying `hop_latency` wire traversal plus
 * `router_delay` pipeline delay per hop, and `link_occupancy` ticks of
 * serialization on each link. Contention therefore shows up as
 * queueing at the first busy link rather than per-flit simulation --
 * the same fidelity/cost trade the bus model makes.
 *
 * Routing is deterministic dimension-ordered XY (X first, then Y) in
 * the mesh and shortest-direction (ties clockwise) in the ring, so
 * results are bit-identical for any --jobs. Routes depend only on the
 * geometry, so the constructor lays every (src, dst) route out once as
 * a list of link pointers and send() just walks it.
 */

#ifndef CNSIM_MEM_NOC_HH
#define CNSIM_MEM_NOC_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/interconnect.hh"
#include "mem/resource.hh"

namespace cnsim
{

namespace obs
{
class TraceSink;
} // namespace obs

/** Parameters of the mesh/ring NoC (and its directory timing). */
struct NocParams
{
    /** Wire traversal latency per hop. */
    Tick hop_latency = 1;
    /** Per-router pipeline delay (route + arbitrate + crossbar). */
    Tick router_delay = 3;
    /** Ticks one message serializes a link for (header + payload). */
    Tick link_occupancy = 1;
    /** Home-node directory lookup latency (DirectoryInterconnect). */
    Tick dir_latency = 6;
};

/** A W x H mesh (or 1 x N wraparound ring) of routers and links. */
class Noc
{
  public:
    /**
     * @param kind Mesh or Ring (Bus is rejected).
     * @param nodes Router count; one node per core/home slice.
     */
    Noc(InterconnectKind kind, int nodes, const NocParams &p = NocParams{});

    /**
     * Route one message from node @p src to node @p dst, entering the
     * network at tick @p at, acquiring each link on the route.
     *
     * @return the arrival tick at @p dst (>= at + router_delay).
     */
    [[nodiscard]] Tick send(int src, int dst, Tick at);

    /** @return the route length in links, without acquiring anything. */
    [[nodiscard]] int hopCount(int src, int dst) const;

    [[nodiscard]] int nodes() const { return n_nodes; }
    [[nodiscard]] int width() const { return w; }
    [[nodiscard]] int height() const { return h; }
    [[nodiscard]] InterconnectKind kind() const { return _kind; }
    [[nodiscard]] const NocParams &params() const { return p; }

    /** Messages injected since the last reset. */
    [[nodiscard]] std::uint64_t messages() const { return n_msgs.value(); }
    /** Link traversals since the last reset. */
    [[nodiscard]] std::uint64_t hops() const { return n_hops.value(); }

    /** Register aggregate and per-link stats under @p group. */
    void regStats(StatGroup &group);
    void resetStats();

    /** Emit per-link Resource events into @p s under "mem.noc.*". */
    void attachSink(obs::TraceSink *s);

    /** Serialize every link's occupancy into a checkpoint. */
    void saveState(ByteWriter &w) const;

    /** Restore link occupancy from a checkpoint. */
    void loadState(ByteReader &r);

  private:
    /** Directed link leaving @p node towards @p dir (0=E 1=W 2=N 3=S). */
    Resource &link(int node, int dir);

    /** The links from @p src to @p dst, in traversal order. */
    [[nodiscard]] std::span<Resource *const> route(int src, int dst) const;

    InterconnectKind _kind;
    NocParams p;
    int n_nodes;
    int w;
    int h;
    /** Directed links indexed node * 4 + dir; null where no neighbor. */
    std::vector<std::unique_ptr<Resource>> links;
    /** Every route's links in traversal order, routes back to back. */
    std::vector<Resource *> route_links;
    /** Route src * nodes + dst spans route_links[route_start[r] ..
     *  route_start[r + 1]). */
    std::vector<std::uint32_t> route_start;
    Counter n_msgs;
    Counter n_hops;
};

} // namespace cnsim

#endif // CNSIM_MEM_NOC_HH
