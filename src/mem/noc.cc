#include "mem/noc.hh"

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

namespace
{

/** Directed-link direction encoding; indexes Noc::links. */
enum Dir : int
{
    dir_e = 0,
    dir_w = 1,
    dir_n = 2,
    dir_s = 3,
};

const char *const dir_names[4] = {"e", "w", "n", "s"};

/**
 * Next direction on the deterministic route from @p node to @p dst:
 * shortest way around the ring (ties clockwise/east), dimension-ordered
 * XY (X first) in the mesh.
 */
int
nextDir(InterconnectKind kind, int w, int n_nodes, int node, int dst)
{
    if (kind == InterconnectKind::Ring) {
        int cw = (dst - node + n_nodes) % n_nodes;
        return cw * 2 <= n_nodes ? dir_e : dir_w;
    }
    int x = node % w;
    int dx = dst % w;
    if (x != dx)
        return dx > x ? dir_e : dir_w;
    return dst / w > node / w ? dir_s : dir_n;
}

/** Node reached from @p node via @p dir (ring wraps in X). */
int
step(InterconnectKind kind, int w, int n_nodes, int node, int dir)
{
    switch (dir) {
      case dir_e:
        return kind == InterconnectKind::Ring ? (node + 1) % n_nodes
                                              : node + 1;
      case dir_w:
        return kind == InterconnectKind::Ring
                   ? (node - 1 + n_nodes) % n_nodes
                   : node - 1;
      case dir_n:
        return node - w;
      case dir_s:
        return node + w;
    }
    cnsim_unreachable("link direction");
}

} // namespace

Noc::Noc(InterconnectKind kind, int nodes, const NocParams &params)
    : _kind(kind), p(params), n_nodes(nodes)
{
    cnsim_assert(kind != InterconnectKind::Bus,
                 "Noc models mesh/ring fabrics, not the bus");
    cnsim_assert(nodes >= 1, "NoC needs at least one node");
    if (kind == InterconnectKind::Ring) {
        w = n_nodes;
        h = 1;
    } else {
        // Most-square factorization: mesh dimensions w x h with w <= h.
        w = 1;
        for (int c = 1; c * c <= n_nodes; ++c)
            if (n_nodes % c == 0)
                w = c;
        h = n_nodes / w;
    }

    links.resize(static_cast<std::size_t>(n_nodes) * 4);
    for (int n = 0; n < n_nodes; ++n) {
        int x = n % w;
        int y = n / w;
        bool wrap = _kind == InterconnectKind::Ring && n_nodes > 1;
        bool has[4];
        has[dir_e] = wrap || x < w - 1;
        has[dir_w] = wrap || x > 0;
        has[dir_n] = y > 0;
        has[dir_s] = y < h - 1;
        for (int d = 0; d < 4; ++d) {
            if (!has[d])
                continue;
            links[static_cast<std::size_t>(n) * 4 + d] =
                std::make_unique<Resource>(
                    strfmt("noc.n%d.%s", n, dir_names[d]), 1);
        }
    }

    route_start.reserve(static_cast<std::size_t>(n_nodes) * n_nodes + 1);
    route_start.push_back(0);
    for (int src = 0; src < n_nodes; ++src) {
        for (int dst = 0; dst < n_nodes; ++dst) {
            for (int node = src; node != dst;) {
                int d = nextDir(_kind, w, n_nodes, node, dst);
                route_links.push_back(&link(node, d));
                node = step(_kind, w, n_nodes, node, d);
            }
            route_start.push_back(
                static_cast<std::uint32_t>(route_links.size()));
        }
    }
}

Resource &
Noc::link(int node, int dir)
{
    Resource *r = links[static_cast<std::size_t>(node) * 4 + dir].get();
    cnsim_assert(r, "no %s link at node %d", dir_names[dir], node);
    return *r;
}

std::span<Resource *const>
Noc::route(int src, int dst) const
{
    cnsim_assert(src >= 0 && src < n_nodes && dst >= 0 && dst < n_nodes,
                 "NoC route %d -> %d outside %d nodes", src, dst, n_nodes);
    std::size_t r = static_cast<std::size_t>(src) * n_nodes + dst;
    return {route_links.data() + route_start[r],
            route_links.data() + route_start[r + 1]};
}

Tick
Noc::send(int src, int dst, Tick at)
{
    std::span<Resource *const> path = route(src, dst);
    n_msgs.inc();
    n_hops.inc(path.size());
    // A local message still pays the router pipeline to reach the
    // node's own cache/directory port.
    Tick t = at + p.router_delay;
    for (Resource *l : path)
        t = l->acquire(t, p.link_occupancy) + p.hop_latency +
            p.router_delay;
    return t;
}

int
Noc::hopCount(int src, int dst) const
{
    return static_cast<int>(route(src, dst).size());
}

void
Noc::regStats(StatGroup &group)
{
    group.addCounter("noc.msgs", &n_msgs, "messages injected");
    group.addCounter("noc.hops", &n_hops, "link traversals");
    for (auto &l : links)
        if (l)
            l->regStats(group);
}

void
Noc::resetStats()
{
    n_msgs.reset();
    n_hops.reset();
    for (auto &l : links)
        if (l)
            l->reset();
}

void
Noc::attachSink(obs::TraceSink *s)
{
    for (auto &l : links)
        if (l)
            l->attachSink(s, "mem." + l->name());
}

void
Noc::saveState(ByteWriter &w_) const
{
    // Fixed iteration order (node * 4 + dir); geometry is derived from
    // the config, so only the occupancies travel.
    for (const auto &l : links)
        if (l)
            l->saveState(w_);
}

void
Noc::loadState(ByteReader &r)
{
    for (auto &l : links)
        if (l)
            l->loadState(r);
}

} // namespace cnsim
