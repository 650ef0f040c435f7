#include "mem/resource.hh"

#include <algorithm>

#include "common/bytes.hh"
#include "common/logging.hh"
#include "obs/trace_sink.hh"
#include "sample/warm.hh"

namespace cnsim
{

Resource::Resource(std::string name, unsigned ports)
    : _name(std::move(name))
{
    cnsim_assert(ports >= 1, "resource '%s' needs at least one port",
                 _name.c_str());
    free_at.assign(ports, 0);
}

Tick
Resource::acquire(Tick at, Tick occupancy)
{
    // Functional fast-forward: grant immediately, occupy nothing,
    // count nothing. Architectural state transitions in the caller
    // proceed exactly as in detailed mode; only time is neutralized.
    if (sample::WarmScope::active())
        return at;
    auto it = std::min_element(free_at.begin(), free_at.end());
    Tick grant = std::max(at, *it);
    *it = grant + occupancy;
    n_grants.inc();
    wait_ticks.inc(grant - at);
    busy_ticks.inc(occupancy);
    if (sink)
        sink->resourceAcquire(grant, track, grant - at, occupancy);
    return grant;
}

Tick
Resource::earliestGrant(Tick at) const
{
    return std::max(at, *std::min_element(free_at.begin(), free_at.end()));
}

void
Resource::regStats(StatGroup &group)
{
    group.addCounter(_name + ".grants", &n_grants,
                     "requests granted a port");
    group.addCounter(_name + ".waitTicks", &wait_ticks,
                     "total ticks spent waiting for a port");
    group.addCounter(_name + ".busyTicks", &busy_ticks,
                     "total ticks a port was held");
}

void
Resource::attachSink(obs::TraceSink *s, const std::string &path)
{
    sink = s;
    track = s ? s->registerComponent(path.empty() ? "res." + _name : path)
              : -1;
}

void
Resource::reset()
{
    n_grants.reset();
    wait_ticks.reset();
    busy_ticks.reset();
}

void
Resource::saveState(ByteWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(free_at.size()));
    for (Tick t : free_at)
        w.tick(t);
}

void
Resource::loadState(ByteReader &r)
{
    std::uint32_t n = r.u32();
    if (n != free_at.size())
        r.fail("resource '%s' with %u ports does not fit this run's %zu",
               _name.c_str(), n, free_at.size());
    for (Tick &t : free_at)
        t = r.tick();
}

} // namespace cnsim
