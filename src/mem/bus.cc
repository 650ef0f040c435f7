#include "mem/bus.hh"

#include "common/bytes.hh"
#include "obs/trace_sink.hh"

namespace cnsim
{

SnoopBus::SnoopBus(const BusParams &p)
    : params(p), slot("busSlot", 1)
{
}

Tick
SnoopBus::place(BusCmd cmd, Tick at)
{
    counts[static_cast<int>(cmd)].inc();
    Tick grant = slot.acquire(at, params.arbitration);
    if (sink)
        sink->busTx(grant, track, cmd, params.latency);
    return grant;
}

Tick
SnoopBus::transaction(BusCmd cmd, CoreId, Addr, Tick at)
{
    return place(cmd, at) + params.latency;
}

void
SnoopBus::postedTransaction(BusCmd cmd, CoreId, Addr, Tick at)
{
    (void)place(cmd, at);
}

void
SnoopBus::attachSink(obs::TraceSink *s)
{
    sink = s;
    track = s ? s->registerComponent("mem.bus") : -1;
    slot.attachSink(s, "mem.bus.slot");
}

void
SnoopBus::regStats(StatGroup &group)
{
    // statName's switch is exhaustive (-Wswitch-enum), so a BusCmd
    // addition that forgets the counter table can't mislabel anything;
    // this only guards the enumerator/count pairing itself.
    static_assert(static_cast<int>(BusCmd::DirPut) + 1 == num_bus_cmds,
                  "num_bus_cmds disagrees with the BusCmd enumerators");
    for (int i = 0; i < num_bus_cmds; ++i)
        group.addCounter(
            std::string("bus.") + statName(static_cast<BusCmd>(i)),
            &counts[i], "bus transactions");
    slot.regStats(group);
}

void
SnoopBus::resetStats()
{
    for (auto &c : counts)
        c.reset();
    slot.reset();
}

void
SnoopBus::saveState(ByteWriter &w) const
{
    slot.saveState(w);
}

void
SnoopBus::loadState(ByteReader &r)
{
    slot.loadState(r);
}

} // namespace cnsim
