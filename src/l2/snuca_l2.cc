#include "l2/snuca_l2.hh"

#include <cmath>

#include "common/bytes.hh"
#include "common/logging.hh"

namespace cnsim
{

SnucaL2::Inner::Inner(const SharedL2Params &p, MainMemory &mem,
                      SnucaL2 &outer)
    : SharedL2(p, mem), outer(outer)
{
}

Tick
SnucaL2::Inner::serviceTime(CoreId core, Addr addr, Tick grant) const
{
    return grant + outer.bankLatency(core, outer.bankOf(addr));
}

Tick
SnucaL2::Inner::acquirePort(CoreId core, Addr addr, Tick at)
{
    (void)core;
    return outer.bank_ports[outer.bankOf(addr)]->acquire(
        at, outer.nparams.occupancy);
}

SnucaL2::SnucaL2(const SharedL2Params &shared_params, const SnucaParams &np,
                 MainMemory &mem)
    : L2Org("snucaL2"), nparams(np),
      block_size(shared_params.block_size)
{
    side = static_cast<unsigned>(std::lround(std::sqrt(nparams.banks)));
    if (side * side != nparams.banks)
        fatal("SNUCA bank count %u is not a perfect square", nparams.banks);
    for (unsigned b = 0; b < nparams.banks; ++b)
        bank_ports.emplace_back(
            std::make_unique<Resource>(strfmt("bank%u", b), 1));
    inner = std::make_unique<Inner>(shared_params, mem, *this);
}

unsigned
SnucaL2::bankOf(Addr block_addr) const
{
    return static_cast<unsigned>((block_addr / block_size) % nparams.banks);
}

Tick
SnucaL2::bankLatency(CoreId core, unsigned bank) const
{
    // Cores sit at the four corners of the bank grid.
    unsigned bx = bank % side;
    unsigned by = bank / side;
    unsigned cx = (core == 1 || core == 3) ? side - 1 : 0;
    unsigned cy = (core == 2 || core == 3) ? side - 1 : 0;
    unsigned hops = (bx > cx ? bx - cx : cx - bx) +
                    (by > cy ? by - cy : cy - by);
    return nparams.base_latency + nparams.per_hop * hops;
}

double
SnucaL2::meanLatency(CoreId core) const
{
    double sum = 0;
    for (unsigned b = 0; b < nparams.banks; ++b)
        sum += static_cast<double>(bankLatency(core, b));
    return sum / nparams.banks;
}

void
SnucaL2::onL1Hooks()
{
    inner->setL1Hooks(l1Invalidate, l1Downgrade);
}

AccessResult
SnucaL2::access(const MemAccess &acc, Tick at)
{
    AccessResult res = inner->access(acc, at);
    record(res.cls);
    return res;
}

void
SnucaL2::regStats(StatGroup &group)
{
    L2Org::regStats(group);
    for (auto &p : bank_ports)
        p->regStats(group);
}

void
SnucaL2::resetStats()
{
    L2Org::resetStats();
    inner->resetStats();
    for (auto &p : bank_ports)
        p->reset();
}

void
SnucaL2::checkInvariants() const
{
    inner->checkInvariants();
}

void
SnucaL2::checkBlockInvariants(Addr addr) const
{
    inner->checkBlockInvariants(addr);
}

void
SnucaL2::setTraceSink(obs::TraceSink *s)
{
    L2Org::setTraceSink(s);
    inner->setTraceSink(s);
    for (std::size_t b = 0; b < bank_ports.size(); ++b)
        bank_ports[b]->attachSink(s, strfmt("l2.snuca.bank%zu", b));
}

void
SnucaL2::saveState(ByteWriter &w) const
{
    inner->saveState(w);
    for (const auto &p : bank_ports)
        p->saveState(w);
}

void
SnucaL2::loadState(ByteReader &r)
{
    inner->loadState(r);
    for (auto &p : bank_ports)
        p->loadState(r);
}

} // namespace cnsim
