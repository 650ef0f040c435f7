#include "l2/snuca_l2.hh"

namespace cnsim
{

SnucaL2::SnucaL2(const SharedL2Params &shared_params, const SnucaParams &np,
                 MainMemory &mem)
    : SharedL2(shared_params, np, Placement::Static, mem)
{
}

double
SnucaL2::meanLatency(CoreId core) const
{
    double sum = 0;
    for (unsigned b = 0; b < numBanks(); ++b)
        sum += static_cast<double>(bankLatency(core, b));
    return sum / numBanks();
}

} // namespace cnsim
