#include "l2/dnuca_l2.hh"

namespace cnsim
{

DnucaL2::DnucaL2(const SharedL2Params &p, const SnucaParams &np,
                 MainMemory &mem)
    : SharedL2(p, np, Placement::Migrating, mem)
{
}

} // namespace cnsim
