// Compile-fail fixture: an Rng without a seed would fall back to a
// baked-in stream instead of one derived from the run configuration.

#include "common/rng.hh"

using cnsim::Rng;

unsigned
shuffleSeedless()
{
    Rng rng;
    Rng gen{};
    auto *heap = new Rng;
    unsigned v = static_cast<unsigned>(Rng().next());
    delete heap;
    return v + static_cast<unsigned>(rng.next() + gen.next());
}
