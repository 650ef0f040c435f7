#include "nurapid/data_array.hh"

#include "common/bytes.hh"
#include "common/logging.hh"

namespace cnsim
{

NuDataArray::NuDataArray(int num_dgroups, unsigned frames_per_dgroup)
    : frames_per(frames_per_dgroup)
{
    cnsim_assert(num_dgroups >= 1 && frames_per_dgroup >= 1,
                 "bad data array shape");
    frames.resize(num_dgroups);
    free_list.resize(num_dgroups);
    for (int g = 0; g < num_dgroups; ++g) {
        frames[g].assign(frames_per_dgroup, Frame{});
        free_list[g].reserve(frames_per_dgroup);
        // Populate the free list high-to-low so allocation order is
        // low-to-high, which is convenient for tests.
        for (int i = static_cast<int>(frames_per_dgroup) - 1; i >= 0; --i)
            free_list[g].push_back(i);
    }
}

int
NuDataArray::allocate(DGroupId dg)
{
    auto &fl = free_list[dg];
    if (fl.empty())
        return invalid_id;
    int idx = fl.back();
    fl.pop_back();
    cnsim_assert(!frames[dg][idx].valid, "free list held a valid frame");
    return idx;
}

void
NuDataArray::fill(DGroupId dg, int idx, Addr addr, TagPos rev)
{
    Frame &f = frames[dg][idx];
    cnsim_assert(!f.valid, "fill of valid frame %d in d-group %d", idx, dg);
    cnsim_assert(rev.valid(),
                 "fill of frame %d in d-group %d without a reverse pointer",
                 idx, dg);
    f.addr = addr;
    f.valid = true;
    f.rev = rev;
    if (counted)
        ++n_holding[addr];
}

void
NuDataArray::free(DGroupId dg, int idx)
{
    Frame &f = frames[dg][idx];
    cnsim_assert(f.valid, "double free of frame %d in d-group %d", idx, dg);
    if (counted && --n_holding[f.addr] == 0)
        n_holding.erase(f.addr);
    f = Frame{};
    free_list[dg].push_back(idx);
}

FlatMap<Addr, int>
NuDataArray::countFrames() const
{
    FlatMap<Addr, int> n;
    for (const auto &g : frames)
        for (const Frame &f : g)
            if (f.valid)
                ++n[f.addr];
    return n;
}

int
NuDataArray::holding(Addr addr) const
{
    if (!counted) {
        n_holding = countFrames();
        counted = true;
    }
    const int *n = n_holding.find(addr);
    return n ? *n : 0;
}

void
NuDataArray::checkHolding() const
{
    if (!counted)
        return;
    FlatMap<Addr, int> recount = countFrames();
    cnsim_assert(recount.size() == n_holding.size(),
                 "frame count tracks %zu blocks, the frames hold %zu",
                 n_holding.size(), recount.size());
    recount.forEach([this](Addr addr, int n) {
        const int *kept = n_holding.find(addr);
        cnsim_assert(kept && *kept == n,
                     "frame count of %llx is %d, the frames hold %d",
                     static_cast<unsigned long long>(addr), kept ? *kept : 0,
                     n);
    });
}

int
NuDataArray::randomVictim(DGroupId dg, Rng &rng, Addr pinned_addr)
{
    const auto &v = frames[dg];
    unsigned n = static_cast<unsigned>(v.size());
    // The common case samples a valid, unpinned frame in a few tries
    // (d-groups are nearly full whenever a victim is needed); fall back
    // to a scan from a random start so we never loop unboundedly.
    for (int attempt = 0; attempt < 8; ++attempt) {
        unsigned i = rng.below(n);
        if (v[i].valid && v[i].addr != pinned_addr)
            return static_cast<int>(i);
    }
    unsigned start = rng.below(n);
    for (unsigned k = 0; k < n; ++k) {
        unsigned i = (start + k) % n;
        if (v[i].valid && v[i].addr != pinned_addr)
            return static_cast<int>(i);
    }
    return invalid_id;
}

void
NuDataArray::saveState(ByteWriter &w) const
{
    w.u32(static_cast<std::uint32_t>(numDGroups()));
    w.u32(frames_per);
    for (int g = 0; g < numDGroups(); ++g) {
        for (const Frame &f : frames[g]) {
            w.u64(f.addr);
            w.u8(f.valid ? 1 : 0);
            w.u32(static_cast<std::uint32_t>(f.rev.core));
            w.u32(static_cast<std::uint32_t>(f.rev.set));
            w.u32(static_cast<std::uint32_t>(f.rev.way));
        }
        w.u32(static_cast<std::uint32_t>(free_list[g].size()));
        for (int idx : free_list[g])
            w.u32(static_cast<std::uint32_t>(idx));
    }
}

void
NuDataArray::loadState(ByteReader &r, int num_cores, unsigned tag_sets,
                       unsigned tag_ways)
{
    std::uint32_t dgs = r.u32();
    std::uint32_t fp = r.u32();
    if (dgs != static_cast<std::uint32_t>(numDGroups()) || fp != frames_per)
        r.fail("NuRAPID data array of %u d-groups x %u frames does not "
               "fit this run's %d x %u",
               dgs, fp, numDGroups(), frames_per);
    for (int g = 0; g < numDGroups(); ++g) {
        unsigned n_invalid = 0;
        for (Frame &f : frames[g]) {
            f.addr = r.u64();
            f.valid = r.u8() & 1;
            f.rev.core =
                static_cast<CoreId>(static_cast<std::int32_t>(r.u32()));
            f.rev.set = static_cast<int>(static_cast<std::int32_t>(r.u32()));
            f.rev.way = static_cast<int>(static_cast<std::int32_t>(r.u32()));
            n_invalid += !f.valid;
            if (!f.valid)
                continue;
            if (!f.rev.valid())
                r.fail("NuRAPID frame of %llx in d-group %d has no reverse "
                       "pointer",
                       static_cast<unsigned long long>(f.addr), g);
            // The reverse pointer indexes the tag arrays unchecked.
            if (f.rev.core < 0 || f.rev.core >= num_cores ||
                f.rev.set < 0 ||
                static_cast<unsigned>(f.rev.set) >= tag_sets ||
                f.rev.way < 0 || static_cast<unsigned>(f.rev.way) >= tag_ways)
                r.fail("NuRAPID frame of %llx in d-group %d points at tag "
                       "(core %d, set %d, way %d), off this run's %d cores "
                       "x %u sets x %u ways",
                       static_cast<unsigned long long>(f.addr), g,
                       f.rev.core, f.rev.set, f.rev.way, num_cores,
                       tag_sets, tag_ways);
        }
        // The free list must name every invalid frame exactly once:
        // allocate() pops it unchecked.
        std::uint32_t n_free = r.u32();
        if (n_free != n_invalid)
            r.fail("NuRAPID d-group %d lists %u free frames but has %u "
                   "invalid ones",
                   g, n_free, n_invalid);
        std::vector<bool> listed(frames_per, false);
        free_list[g].clear();
        for (std::uint32_t i = 0; i < n_free; ++i) {
            std::uint32_t idx = r.u32();
            if (idx >= frames_per)
                r.fail("NuRAPID free-list index %u out of range in "
                       "d-group %d",
                       idx, g);
            if (frames[g][idx].valid || listed[idx])
                r.fail("NuRAPID free list of d-group %d names %s frame "
                       "%u",
                       g, listed[idx] ? "a repeated" : "a valid", idx);
            listed[idx] = true;
            free_list[g].push_back(static_cast<int>(idx));
        }
    }
    // Rebuilt on the next holding() query.
    n_holding = {};
    counted = false;
}

} // namespace cnsim
