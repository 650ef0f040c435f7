#include "nurapid/tag_array.hh"

#include "common/bytes.hh"
#include "common/logging.hh"

namespace cnsim
{

NuTagArray::NuTagArray(CoreId core, unsigned num_sets, unsigned assoc,
                       unsigned block_size)
    : _core(core), _num_sets(num_sets), _assoc(assoc),
      _block_size(block_size), _block_shift(floorLog2(block_size)),
      _set_mask(num_sets - 1)
{
    cnsim_assert(isPowerOf2(num_sets) && isPowerOf2(block_size),
                 "tag array geometry must be powers of two");
    entries.assign(static_cast<std::size_t>(num_sets) * assoc, TagEntry{});
}

unsigned
NuTagArray::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> _block_shift) & _set_mask);
}

TagEntry *
NuTagArray::find(Addr addr)
{
    Addr tag = blockAlign(addr, _block_size);
    TagEntry *s =
        &entries[static_cast<std::size_t>(setIndex(addr)) * _assoc];
    for (unsigned w = 0; w < _assoc; ++w) {
        if (s[w].valid && s[w].addr == tag)
            return &s[w];
    }
    return nullptr;
}

const TagEntry *
NuTagArray::find(Addr addr) const
{
    return const_cast<NuTagArray *>(this)->find(addr);
}

TagPos
NuTagArray::posOf(const TagEntry *e) const
{
    std::size_t idx = static_cast<std::size_t>(e - entries.data());
    cnsim_assert(idx < entries.size(), "entry not in this tag array");
    return TagPos{_core, static_cast<int>(idx / _assoc),
                  static_cast<int>(idx % _assoc)};
}

TagEntry &
NuTagArray::at(int set, int way)
{
    return entries[static_cast<std::size_t>(set) * _assoc + way];
}

const TagEntry &
NuTagArray::at(int set, int way) const
{
    return entries[static_cast<std::size_t>(set) * _assoc + way];
}

TagEntry *
NuTagArray::replacementVictim(Addr addr)
{
    TagEntry *s =
        &entries[static_cast<std::size_t>(setIndex(addr)) * _assoc];
    TagEntry *lru_private = nullptr;
    TagEntry *lru_shared = nullptr;
    for (unsigned w = 0; w < _assoc; ++w) {
        TagEntry *e = &s[w];
        if (!e->valid)
            return e;
        if (e->busy)
            continue;
        if (isPrivateState(e->state)) {
            if (!lru_private || e->lru < lru_private->lru)
                lru_private = e;
        } else {
            if (!lru_shared || e->lru < lru_shared->lru)
                lru_shared = e;
        }
    }
    if (lru_private)
        return lru_private;
    if (lru_shared)
        return lru_shared;
    panic("tag set for %llx has no replaceable entry (all busy)",
          static_cast<unsigned long long>(addr));
}

void
NuTagArray::flushAll()
{
    for (auto &e : entries)
        e = TagEntry{};
    lru_clock = 0;
}

void
NuTagArray::saveState(ByteWriter &w) const
{
    w.u32(_num_sets);
    w.u32(_assoc);
    w.u64(lru_clock);
    for (const TagEntry &e : entries) {
        w.u64(e.addr);
        w.u8(static_cast<std::uint8_t>((e.valid ? 1 : 0) |
                                       (e.busy ? 2 : 0)));
        w.u8(static_cast<std::uint8_t>(e.state));
        w.u32(static_cast<std::uint32_t>(e.fwd.dgroup));
        w.u32(static_cast<std::uint32_t>(e.fwd.frame));
        w.u64(e.lru);
    }
}

void
NuTagArray::loadState(ByteReader &r)
{
    std::uint32_t sets = r.u32();
    std::uint32_t ways = r.u32();
    if (sets != _num_sets || ways != _assoc)
        r.fail("NuRAPID tag array of %u sets x %u ways does not fit this "
               "run's %u x %u",
               sets, ways, _num_sets, _assoc);
    lru_clock = r.u64();
    for (TagEntry &e : entries) {
        e.addr = r.u64();
        std::uint8_t flags = r.u8();
        e.valid = flags & 1;
        e.busy = flags & 2;
        std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(CohState::Communication))
            r.fail("NuRAPID tag state %u is not I, S, E, M or C",
                   unsigned{state});
        e.state = static_cast<CohState>(state);
        e.fwd.dgroup =
            static_cast<DGroupId>(static_cast<std::int32_t>(r.u32()));
        e.fwd.frame = static_cast<int>(static_cast<std::int32_t>(r.u32()));
        e.lru = r.u64();
    }
}

} // namespace cnsim
