/**
 * @file
 * Private per-core L2 caches under a write-update protocol -- the
 * alternative the paper rejects for read-write sharing (Section 3.2).
 *
 * "It may seem that private caches can avoid coherence misses in
 * read-write sharing by using an update protocol ... However, unlike
 * ISC in CMP-NuRAPID, an update protocol requires the updates to go
 * through the bus for copying the data to the reader's caches,
 * incurring an overhead on every write. Furthermore, update protocols
 * keep multiple copies of the read-write shared block giving rise to
 * capacity problems similar to the ones caused by uncontrolled
 * replication in read-only sharing."
 *
 * We implement a Dragon-flavoured update protocol over the same four
 * 2 MB private caches and snooping bus as the MESI baseline:
 *
 *  - read miss: fill from a peer (cache-to-cache) or memory; the block
 *    is Shared when other copies exist, Exclusive otherwise.
 *  - write to a Shared block: a BusUpd transaction updates every other
 *    copy in place (no invalidations, so readers never take coherence
 *    misses); the writer becomes the block's owner (responsible for
 *    writeback). Shared blocks are write-through in the L1 so every
 *    store reaches the coherence point.
 *  - write to an Exclusive/Modified block: silent, as in MESI.
 *
 * The ablation bench (ablation_update_vs_isc) compares this protocol
 * against in-situ communication to quantify the paper's argument.
 */

#ifndef CNSIM_L2_UPDATE_L2_HH
#define CNSIM_L2_UPDATE_L2_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/coh_state.hh"
#include "cache/set_assoc.hh"
#include "l2/l2_org.hh"
#include "l2/private_l2.hh"
#include "mem/interconnect.hh"
#include "mem/memory.hh"
#include "mem/resource.hh"

namespace cnsim
{

/** Private caches kept coherent by a write-update (Dragon) protocol. */
class UpdateL2 : public L2Org
{
  public:
    UpdateL2(const PrivateL2Params &p, Interconnect &bus,
             MainMemory &mem);

    AccessResult access(const MemAccess &acc, Tick at) override;
    std::string kind() const override { return "update"; }
    void regStats(StatGroup &group) override;
    void resetStats() override;
    void checkInvariants() const override;
    void checkBlockInvariants(Addr addr) const override;
    void setTraceSink(obs::TraceSink *s) override;

    /** Dragon-ish state of @p addr in @p core's cache (tests). */
    CohState stateOf(CoreId core, Addr addr) const;

    /** True if @p core currently owns (must write back) @p addr. */
    bool ownerOf(CoreId core, Addr addr) const;

    std::uint64_t updatesSent() const { return n_updates.value(); }

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;
    std::uint64_t validBlockCount() const override;

  private:
    struct Block
    {
        Addr addr = 0;
        bool valid = false;
        /** Exclusive / Shared; Modified marks a dirty sole copy. */
        CohState state = CohState::Invalid;
        /** This copy is responsible for the eventual writeback. */
        bool owner = false;
    };

    /** Emit a write-update protocol transition on @p core's track. */
    void emitTrans(Tick t, CoreId core, Addr addr, CohState olds,
                   CohState news, obs::TransCause cause,
                   std::uint64_t flags = 0);

    PrivateL2Params params;
    Interconnect &bus;
    MainMemory &memory;
    std::vector<SetAssocArray<Block>> caches;
    std::vector<std::unique_ptr<Resource>> ports;
    std::vector<int> core_tracks;

    Counter n_updates;
    Counter n_cache_to_cache;
};

} // namespace cnsim

#endif // CNSIM_L2_UPDATE_L2_HH
