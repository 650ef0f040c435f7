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
 * We implement a Dragon-flavoured update protocol on the same private
 * caches as the MESI baseline (PrivateCaches, private_l2.hh): the same
 * four 2 MB arrays, snooping bus, supplier rule, eviction and fill. Only
 * the access decisions differ:
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
#include <string>

#include "l2/private_l2.hh"

namespace cnsim
{

/** Private caches kept coherent by a write-update (Dragon) protocol. */
class UpdateL2 : public PrivateCaches
{
  public:
    using PrivateCaches::PrivateCaches;

    AccessResult access(const MemAccess &acc, Tick at) override;
    std::string kind() const override { return "update"; }
    void regStats(StatGroup &group) override;
    void resetStats() override;

    /** True if @p core currently owns (must write back) @p addr. */
    bool ownerOf(CoreId core, Addr addr) const;

    std::uint64_t updatesSent() const { return n_updates.value(); }

  private:
    /** {u64 addr, u8 valid | owner << 1, u8 state}. */
    void saveBlock(ByteWriter &w, const Block &b) const override;
    void loadBlock(ByteReader &r, Block &b) const override;

    Counter n_updates;
};

} // namespace cnsim

#endif // CNSIM_L2_UPDATE_L2_HH
