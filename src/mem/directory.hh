/**
 * @file
 * Home-node directory coherence over the mesh/ring NoC.
 *
 * Replaces the snooping bus's broadcasts with directory messages: each
 * block has a home node, striped across the NoC at block granularity
 * the same way CMP-NuRAPID stripes d-group frames, holding a sharer
 * bitset, an owner pointer, and a dirty bit. Requests travel
 * requestor -> home, pay the directory lookup, then fan out only to
 * the cores the directory names -- invalidations under MESI,
 * update-multicasts to the sharer set under MESIC (the paper's
 * in-situ-communication C state) and the write-update baseline.
 *
 * Protocol *logic* still lives in the L2 organizations, which have the
 * global view; the directory mirrors membership from the
 * (cmd, src, addr) stream to (a) time the multicasts and (b) hand the
 * ProtocolAuditor an independent reading of who should hold each
 * block. Anonymous traffic (invalid src) is timing-only and never
 * touches membership: flush-to-memory writebacks must not clobber the
 * ownership a preceding BusRdX just established for the new writer.
 *
 * Silent clean evictions and snoop-driven invalidations would strand
 * sharer bits, so the directory answers wantsEvictionNotices() with
 * true and the organizations post BusCmd::DirPut whenever a copy
 * leaves a cache without a writeback -- clean replacements, and each
 * peer copy a write transaction invalidates. The home itself never
 * guesses whether a write invalidates or updates (a silent E->M
 * upgrade makes that undecidable from the request stream alone): it
 * always keeps the multicast targets as members and lets the losers'
 * DirPut notices trim the set.
 */

#ifndef CNSIM_MEM_DIRECTORY_HH
#define CNSIM_MEM_DIRECTORY_HH

#include <array>
#include <cstdint>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/interconnect.hh"
#include "mem/noc.hh"
#include "mem/packet.hh"

namespace cnsim
{

/** Which coherence dialect the directory mirrors. */
enum class CohMode
{
    Mesi,         //!< invalidation-based (private MESI, NuRAPID w/o ISC)
    Mesic,        //!< MESI + C state: writes multicast to live sharers
    WriteUpdate,  //!< Dragon-style write-update baseline
};

/** Human-readable name of a CohMode. */
inline const char *
toString(CohMode m)
{
    switch (m) {
      case CohMode::Mesi: return "mesi";
      case CohMode::Mesic: return "mesic";
      case CohMode::WriteUpdate: return "writeUpdate";
    }
    cnsim_unreachable("CohMode");
}

/** One directory line: who may hold the block, and how. */
struct DirEntry
{
    /** Bit per core holding a copy. */
    std::uint64_t sharers = 0;
    /** Core whose copy services dirty data, invalid_id if none. */
    CoreId owner = invalid_id;
    /** True while an on-chip copy is newer than memory. */
    bool dirty = false;
};

/** Directory coherence + NoC timing behind the Interconnect interface. */
class DirectoryInterconnect : public Interconnect
{
  public:
    /**
     * @param kind Mesh or Ring.
     * @param cores Core (and NoC node, and home slice) count; <= 64.
     * @param block_size Coherence granularity for home striping.
     * @param mode Which dialect's membership rules to mirror.
     */
    DirectoryInterconnect(InterconnectKind kind, int cores,
                          unsigned block_size, CohMode mode,
                          const NocParams &p = NocParams{});

    using Interconnect::postedTransaction;
    using Interconnect::transaction;

    [[nodiscard]] Tick transaction(BusCmd cmd, CoreId src, Addr addr,
                                   Tick at) override;
    void postedTransaction(BusCmd cmd, CoreId src, Addr addr,
                           Tick at) override;

    [[nodiscard]] bool wantsEvictionNotices() const override
    {
        return true;
    }

    /** The home entry's sharer bitset, which covers every valid copy
     *  (the auditor's directory reading). */
    [[nodiscard]] std::uint64_t snoopTargets(Addr addr) const override
    {
        return sharersOf(addr);
    }

    void regStats(StatGroup &group) override;
    void resetStats() override;
    void attachSink(obs::TraceSink *s) override;

    [[nodiscard]] std::uint64_t count(BusCmd cmd) const override
    {
        return counts[static_cast<int>(cmd)].value();
    }

    /** Nominal request/reply round trip across the fabric. */
    [[nodiscard]] Tick latency() const override;

    /** @return the home node of @p addr's block. */
    [[nodiscard]] int homeOf(Addr addr) const;

    // Test/auditor hooks -- read the mirrored membership directly.

    /** @return the sharer bitset for @p addr's block (0 if untracked). */
    [[nodiscard]] std::uint64_t sharersOf(Addr addr) const;
    /** @return the owner of @p addr's block, invalid_id if none. */
    [[nodiscard]] CoreId ownerOf(Addr addr) const;
    /** @return true if @p addr's block is dirty on chip. */
    [[nodiscard]] bool dirtyOf(Addr addr) const;
    /** @return tracked directory lines. */
    [[nodiscard]] std::size_t entries() const { return dir.size(); }

    [[nodiscard]] const Noc &noc() const { return net; }
    [[nodiscard]] CohMode mode() const { return coh_mode; }

    void saveState(ByteWriter &w) const override;
    void loadState(ByteReader &r) override;

  private:
    /** Common path of transaction/postedTransaction. */
    Tick request(BusCmd cmd, CoreId src, Addr addr, Tick at);

    /** Multicast home -> each sharer in @p mask (skipping @p skip);
     *  with @p acks, wait for every ack back at home.
     *  @return the tick home has finished the fan-out. */
    Tick fanOut(std::uint64_t mask, CoreId skip, int home, Tick at,
                bool acks);

    /** A copy left core @p src: drop its membership, maybe the line.
     *  @p wrote_back distinguishes a writeback (memory is current
     *  again) from a clean departure (dirty survivors keep the bit). */
    void relinquish(DirEntry &e, CoreId src, Addr baddr, bool wrote_back);

    CohMode coh_mode;
    unsigned blk_shift;
    Noc net;
    FlatMap<Addr, DirEntry> dir;
    std::array<Counter, num_bus_cmds> counts;
    obs::TraceSink *sink = nullptr;
    int track = -1;
};

} // namespace cnsim

#endif // CNSIM_MEM_DIRECTORY_HH
