/**
 * @file
 * Content-addressed result and checkpoint cache (DESIGN.md 3l).
 *
 * One directory, two entry kinds, both addressed by the FNV-1a content
 * keys of farm/cell.hh:
 *  - `r-<key>.cnf`: a cell's serialized RunResult under cellKey();
 *  - `c-<key>.cnf`: a warmed CNCKPT01 blob under ckptKey().
 *
 * An entry is the 8-byte magic "CNFARM02", a kind byte ('r' or 'c'),
 * the payload, and a u64 FNV-1a checksum of every byte before it. A
 * truncated, corrupted, or wrong-kind entry is *rejected* -- warned
 * about, unlinked, and reported as a miss so the caller recomputes --
 * never trusted and never a fatal. Checkpoint blobs are additionally
 * gated on sample::Checkpoint::checksumOk before the fatal-on-corrupt
 * deserializer ever sees them.
 *
 * Writes go through a same-directory temp file and rename(2), so a
 * process reading the same directory sees either no entry or a complete
 * one. Within one process, farm/sweep.hh uses the cache from one thread
 * at a time. Keys embed the farm and checkpoint format versions plus
 * the full spec and trace hash, so a stale or foreign entry simply
 * never collides.
 */

#ifndef CNSIM_FARM_CACHE_HH
#define CNSIM_FARM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/runner.hh"

namespace cnsim
{
namespace farm
{

/** The on-disk cache; a default-constructed or empty-dir instance is
 *  disabled and misses everything. */
class Cache
{
  public:
    Cache() = default;

    /** Open (creating directories as needed) the cache at @p dir;
     *  empty @p dir leaves the cache disabled. */
    explicit Cache(const std::string &dir);

    [[nodiscard]] bool enabled() const { return !root.empty(); }

    /** Load the result under @p key into @p out. @return false on
     *  miss or on a rejected (corrupt) entry. */
    bool loadResult(std::uint64_t key, RunResult &out) const;

    /** Store @p result under @p key (atomic rename; no-op when
     *  disabled). */
    void storeResult(std::uint64_t key, const RunResult &result) const;

    /** Load the checkpoint blob under @p key; null on miss or on a
     *  rejected entry (entry or CNCKPT01 checksum failure). */
    [[nodiscard]] std::shared_ptr<const std::string>
    loadCkpt(std::uint64_t key) const;

    /** Store a warmed checkpoint blob under @p key. */
    void storeCkpt(std::uint64_t key, const std::string &blob) const;

    /** Entry path for @p kind ('r' or 'c') and @p key (for tests). */
    [[nodiscard]] std::string entryPath(char kind,
                                        std::uint64_t key) const;

  private:
    /** Read and validate the entry; false on miss, and a warn + unlink
     *  + miss on corruption. */
    bool loadEntry(char kind, std::uint64_t key,
                   std::string &payload) const;

    void storeEntry(char kind, std::uint64_t key,
                    const std::string &payload) const;

    std::string root;
};

} // namespace farm
} // namespace cnsim

#endif // CNSIM_FARM_CACHE_HH
