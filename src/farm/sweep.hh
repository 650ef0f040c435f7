/**
 * @file
 * The sweep runner (DESIGN.md 3l): a grid of CellSpecs run on the
 * in-process ParallelRunner behind the content-addressed cache.
 *
 * Every cell is first looked up in the result cache, and a hit is
 * served without running. A miss becomes a job (buildJob). When the
 * cache is enabled and the cell's warm-up can be shared
 * (CellSpec::sharesWarmState), the job also probes the checkpoint
 * cache: a cached warmed CNCKPT01 blob replaces the warm-up
 * (RunConfig::ckpt_blob_in), and without one the run captures its
 * post-warm-up state (RunConfig::ckpt_blob_out) for the next sweep.
 * The misses run on a ParallelRunner, and each finished cell's result
 * and captured blob are published from the pool's progress callback.
 * That callback runs under the pool's lock, one cell at a time, so the
 * cache needs no locking of its own, and a sweep cut short keeps every
 * cell it finished.
 *
 * Results come back in submission order, byte-identical whether a cell
 * was computed, resumed from a blob or read back from the cache, at
 * any thread count.
 */

#ifndef CNSIM_FARM_SWEEP_HH
#define CNSIM_FARM_SWEEP_HH

#include <cstddef>
#include <vector>

#include "farm/cache.hh"
#include "farm/cell.hh"
#include "sim/runner.hh"

namespace cnsim
{
namespace farm
{

/** What runSweep returns: the results and how each cell was obtained. */
struct SweepResult
{
    /** One result per cell, in submission order. */
    std::vector<RunResult> results;
    /** Cells served from the result cache without running; every
     *  other cell ran. */
    std::size_t cached = 0;
    /** Cells that ran resumed from a cached warmed checkpoint instead
     *  of warming up. */
    std::size_t resumed = 0;
};

/**
 * Run @p cells on @p jobs threads (0 = one per CPU this process may
 * run on) behind @p cache; a disabled cache runs every cell and stores
 * nothing.
 */
SweepResult runSweep(const std::vector<CellSpec> &cells,
                     const Cache &cache, unsigned jobs);

} // namespace farm
} // namespace cnsim

#endif // CNSIM_FARM_SWEEP_HH
