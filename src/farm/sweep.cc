#include "farm/sweep.hh"

#include <memory>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "sim/parallel_runner.hh"

namespace cnsim
{
namespace farm
{

SweepResult
runSweep(const std::vector<CellSpec> &cells, const Cache &cache,
         unsigned jobs)
{
    SweepResult sweep;
    sweep.results.resize(cells.size());
    ParallelRunner pool(jobs);
    // Per submitted job: its cell's index, and the warmed-state blob it
    // captures for the checkpoint cache (null when it captures none).
    std::vector<std::size_t> cell_of;
    std::vector<std::shared_ptr<std::string>> captured;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &spec = cells[i];
        if (spec.cacheable() &&
            cache.loadResult(cellKey(spec), sweep.results[i])) {
            ++sweep.cached;
            inform("%s: cache hit", spec.label().c_str());
            continue;
        }
        ParallelJob job = buildJob(spec);
        std::shared_ptr<std::string> blob_out;
        if (cache.enabled() && spec.sharesWarmState()) {
            if (auto blob = cache.loadCkpt(ckptKey(spec))) {
                job.run_cfg.ckpt_blob_in = std::move(blob);
                ++sweep.resumed;
            } else {
                blob_out = std::make_shared<std::string>();
                job.run_cfg.ckpt_blob_out = blob_out;
            }
        }
        cell_of.push_back(i);
        captured.push_back(std::move(blob_out));
        pool.submit(std::move(job));
    }

    pool.onProgress([&](const JobReport &rep) {
        const CellSpec &spec = cells[cell_of[rep.index]];
        if (spec.cacheable())
            cache.storeResult(cellKey(spec), *rep.result);
        const std::shared_ptr<std::string> &blob = captured[rep.index];
        if (blob && !blob->empty())
            cache.storeCkpt(ckptKey(spec), *blob);
        inform("[%zu/%zu] %s: %.1fs", rep.completed, rep.total,
               spec.label().c_str(), rep.seconds);
    });
    std::vector<RunResult> ran = pool.run();
    for (std::size_t j = 0; j < ran.size(); ++j)
        sweep.results[cell_of[j]] = std::move(ran[j]);
    return sweep;
}

} // namespace farm
} // namespace cnsim
