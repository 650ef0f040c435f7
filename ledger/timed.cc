/**
 * @file
 * The timed pass: repeats the workload's whole grid -- stream set-up,
 * warm-up and measurement of every cell -- until the run's time is up,
 * with tracing off, and reports medians over the repetitions.
 */

#include <sys/resource.h>

#include <cstdio>

#include "ledger.hh"
#include "obs/binlog.hh"

namespace ledger
{

using namespace cnsim;

namespace
{

/** Peak resident memory of this process, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<std::uint64_t>
digests(const Sweep &sw)
{
    std::vector<std::uint64_t> d;
    for (const CellRun &c : sw.cells)
        d.push_back(digest(c.result));
    return d;
}

} // namespace

Metrics
timedPass(const Options &opt, Tally &tally)
{
    const Workload &w = *opt.workload;
    RunDir dir(opt.run_dir);
    const std::vector<Cell> cells = cellsOf(w, true);
    std::vector<double> wall, setup, mips, eps, raw_wall;
    std::vector<std::uint64_t> first;
    std::string kept_binlog;
    std::uint64_t kept_events = 0;
    HostSpeed host(w.workers);

    double deadline = nowSeconds() + opt.seconds;
    do {
        const bool first_rep = first.empty();
        host.start();
        Streams streams = materialize(w, opt.seed);
        const double setup_s = host.stop();
        double rep_raw = host.rawSeconds();
        host.start();
        Sweep sw = runSweep(w, cells, streams, opt.seed, w.workers, dir,
                            &host,
                            first_rep && w.instr == Instr::Obs ? 0 : -1,
                            &kept_binlog);
        const double rep_wall = setup_s + host.stop();
        rep_raw += host.rawSeconds();

        std::uint64_t instr = 0, events = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const RunResult &r = sw.cells[i].result;
            checkCell(w, cells[i], r, tally);
            instr += totalInstructions(r);
            events += r.events_executed;
        }
        std::vector<std::uint64_t> d = digests(sw);
        if (first_rep) {
            first = d;
            kept_events = sw.cells[0].result.trace_events;
            checkConclusions(w, cells, sw.cells, tally);
        } else {
            tally.check(d == first, "repetition reproduces every cell");
        }
        raw_wall.push_back(rep_raw);
        wall.push_back(rep_wall);
        setup.push_back(setup_s);
        mips.push_back(static_cast<double>(instr) / rep_wall / 1e6);
        eps.push_back(static_cast<double>(events) / rep_wall);
    } while (nowSeconds() < deadline);
    const double rss = peakRssMb();
    std::printf("raw wall_s %.6g s (median of %zu, not host-normalized); "
                "reference median %.4g s vs nominal %.4g s over %zu "
                "samples\n",
                median(raw_wall), raw_wall.size(), median(host.samples()),
                HostSpeed::nominal_s, host.samples().size());
    std::printf("samples raw_wall_s");
    for (double v : raw_wall)
        std::printf(" %.4f", v);
    std::printf("\nsamples wall_s");
    for (double v : wall)
        std::printf(" %.4f", v);
    std::printf("\n");

    // Untimed integrity checks, once per invocation.
    if (w.workers > 1) {
        Streams streams = materialize(w, opt.seed);
        Sweep serial = runSweep(w, cells, streams, opt.seed, 1, dir);
        tally.check(digests(serial) == first,
                    "1-worker and N-worker sweeps give identical cells");
    }
    if (!kept_binlog.empty()) {
        obs::BinlogData data;
        std::string error;
        bool ok = obs::readBinlog(kept_binlog, data, &error);
        tally.check(ok && data.records.size() == kept_events &&
                        data.dropped == 0,
                    "binlog read-back: " +
                        (ok ? std::to_string(data.records.size()) +
                                  " records vs " +
                                  std::to_string(kept_events)
                            : error));
        RunDir::remove(kept_binlog);
    }

    return Metrics{
        {"wall_s", medianOf(wall, "s")},
        {"setup_s", medianOf(setup, "s")},
        {"sim_mips", medianOf(mips, "Minstr/s")},
        {"events_per_s", medianOf(eps, "1/s")},
        {"peak_rss_mb", medianOf({rss}, "MB")},
    };
}

} // namespace ledger
