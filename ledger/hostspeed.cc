/**
 * @file
 * Host-speed reference for normalizing ledger timings.
 *
 * On a shared host the same simulation can run 1.3-1.8x slower for
 * minutes at a time, and the process's CPU time slows with it, so
 * medians over one run do not survive the next. The ledger therefore
 * times a fixed piece of reference work at the edges of every timed
 * interval, and every ~0.25 s inside serial ones, and scales each
 * stretch of wall time
 * between two samples by how much slower than nominal the reference ran
 * at its ends. The reference is the geometric mean of two kernels:
 * random read-modify-writes over an 8 MB table (cache and memory
 * pressure) and a dependent integer loop (core pressure). Measured on
 * the development host, that pair tracked the simulator's slow phases
 * best of the kernels tried (13 s window medians: raw wall +-14%,
 * normalized +-2.6%). A grid on N workers samples on N threads at once.
 * The reference lives here, not in the simulator, so no change to cnsim
 * can move it.
 */

#include <cmath>
#include <thread>

#include "ledger.hh"

namespace ledger
{

namespace
{

constexpr std::size_t table_words = std::size_t{1} << 20;  // 8 MB
constexpr int table_steps = 1'500'000;
constexpr int alu_steps = 16'000'000;

/** Shortest stretch between two samples inside an interval. At 0.4 s
 *  audit7-oltp's run-to-run spread was 8.5%; at 0.25 s it was 6.5%. */
constexpr double min_gap_s = 0.25;

/** One pass of the reference work on @p table; returns seconds. */
double
referencePass(std::vector<std::uint64_t> &table)
{
    double t0 = nowSeconds();
    std::uint64_t x = 0x9e3779b97f4a7c15ull, mix = 0;
    for (int i = 0; i < table_steps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &slot = table[x & (table_words - 1)];
        slot += x;
        mix += slot >> 3;
        if (mix & 1)
            mix ^= x;
    }
    double t1 = nowSeconds();
    std::uint64_t y = 1;
    for (int i = 0; i < alu_steps; ++i) {
        y = y * 6364136223846793005ull + 1442695040888963407ull;
        mix += (y >> 33) % 7;
        if (mix & 8)
            mix ^= y >> 11;
    }
    double t2 = nowSeconds();
    table[0] += mix;
    return std::sqrt((t1 - t0) * (t2 - t1));
}

} // namespace

HostSpeed::HostSpeed(unsigned threads)
    : tables(threads ? threads : 1,
             std::vector<std::uint64_t>(table_words, 1))
{
    sample();
}

void
HostSpeed::sample()
{
    std::vector<double> t(tables.size());
    std::vector<std::thread> helpers;
    for (std::size_t i = 1; i < tables.size(); ++i)
        helpers.emplace_back([&, i] { t[i] = referencePass(tables[i]); });
    t[0] = referencePass(tables[0]);
    for (std::thread &h : helpers)
        h.join();
    double sum = 0.0;
    for (double x : t)
        sum += x;
    last_ref = sum / static_cast<double>(t.size());
    references.push_back(last_ref);
    last_at = nowSeconds();
}

void
HostSpeed::start()
{
    // A sample taken just now (by the previous stop()) opens this
    // interval too.
    if (nowSeconds() - last_at > 0.001)
        sample();
    norm = 0.0;
    raw = 0.0;
    seg_start = nowSeconds();
}

void
HostSpeed::closeSegment()
{
    double d = nowSeconds() - seg_start;
    double before = last_ref;
    sample();
    raw += d;
    norm += d * nominal_s / (0.5 * (before + last_ref));
    seg_start = nowSeconds();
}

void
HostSpeed::poll()
{
    if (nowSeconds() - last_at >= min_gap_s)
        closeSegment();
}

double
HostSpeed::stop()
{
    closeSegment();
    return norm;
}

} // namespace ledger
