/**
 * @file
 * A small statistics package for the simulator.
 *
 * Components register named statistics into a StatGroup; the group can
 * be dumped as aligned text or CSV, queried by name, and reset between
 * the warm-up and measurement phases of a run.
 *
 * Supported kinds:
 *  - Counter: a monotonically increasing event count.
 *  - Distribution: bucketed counts over a fixed integer range with
 *    underflow/overflow buckets (used for, e.g., reuse-count histograms).
 */

#ifndef CNSIM_COMMON_STATS_HH
#define CNSIM_COMMON_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace cnsim
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Increment by @p n (default 1). */
    void inc(std::uint64_t n = 1) { _value += n; }

    /** @return the current count. */
    std::uint64_t value() const { return _value; }

    /** Reset to zero (end of warm-up). */
    void reset() { _value = 0; }

    /** Overwrite the count (checkpoint restore only). */
    void restore(std::uint64_t v) { _value = v; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Bucketed counts over [min, max] with one bucket per @p bucket_size
 * values, plus underflow/overflow buckets for samples outside the
 * configured range.
 */
class Distribution
{
  public:
    Distribution() = default;

    /** Configure the bucket layout; must be called before sampling. */
    void
    init(std::uint64_t min, std::uint64_t max, std::uint64_t bucket_size)
    {
        cnsim_assert(bucket_size > 0 && max >= min, "bad distribution shape");
        _min = min;
        _max = max;
        _bucket = bucket_size;
        buckets.assign((max - min) / bucket_size + 1, 0);
        _underflow = 0;
        _overflow = 0;
        _samples = 0;
        _sum = 0;
    }

    /** Record one sample. */
    void
    sample(std::uint64_t v)
    {
        ++_samples;
        _sum += v;
        if (v < _min)
            ++_underflow;
        else if (v > _max)
            ++_overflow;
        else
            ++buckets[(v - _min) / _bucket];
    }

    std::uint64_t samples() const { return _samples; }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    double mean() const
    {
        return _samples ? static_cast<double>(_sum) / _samples : 0.0;
    }

    /** @return the count of samples in the bucket containing @p v. */
    std::uint64_t
    bucketCount(std::uint64_t v) const
    {
        cnsim_assert(v >= _min && v <= _max, "bucket query out of range");
        return buckets[(v - _min) / _bucket];
    }

    /**
     * @return total samples in the inclusive value range [lo, hi],
     * clamped to the configured [min, max]; underflow/overflow samples
     * are never included.
     */
    std::uint64_t
    rangeCount(std::uint64_t lo, std::uint64_t hi) const
    {
        lo = std::max(lo, _min);
        hi = std::min(hi, _max);
        if (lo > hi)
            return 0;
        std::uint64_t total = 0;
        for (std::uint64_t b = (lo - _min) / _bucket;
             b <= (hi - _min) / _bucket; ++b)
            total += buckets[b];
        return total;
    }

    void
    reset()
    {
        for (auto &b : buckets)
            b = 0;
        _underflow = 0;
        _overflow = 0;
        _samples = 0;
        _sum = 0;
    }

  private:
    std::uint64_t _min = 0;
    std::uint64_t _max = 0;
    std::uint64_t _bucket = 1;
    std::vector<std::uint64_t> buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _samples = 0;
    std::uint64_t _sum = 0;
};

/**
 * Numerically stable running mean/variance over a stream of doubles
 * (Welford's online algorithm). The textbook sum_sq/n - mean^2 form
 * cancels catastrophically for tightly clustered values -- exactly the
 * regime of perturbed-IPC variability runs -- and can even go
 * negative; Welford's update cannot.
 */
class RunningStats
{
  public:
    RunningStats() = default;

    /** Accumulate one observation. */
    void
    push(double x)
    {
        ++_n;
        if (_n == 1) {
            _min = _max = x;
        } else {
            _min = std::min(_min, x);
            _max = std::max(_max, x);
        }
        double delta = x - _mean;
        _mean += delta / _n;
        _m2 += delta * (x - _mean);
    }

    std::uint64_t count() const { return _n; }
    double mean() const { return _mean; }
    double min() const { return _min; }
    double max() const { return _max; }

    /** Sample (n-1) variance; 0 for fewer than two observations. */
    double
    sampleVariance() const
    {
        return _n > 1 ? std::max(_m2, 0.0) / static_cast<double>(_n - 1)
                      : 0.0;
    }

    /** Sample standard deviation. */
    double stddev() const { return std::sqrt(sampleVariance()); }

    /** Standard error of the mean; 0 for fewer than two observations. */
    double
    stderrMean() const
    {
        return _n > 1 ? stddev() / std::sqrt(static_cast<double>(_n)) : 0.0;
    }

    /**
     * Half-width of the 95% confidence interval on the mean, using the
     * Student-t distribution with n-1 degrees of freedom (the window
     * count in sampled runs is small, so the normal approximation
     * understates the interval). 0 for fewer than two observations.
     */
    double ci95HalfWidth() const;

    void
    reset()
    {
        _n = 0;
        _mean = 0.0;
        _m2 = 0.0;
        _min = 0.0;
        _max = 0.0;
    }

  private:
    std::uint64_t _n = 0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * A named collection of statistics owned by one simulated component.
 *
 * The group does not own the stat objects; components embed their stats
 * as members and register pointers, so the hot-path update is a plain
 * member increment.
 */
class StatGroup
{
  public:
    /** Create a group with a dotted-path name, e.g. "system.l2". */
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    void addCounter(const std::string &n, Counter *c, std::string desc = "");
    void addDistribution(const std::string &n, Distribution *d,
                         std::string desc = "");

    /** Look up a registered counter by name; panics if absent. */
    const Counter &counter(const std::string &n) const;
    /** Look up a registered distribution by name; panics if absent. */
    const Distribution &distribution(const std::string &n) const;

    /** Visit every registered counter in name order. */
    void
    forEachCounter(
        const std::function<void(const std::string &, const Counter *)>
            &fn) const
    {
        for (const auto &e : counters.v)
            fn(e.name, e.stat);
    }

    /** Reset every registered statistic (end of warm-up). */
    void resetAll();

    /** Render all statistics as aligned "name value  # desc" text. */
    std::string dump() const;

    /**
     * Render all statistics as CSV ("name,value" rows with a header),
     * for spreadsheet/plotting pipelines. Distributions emit their
     * sample count, mean, and overflow as separate rows.
     */
    std::string dumpCsv() const;

    const std::string &name() const { return _name; }

  private:
    /**
     * Name-sorted flat vector of registered stats. Registration is
     * cold; name lookups binary-search; iteration stays in name order
     * so dumps are deterministic -- all without the per-node
     * allocations and pointer chasing of std::map.
     */
    template <typename T>
    struct NamedTable
    {
        struct Entry
        {
            std::string name;
            T *stat;
            std::string desc;
        };
        std::vector<Entry> v;

        void
        set(const std::string &n, T *s, std::string desc)
        {
            auto it = lowerBound(n);
            if (it != v.end() && it->name == n) {
                it->stat = s;
                it->desc = std::move(desc);
            } else {
                v.insert(it, Entry{n, s, std::move(desc)});
            }
        }

        const Entry *
        find(const std::string &n) const
        {
            auto it = const_cast<NamedTable *>(this)->lowerBound(n);
            return it != v.end() && it->name == n ? &*it : nullptr;
        }

        typename std::vector<Entry>::iterator
        lowerBound(const std::string &n)
        {
            return std::lower_bound(
                v.begin(), v.end(), n,
                [](const Entry &e, const std::string &key) {
                    return e.name < key;
                });
        }
    };

    std::string _name;
    NamedTable<Counter> counters;
    NamedTable<Distribution> dists;
};

} // namespace cnsim

#endif // CNSIM_COMMON_STATS_HH
