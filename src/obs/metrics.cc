#include "obs/metrics.hh"

#include <cinttypes>

#include "common/logging.hh"
#include "obs/binlog.hh"

namespace cnsim
{
namespace obs
{

void
MetricsRegistry::addCounter(const std::string &path, const Counter *c)
{
    cnsim_assert(indexOf(path) < 0, "duplicate metric path '%s'",
                 path.c_str());
    paths.push_back(path);
    samplers.push_back(
        [c]() { return static_cast<double>(c->value()); });
}

void
MetricsRegistry::addGauge(const std::string &path,
                          std::function<double()> fn)
{
    cnsim_assert(indexOf(path) < 0, "duplicate metric path '%s'",
                 path.c_str());
    paths.push_back(path);
    samplers.push_back(std::move(fn));
}

void
MetricsRegistry::importStatGroup(const StatGroup &group,
                                 const std::string &prefix)
{
    group.forEachCounter([&](const std::string &n, const Counter *c) {
        addCounter(prefix + n, c);
    });
}

void
MetricsRegistry::tick(Tick now)
{
    if (_interval == 0)
        return;
    if (have_snapshot && now < last_snapshot + _interval)
        return;
    snapshot(now);
}

void
MetricsRegistry::snapshot(Tick now)
{
    if (have_snapshot && !rows.empty() && rows.back().tick == now)
        return;
    Row row;
    row.tick = now;
    row.values.reserve(samplers.size());
    for (const auto &fn : samplers)
        row.values.push_back(fn());
    if (binlog && binlog->active()) {
        for (std::size_t i = 0; i < row.values.size(); ++i)
            binlog->appendMetric(now, static_cast<std::uint32_t>(i),
                                 row.values[i]);
    }
    rows.push_back(std::move(row));
    last_snapshot = now;
    have_snapshot = true;
}

int
MetricsRegistry::indexOf(const std::string &path) const
{
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (paths[i] == path)
            return static_cast<int>(i);
    }
    return -1;
}

double
MetricsRegistry::latest(const std::string &path) const
{
    int idx = indexOf(path);
    cnsim_assert(idx >= 0, "unknown metric path '%s'", path.c_str());
    if (!rows.empty())
        return rows.back().values[idx];
    return samplers[idx]();
}

double
MetricsRegistry::total(const std::string &prefix) const
{
    double sum = 0.0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (paths[i] == prefix ||
            (paths[i].size() > prefix.size() + 1 &&
             paths[i].compare(0, prefix.size(), prefix) == 0 &&
             paths[i][prefix.size()] == '.')) {
            sum += rows.empty() ? samplers[i]() : rows.back().values[i];
        }
    }
    return sum;
}

std::string
MetricsRegistry::csv() const
{
    std::string s = "tick";
    for (const auto &p : paths)
        s += "," + p;
    s += "\n";
    for (const Row &row : rows) {
        s += strfmt("%" PRIu64, static_cast<std::uint64_t>(row.tick));
        for (double v : row.values) {
            if (v >= 0 &&
                v == static_cast<double>(static_cast<std::uint64_t>(v)))
                s += strfmt(",%" PRIu64, static_cast<std::uint64_t>(v));
            else
                s += strfmt(",%g", v);
        }
        s += "\n";
    }
    return s;
}

} // namespace obs
} // namespace cnsim
