#include "common/stats.hh"

#include <sstream>

namespace cnsim
{

double
RunningStats::ci95HalfWidth() const
{
    if (_n < 2)
        return 0.0;
    // Two-sided 97.5% Student-t quantiles for df = n-1. Sampled runs
    // use a handful of measurement windows, squarely in the small-df
    // regime; beyond df = 30 the normal quantile is within 2%.
    static const double t975[] = {
        0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    std::uint64_t df = _n - 1;
    double t = df <= 30 ? t975[df] : 1.96;
    return t * stderrMean();
}

void
StatGroup::addCounter(const std::string &n, Counter *c, std::string desc)
{
    cnsim_assert(c != nullptr, "null counter '%s'", n.c_str());
    counters.set(n, c, std::move(desc));
}

void
StatGroup::addDistribution(const std::string &n, Distribution *d,
                           std::string desc)
{
    cnsim_assert(d != nullptr, "null distribution '%s'", n.c_str());
    dists.set(n, d, std::move(desc));
}

const Counter &
StatGroup::counter(const std::string &n) const
{
    const auto *e = counters.find(n);
    if (!e)
        panic("no counter '%s' in group '%s'", n.c_str(), _name.c_str());
    return *e->stat;
}

const Distribution &
StatGroup::distribution(const std::string &n) const
{
    const auto *e = dists.find(n);
    if (!e)
        panic("no distribution '%s' in group '%s'", n.c_str(), _name.c_str());
    return *e->stat;
}

void
StatGroup::resetAll()
{
    for (auto &e : counters.v)
        e.stat->reset();
    for (auto &e : dists.v)
        e.stat->reset();
}

std::string
StatGroup::dumpCsv() const
{
    std::ostringstream os;
    os << "stat,value\n";
    for (const auto &e : counters.v) {
        os << _name << "." << e.name << "," << e.stat->value() << "\n";
    }
    for (const auto &e : dists.v) {
        const Distribution &d = *e.stat;
        os << _name << "." << e.name << ".samples," << d.samples()
           << "\n";
        os << _name << "." << e.name << ".mean,"
           << strfmt("%.6f", d.mean()) << "\n";
        os << _name << "." << e.name << ".underflow," << d.underflow()
           << "\n";
        os << _name << "." << e.name << ".overflow," << d.overflow()
           << "\n";
    }
    return os.str();
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto &e : counters.v) {
        os << strfmt("%-48s %20llu", (_name + "." + e.name).c_str(),
                     static_cast<unsigned long long>(e.stat->value()));
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << "\n";
    }
    for (const auto &e : dists.v) {
        const Distribution &d = *e.stat;
        os << strfmt("%-48s samples=%llu mean=%.3f underflow=%llu "
                     "overflow=%llu",
                     (_name + "." + e.name).c_str(),
                     static_cast<unsigned long long>(d.samples()), d.mean(),
                     static_cast<unsigned long long>(d.underflow()),
                     static_cast<unsigned long long>(d.overflow()));
        if (!e.desc.empty())
            os << "  # " << e.desc;
        os << "\n";
    }
    return os.str();
}

} // namespace cnsim
