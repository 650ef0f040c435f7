#include "common/logging.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include "common/thread_annotations.hh"

namespace cnsim
{

namespace
{
// The quiet flag is read concurrently by parallel experiment workers
// (sim/parallel_runner.cc), so it must be atomic. Each message below is
// emitted as one fprintf call, which stdio serializes per stream, so
// concurrent workers never interleave partial lines.
std::atomic<bool> quiet_flag{false};

/** Keys warnOnce() has already emitted, shared by every thread. */
struct WarnOnceRegistry
{
    Mutex mu;
    std::set<std::string> seen CNSIM_GUARDED_BY(mu);
};

WarnOnceRegistry &
warnOnceRegistry()
{
    static WarnOnceRegistry r;
    return r;
}
} // namespace

std::string
vstrfmt(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (n < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strfmt(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrfmt(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

void
finishStdout()
{
    // A write that failed earlier leaves its bytes buffered, so the
    // flush fails again and sets errno; the error flag catches a failure
    // whose errno is gone.
    errno = 0;
    const bool flushed = std::fflush(stdout) == 0;
    const int err = errno;
    if (!flushed || std::ferror(stdout))
        fatal("cannot write standard output: %s",
              err ? std::strerror(err) : "write error");
}

void
warn(const char *fmt, ...)
{
    if (quiet_flag.load(std::memory_order_relaxed))
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quiet_flag.load(std::memory_order_relaxed))
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

void
warnOnce(const std::string &key, const char *fmt, ...)
{
    {
        WarnOnceRegistry &r = warnOnceRegistry();
        MutexLock lock(r.mu);
        if (!r.seen.insert(key).second)
            return;
    }
    if (quiet_flag.load(std::memory_order_relaxed))
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string s = vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
setQuiet(bool quiet)
{
    quiet_flag.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return quiet_flag.load(std::memory_order_relaxed);
}

std::uint64_t
parseUnsignedFlag(const std::string &flag, const char *text,
                  std::uint64_t lo, std::uint64_t hi, int base)
{
    // strtoull skips leading blanks and negates a leading '-', so the
    // first character must already be a digit.
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, base);
    if (std::isdigit(static_cast<unsigned char>(text[0])) &&
        *end == '\0' && errno != ERANGE && v >= lo && v <= hi)
        return v;
    if (hi == UINT64_MAX)
        fatal("%s needs an integer >= %llu, got '%s'", flag.c_str(),
              static_cast<unsigned long long>(lo), text);
    fatal("%s needs an integer in %llu..%llu, got '%s'", flag.c_str(),
          static_cast<unsigned long long>(lo),
          static_cast<unsigned long long>(hi), text);
}

} // namespace cnsim
