/**
 * @file
 * Error reporting and status messages, in the gem5 tradition.
 *
 * panic()  -- an internal simulator invariant was violated (a cnsim bug);
 *             aborts so the failure can be debugged.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, impossible parameters); exits cleanly.
 * warn()   -- something is modelled approximately; simulation continues.
 * inform() -- normal operating status.
 *
 * All functions take a printf-style format string.
 *
 * Thread-safety: every function here may be called from parallel
 * experiment workers. The quiet flag is atomic, and each message is
 * emitted as a single stdio call, so lines never interleave.
 */

#ifndef CNSIM_COMMON_LOGGING_HH
#define CNSIM_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <string>

namespace cnsim
{

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, std::va_list args);

/**
 * Report an internal invariant violation and abort.
 * Use for conditions that indicate a bug in cnsim itself.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user/configuration error and exit(1).
 * Use for conditions that are the user's fault, not a simulator bug.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a condition that is modelled imperfectly but survivable. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * warn(), deduplicated process-wide by @p key: the first caller wins,
 * every later call with the same key is silent. For conditions every
 * parallel sweep worker hits identically (a wrapped replay trace, an
 * approximated model), where per-worker repetition is pure noise.
 */
void warnOnce(const std::string &key, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Flush stdout and fatal() with the errno text if any write to it failed
 * (a full disk, say). A tool calls this as main() returns, so results it
 * printed but could not deliver never exit 0.
 */
void finishStdout();

/** Globally silence inform()/warn() output (used by tests and benches). */
void setQuiet(bool quiet);

/** @return true when inform()/warn() output is suppressed. */
bool quiet();

/**
 * Parse the value @p text of command-line option @p flag: the whole
 * string must be an unsigned integer in [@p lo, @p hi] (decimal, or C
 * notation such as 0x1f40 when @p base is 0), else fatal() naming the
 * option. strtoull alone stops at the first stray character, reading
 * "1e5" as 1 and "-1" as 2^64 - 1.
 */
std::uint64_t parseUnsignedFlag(const std::string &flag, const char *text,
                                std::uint64_t lo = 0,
                                std::uint64_t hi = UINT64_MAX,
                                int base = 10);

/**
 * Assert a simulator invariant; on failure, panic with location info.
 * Active in all build types: the invariants guard protocol correctness,
 * and the simulator is fast enough to keep them on.
 */
#define cnsim_assert(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::cnsim::panic("assertion '%s' failed at %s:%d: %s", #cond,     \
                           __FILE__, __LINE__,                              \
                           ::cnsim::strfmt(__VA_ARGS__).c_str());           \
        }                                                                   \
    } while (0)

/**
 * Mark a code path the author has proven dead (typically after an
 * exhaustive switch over an enum). Panics loudly if ever reached --
 * e.g. when a new enum value is added without extending the switch --
 * instead of silently returning a masking fallback value.
 */
#define cnsim_unreachable(what)                                             \
    ::cnsim::panic("unreachable %s at %s:%d", (what), __FILE__, __LINE__)

} // namespace cnsim

#endif // CNSIM_COMMON_LOGGING_HH
