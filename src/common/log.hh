/**
 * @file
 * Minimal logging / error-reporting helpers in the gem5 spirit.
 *
 * panic()  - a simulator bug: something that should never happen. Aborts.
 * fatal()  - a user error (bad configuration). Exits with status 1.
 * warn()   - questionable but survivable condition.
 * inform() - status message.
 */

#ifndef NORD_COMMON_LOG_HH
#define NORD_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace nord {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** printf-style formatting into a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace detail

/**
 * The stream diagnostics go to (stderr). Components outside common/ must
 * route ad-hoc diagnostic output through this accessor rather than
 * naming stderr directly, so every side channel is enumerable (nord-lint
 * enforces this).
 */
std::FILE *diagStream();

/**
 * Flush stdout and say whether everything printed there was written. A
 * write error that stdio would otherwise swallow at exit (a full disk, a
 * closed pipe) is diagnosed on diagStream().
 */
bool flushStdout();

/** Abort on simulator-internal invariant violation. */
#define NORD_PANIC(...) \
    ::nord::detail::panicImpl(__FILE__, __LINE__, \
        ::nord::detail::formatString(__VA_ARGS__))

/** Exit on user configuration error. */
#define NORD_FATAL(...) \
    ::nord::detail::fatalImpl(__FILE__, __LINE__, \
        ::nord::detail::formatString(__VA_ARGS__))

/** Non-fatal warning. */
#define NORD_WARN(...) \
    ::nord::detail::warnImpl(::nord::detail::formatString(__VA_ARGS__))

/** Informational message. */
#define NORD_INFORM(...) \
    ::nord::detail::informImpl(::nord::detail::formatString(__VA_ARGS__))

/**
 * Assert an invariant, with formatted context on failure. Always on, in
 * every build type: use it for protocol-level properties whose violation
 * must never go unnoticed (flow-control overflow, power-gating safety).
 */
#define NORD_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            NORD_PANIC("assertion '%s' failed: %s", #cond, \
                ::nord::detail::formatString(__VA_ARGS__).c_str()); \
        } \
    } while (0)

/**
 * Debug-only assertion tier for dense hot-loop checks (per-flit bounds,
 * redundant state checks already covered by the InvariantAuditor). Compiles
 * to nothing under NDEBUG (Release) while still type-checking both the
 * condition and the message arguments.
 */
#ifdef NDEBUG
#define NORD_DCHECK(cond, ...) \
    do { \
        if (false && !(cond)) { \
            NORD_PANIC("dcheck '%s' failed: %s", #cond, \
                ::nord::detail::formatString(__VA_ARGS__).c_str()); \
        } \
    } while (0)
#else
#define NORD_DCHECK(cond, ...) NORD_ASSERT(cond, __VA_ARGS__)
#endif

}  // namespace nord

#endif  // NORD_COMMON_LOG_HH
