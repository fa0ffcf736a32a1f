/**
 * @file
 * Capped, jittered, resettable exponential backoff.
 *
 * Pure-exponential backoff has two failure modes at fleet scale. First,
 * workers that fail together retry together: after a shared-cause crash
 * (disk full, OOM kill) every worker sleeps the same 2^n seconds and the
 * whole fleet slams the machine again in lockstep -- a restart storm.
 * Deterministic per-point jitter decorrelates them without introducing
 * nondeterminism (the delay is a pure function of (noise, attempt), so a
 * replayed campaign schedules identically). Second, a delay that only
 * ever doubles punishes long-running campaigns whose rare crashes are
 * separated by hours of honest progress, so the campaign executor only
 * charges counted failures to the attempt number.
 */

#ifndef NORD_CAMPAIGN_BACKOFF_HH
#define NORD_CAMPAIGN_BACKOFF_HH

#include <algorithm>
#include <cstdint>

#include "common/fnv.hh"

namespace nord {
namespace campaign {

/** Shape of one backoff schedule. */
struct BackoffPolicy
{
    double initialSec = 0.25;    ///< delay before the first retry
    double maxSec = 30.0;        ///< hard cap; doubling stops here
    double jitterFraction = 0.5; ///< delay drawn from [(1-j)*d, d]
};

/**
 * Delay in seconds before retry number @p attempt (1-based). The base
 * delay doubles per attempt up to policy.maxSec; the jitter multiplier is
 * a deterministic function of (@p noise, @p attempt), so distinct points
 * desynchronize while a resumed campaign reproduces its schedule.
 */
inline double
backoffDelaySec(const BackoffPolicy &policy, int attempt,
                std::uint64_t noise)
{
    double delay = policy.initialSec;
    for (int i = 1; i < attempt && delay < policy.maxSec; ++i)
        delay *= 2.0;
    delay = std::min(delay, policy.maxSec);

    // FNV-1a over the little-endian bytes of (noise, attempt).
    const std::uint64_t words[2] = {noise,
                                    static_cast<std::uint64_t>(attempt)};
    const std::uint64_t h = fnv1aFold(kFnvOffset, words, sizeof(words));
    // 53 high-entropy bits -> uniform double in [0, 1).
    const double u =
        static_cast<double>(h >> 11) *
        (1.0 / 9007199254740992.0 /* 2^53 */);
    const double jitter =
        std::clamp(policy.jitterFraction, 0.0, 1.0) * u;
    return delay * (1.0 - jitter);
}

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_BACKOFF_HH
