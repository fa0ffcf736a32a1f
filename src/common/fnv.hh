/**
 * @file
 * FNV-1a 64-bit hashing: the one fold behind state hashes, checkpoint
 * digests, config and grid fingerprints, and backoff jitter.
 *
 * Every persisted digest depends on these exact constants and byte
 * order, so a change here invalidates checkpoints and campaign grid
 * fingerprints.
 */

#ifndef NORD_COMMON_FNV_HH
#define NORD_COMMON_FNV_HH

#include <cstddef>
#include <cstdint>

namespace nord {

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Fold @p n raw bytes at @p p into a running FNV-1a digest @p h. */
inline std::uint64_t
fnv1aFold(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *bytes = static_cast<const std::uint8_t *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

}  // namespace nord

#endif  // NORD_COMMON_FNV_HH
