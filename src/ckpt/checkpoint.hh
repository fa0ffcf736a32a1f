/**
 * @file
 * Versioned on-disk checkpoint container.
 *
 * A checkpoint file is a fixed header followed by the StateSerializer
 * payload:
 *
 *   magic    u32  "NRDC"
 *   version  u32  kCheckpointVersion (readers reject any other value)
 *   configFp u64  FNV-1a fingerprint of the producing NocConfig
 *   cycle    u64  simulation cycle the state was captured at
 *   user[4]  u64  campaign-defined metadata (phase, run index, ...)
 *   paySize  u64  payload length in bytes
 *   payHash  u64  FNV-1a of the payload bytes (detects truncation/rot)
 *   metaHash u64  FNV-1a of version..payHash (detects header bit rot)
 *   payload  u8[paySize]
 *
 * Files are written to "<path>.tmp" and atomically renamed into place, so
 * a crash mid-write can never destroy the previous good checkpoint -- the
 * invariant the resilient campaign runner's restore path depends on.
 * Readers validate magic, version, header digest, size and payload hash
 * before returning any bytes; a single flipped bit anywhere in the file
 * is rejected (the metaHash covers the fields -- cycle, user metadata,
 * paySize -- that the payload hash cannot see, and is checked before
 * paySize is trusted for an allocation). Every failure is reported as a
 * recoverable error string, never a panic.
 */

#ifndef NORD_CKPT_CHECKPOINT_HH
#define NORD_CKPT_CHECKPOINT_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace nord {

/**
 * Current checkpoint container format version
 * (2: header digest; 3: transition-based idle-run stats layout;
 * 4: fault-injector section without a schedule cursor or stuck/dead
 * tallies).
 */
inline constexpr std::uint32_t kCheckpointVersion = 4;

/** File magic ("NRDC" little-endian). */
inline constexpr std::uint32_t kCheckpointMagic = 0x4344524eu;

/** Header metadata of one checkpoint file (see file comment). */
struct CheckpointMeta
{
    std::uint32_t version = kCheckpointVersion;
    std::uint64_t configFingerprint = 0;
    Cycle cycle = 0;
    std::array<std::uint64_t, 4> user{};  ///< campaign-defined
};

/**
 * Atomically write @p payload under @p meta to @p path (via "<path>.tmp" +
 * rename). Returns false and sets @p err on I/O failure.
 */
bool writeCheckpointFile(const std::string &path, const CheckpointMeta &meta,
                         const std::vector<std::uint8_t> &payload,
                         std::string *err = nullptr);

/**
 * Read and validate the checkpoint at @p path. On success fills @p meta and
 * @p payload; on any failure (missing file, bad magic, version mismatch,
 * truncation, payload-hash mismatch) returns false and sets @p err.
 */
bool readCheckpointFile(const std::string &path, CheckpointMeta *meta,
                        std::vector<std::uint8_t> *payload,
                        std::string *err = nullptr);

/**
 * fsync the directory containing @p path. An atomic temp+fsync+rename
 * sequence is only durable once the DIRECTORY entry itself is on disk:
 * the file's fsync persists the bytes, but the rename lives in the parent
 * directory's data, and a power loss right after rename() can otherwise
 * resurface the old name (or no name at all) on the next mount. Every
 * rename in the durability layers (checkpoints, campaign reports) must
 * be followed by this call; nord-lint's unchecked-io rule
 * enforces it for src/ckpt/ and src/campaign/.
 *
 * Returns false and sets @p err when the directory cannot be opened or
 * synced. A no-op (true) on platforms without directory fsync semantics.
 */
bool fsyncParentDir(const std::string &path, std::string *err = nullptr);

/**
 * Atomically replace @p path with @p head followed by @p body: write
 * "<path>.tmp", fsync, rename, then fsync the parent directory so the
 * rename itself is durable. The one durable writer for checkpoints and
 * campaign results and reports. Returns false and sets
 * @p err on any I/O failure; the previous file, if any, is untouched in
 * that case.
 */
bool atomicWriteFile(const std::string &path, std::string_view head,
                     std::string_view body = {},
                     std::string *err = nullptr);

/** FNV-1a 64-bit digest of a byte buffer. */
std::uint64_t fnv1a(const std::vector<std::uint8_t> &bytes);

}  // namespace nord

#endif  // NORD_CKPT_CHECKPOINT_HH
