/**
 * @file
 * Per-shard lease files with monotonic fencing tokens: the mutual
 * exclusion layer of the multi-executor campaign engine.
 *
 * Every shard of a campaign grid has one lease file,
 * "<leases>/shard-<k>.lease", holding a single JSON line:
 *
 *   {"shard":k,"token":T,"owner":"<execId>","beat":B}
 *
 * The protocol is built ONLY on atomic filesystem primitives that hold
 * across machines on a shared filesystem -- link(2) for the initial
 * exclusive claim and rename(2) for every update -- never on flock,
 * whose semantics over NFS and friends are exactly the kind of
 * dependency a fleet must not have.
 *
 *  - CLAIM (fresh): write a unique temp file, link(2) it to the lease
 *    name. link fails with EEXIST if anyone else got there first; on
 *    success the claimer owns token 1. No settle delay is needed --
 *    link is exclusive by construction.
 *  - RENEW (heartbeat): the owner re-reads the lease, verifies it still
 *    names (owner, token), then atomically renames an incremented beat
 *    over it. A renewal that observes a different owner or token means
 *    the lease was stolen: the executor FENCES.
 *  - STEAL: an observer watches (token, beat); only after the pair has
 *    been unchanged for graceSec of the OBSERVER'S monotonic clock (no
 *    cross-machine clock comparison anywhere) may it rename a
 *    token+1 lease over the file, wait settleSec, and read back. If the
 *    read-back shows its own id it holds the shard; otherwise it lost a
 *    steal race and simply resumes observing.
 *  - RELEASE: the owner renames the lease with owner "" -- a released
 *    lease is immediately stealable, no grace wait, and the token keeps
 *    counting from where it was.
 *
 * Lease files are never deleted: the token sequence on each shard is
 * monotonic for the lifetime of the campaign directory, which is what
 * makes the token usable as a fencing token at result-commit time.
 *
 * SELF-FENCING is deliberately more conservative than stealing: an
 * owner considers its lease lost as soon as it cannot prove a renewal
 * younger than graceSec/2 (writable() returns false and the manager
 * latches fenced()), while a thief must wait a full graceSec of
 * observed silence. The 2x margin means a suspended executor (SIGSTOP,
 * GC pause, NFS stall) always classifies itself dead BEFORE anyone
 * else may take the shard -- so by the time a new owner commits
 * results, the old one has stopped writing. Once fenced, a manager
 * never un-fences, and it never touches a lease file again (renaming
 * over a thief's fresh claim would usurp it).
 */

#ifndef NORD_CAMPAIGN_LEASE_HH
#define NORD_CAMPAIGN_LEASE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nord {
namespace campaign {

/** Decoded contents of one lease file. */
struct LeaseInfo
{
    std::uint64_t shard = 0;
    std::uint64_t token = 0;
    std::uint64_t beat = 0;
    std::string owner;  ///< executor id, "" when released
};

/** Path of shard @p shard's lease file under @p leaseDir. */
std::string leasePath(const std::string &leaseDir, std::uint64_t shard);

/** Render the single-line lease file body (with trailing newline). */
std::string renderLeaseLine(const LeaseInfo &info);

/**
 * Read and parse a lease file. Returns false when the file is missing
 * or unparseable (a torn write cannot happen -- updates are renames --
 * so unparseable means external interference).
 */
bool readLeaseFile(const std::string &path, LeaseInfo *out);

/** Lease-layer knobs. */
struct LeaseOptions
{
    std::string leaseDir;     ///< "<outDir>/leases"
    std::string execId;       ///< this executor's unique id
    std::uint64_t shards = 1;
    double graceSec = 2.0;    ///< observed silence before a steal
    double renewSec = 0.25;   ///< heartbeat period (<< graceSec/2)
    double settleSec = 0.05;  ///< post-steal read-back delay
};

/**
 * One executor's view of every shard lease (see file comment for the
 * protocol). All methods take the current monotonic time so tests can
 * drive the clock explicitly.
 */
class LeaseManager
{
  public:
    /** Create the lease directory; remembers the options. */
    bool init(const LeaseOptions &opts, std::string *err);

    /**
     * Try to take shard @p shard now: fresh claim when no lease file
     * exists, immediate steal when the lease is released (owner ""),
     * expiry steal when (token, beat) has been unchanged for graceSec.
     * Returns true with @p token set on success; false means "not now"
     * (held by a live owner, or a steal race was lost) -- never fatal.
     */
    bool tryAcquire(std::uint64_t shard, double now, std::uint64_t *token);

    /**
     * Renew every held lease whose heartbeat is due. Latches fenced()
     * when any held lease is too stale to prove (older than grace/2) or
     * a renewal observes another owner. Once fenced, no lease file is
     * ever written again.
     */
    void renewDue(double now);

    /** True while @p shard is held AND its last proven renewal is
     *  younger than graceSec/2: the commit-safety predicate. */
    bool writable(std::uint64_t shard, double now);

    bool holds(std::uint64_t shard) const;
    std::uint64_t token(std::uint64_t shard) const;
    std::vector<std::uint64_t> heldShards() const;

    /** Sticky: the executor must stop writing and exit kExitLeaseLost. */
    bool fenced() const { return fenced_; }
    const std::string &fenceReason() const { return fenceReason_; }

    /** Gracefully release @p shard's lease (owner "") if held. No-op
     *  when fenced -- a fenced executor must not touch lease files. */
    void release(std::uint64_t shard);

    /** release() every held lease. */
    void releaseAll();

  private:
    struct ShardView
    {
        bool held = false;
        std::uint64_t token = 0;  ///< ours while held
        std::uint64_t beat = 0;
        double lastRenewOk = 0.0;
        double nextRenewAt = 0.0;
        // Observation history for stealing:
        bool observed = false;
        std::uint64_t seenToken = 0;
        std::uint64_t seenBeat = 0;
        double seenSince = 0.0;  ///< when (seenToken, seenBeat) appeared
    };

    void fence(const std::string &why);
    bool writeLease(const LeaseInfo &info);
    void observe(std::uint64_t shard, const LeaseInfo &info, double now,
                 bool exists);

    LeaseOptions opts_;
    std::map<std::uint64_t, ShardView> shards_;
    bool fenced_ = false;
    std::string fenceReason_;
};

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_LEASE_HH
