/**
 * @file
 * Lease-file protocol implementation (see lease.hh for the rules and
 * the self-fencing soundness argument).
 */

#include "campaign/lease.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "campaign/fleet.hh"
#include "campaign/journal.hh"
#include "ckpt/checkpoint.hh"
#include "common/log.hh"

#ifdef NORD_CAMPAIGN_POSIX
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace nord {
namespace campaign {

std::string
leasePath(const std::string &leaseDir, std::uint64_t shard)
{
    return detail::formatString("%s/shard-%llu.lease", leaseDir.c_str(),
                                static_cast<unsigned long long>(shard));
}

std::string
renderLeaseLine(const LeaseInfo &info)
{
    return detail::formatString(
               "{\"shard\":%llu,\"token\":%llu,\"owner\":\"",
               static_cast<unsigned long long>(info.shard),
               static_cast<unsigned long long>(info.token)) +
           jsonEscape(info.owner) +
           detail::formatString(
               "\",\"beat\":%llu}\n",
               static_cast<unsigned long long>(info.beat));
}

bool
readLeaseFile(const std::string &path, LeaseInfo *out)
{
    const std::string line = readWholeFile(path);
    if (line.empty())
        return false;
    LeaseInfo info;
    if (!jsonFieldU64(line, "shard", &info.shard) ||
        !jsonFieldU64(line, "token", &info.token) ||
        !jsonFieldU64(line, "beat", &info.beat) ||
        !jsonFieldString(line, "owner", &info.owner))
        return false;
    *out = info;
    return true;
}

namespace {

/** Write @p bytes to @p path, fsync'd, for a subsequent link/rename. */
bool
writeTmpFile(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    ok = (std::fflush(f) == 0) && ok;
#ifdef NORD_CAMPAIGN_POSIX
    ok = (fsync(fileno(f)) == 0) && ok;
#endif
    ok = (std::fclose(f) == 0) && ok;
    return ok;
}

}  // namespace

bool
LeaseManager::init(const LeaseOptions &opts, std::string *err)
{
#ifdef NORD_CAMPAIGN_POSIX
    opts_ = opts;
    if (opts_.renewSec <= 0.0)
        opts_.renewSec = opts_.graceSec / 8.0;
    if (mkdir(opts_.leaseDir.c_str(), 0755) != 0 && errno != EEXIST) {
        if (err)
            *err = detail::formatString("cannot create %s: %s",
                                        opts_.leaseDir.c_str(),
                                        std::strerror(errno));
        return false;
    }
    return true;
#else
    (void)opts;
    if (err)
        *err = "lease management requires a POSIX host";
    return false;
#endif
}

void
LeaseManager::fence(const std::string &why)
{
    if (fenced_)
        return;
    fenced_ = true;
    fenceReason_ = why;
    for (auto &kv : shards_)
        kv.second.held = false;
    std::fprintf(diagStream(), "[lease] self-fence: %s\n", why.c_str());
}

bool
LeaseManager::writeLease(const LeaseInfo &info)
{
    // atomicWriteFile renames into place and fsyncs the parent
    // directory; the executor-unique temp suffix keeps concurrent
    // writers of the same lease from clobbering each other's temp.
    std::string err;
    return atomicWriteFile(leasePath(opts_.leaseDir, info.shard),
                           renderLeaseLine(info), &err,
                           "." + opts_.execId + ".tmp");
}

void
LeaseManager::observe(std::uint64_t shard, const LeaseInfo &info,
                      double now, bool exists)
{
    ShardView &v = shards_[shard];
    const std::uint64_t tok = exists ? info.token : 0;
    const std::uint64_t beat = exists ? info.beat : 0;
    if (!v.observed || v.seenToken != tok || v.seenBeat != beat) {
        v.observed = true;
        v.seenToken = tok;
        v.seenBeat = beat;
        v.seenSince = now;
    }
}

bool
LeaseManager::tryAcquire(std::uint64_t shard, double now,
                         std::uint64_t *token)
{
#ifdef NORD_CAMPAIGN_POSIX
    if (fenced_)
        return false;
    ShardView &v = shards_[shard];
    if (v.held)
        return false;

    const std::string path = leasePath(opts_.leaseDir, shard);
    LeaseInfo cur;
    const bool exists = readLeaseFile(path, &cur);

    if (!exists) {
        // Fresh claim: link(2) is exclusive, so success IS ownership.
        LeaseInfo mine;
        mine.shard = shard;
        mine.token = 1;
        mine.owner = opts_.execId;
        mine.beat = 1;
        const std::string tmp = path + "." + opts_.execId + ".tmp";
        if (!writeTmpFile(tmp, renderLeaseLine(mine)))
            return false;
        const bool linked = ::link(tmp.c_str(), path.c_str()) == 0;
        if (::unlink(tmp.c_str()) != 0) {
            // A stale temp is harmless; the next claim rewrites it.
        }
        if (!linked) {
            observe(shard, cur, now, false);
            return false;
        }
        if (!fsyncParentDir(path)) {
            // The claim stands (link succeeded); durability is degraded
            // until the next renewal's directory fsync.
        }
        v.held = true;
        v.token = mine.token;
        v.beat = mine.beat;
        v.lastRenewOk = now;
        v.nextRenewAt = now + opts_.renewSec;
        if (token)
            *token = v.token;
        return true;
    }

    observe(shard, cur, now, true);
    const bool released = cur.owner.empty();
    const bool expired =
        v.observed && now - v.seenSince >= opts_.graceSec;
    if (!released && !expired)
        return false;

    // Steal: rename token+1 over the file, settle, read back. rename is
    // atomic but not exclusive, so the read-back decides the race.
    LeaseInfo mine;
    mine.shard = shard;
    mine.token = cur.token + 1;
    mine.owner = opts_.execId;
    mine.beat = 1;
    if (!writeLease(mine))
        return false;
    sleepSec(opts_.settleSec);
    LeaseInfo after;
    if (!readLeaseFile(path, &after) || after.owner != opts_.execId ||
        after.token != mine.token) {
        // Lost a steal race; resume observing the winner.
        observe(shard, after, monotonicSec(), true);
        return false;
    }
    const double held = monotonicSec();
    v.held = true;
    v.token = mine.token;
    v.beat = mine.beat;
    v.lastRenewOk = held;
    v.nextRenewAt = held + opts_.renewSec;
    if (token)
        *token = v.token;
    return true;
#else
    (void)shard;
    (void)now;
    (void)token;
    return false;
#endif
}

void
LeaseManager::renewDue(double now)
{
    if (fenced_)
        return;
    for (auto &kv : shards_) {
        ShardView &v = kv.second;
        if (!v.held)
            continue;
        // Too stale to prove ownership: fence WITHOUT writing. A thief
        // waiting the full grace may be mid-takeover, and renaming our
        // beat over its fresh claim would usurp it.
        if (now - v.lastRenewOk > opts_.graceSec / 2.0) {
            fence(detail::formatString(
                "shard %llu renewal older than grace/2 (%.2fs > %.2fs)",
                static_cast<unsigned long long>(kv.first),
                now - v.lastRenewOk, opts_.graceSec / 2.0));
            return;
        }
        if (now < v.nextRenewAt)
            continue;

        const std::string path = leasePath(opts_.leaseDir, kv.first);
        LeaseInfo cur;
        if (!readLeaseFile(path, &cur) || cur.owner != opts_.execId ||
            cur.token != v.token) {
            fence(detail::formatString(
                "shard %llu lease no longer ours (owner \"%s\" token "
                "%llu, expected token %llu)",
                static_cast<unsigned long long>(kv.first),
                cur.owner.c_str(),
                static_cast<unsigned long long>(cur.token),
                static_cast<unsigned long long>(v.token)));
            return;
        }
        LeaseInfo next = cur;
        next.beat = v.beat + 1;
        if (!writeLease(next)) {
            // Transient I/O trouble: the lease is still provably ours
            // until lastRenewOk ages past grace/2; retry next tick.
            v.nextRenewAt = now + opts_.renewSec / 4.0;
            continue;
        }
        LeaseInfo after;
        if (!readLeaseFile(path, &after) ||
            after.owner != opts_.execId || after.token != v.token) {
            fence(detail::formatString(
                "shard %llu usurped during renewal",
                static_cast<unsigned long long>(kv.first)));
            return;
        }
        v.beat = next.beat;
        v.lastRenewOk = monotonicSec();
        v.nextRenewAt = v.lastRenewOk + opts_.renewSec;
    }
}

bool
LeaseManager::writable(std::uint64_t shard, double now)
{
    if (fenced_)
        return false;
    const auto it = shards_.find(shard);
    if (it == shards_.end() || !it->second.held)
        return false;
    if (now - it->second.lastRenewOk > opts_.graceSec / 2.0) {
        fence(detail::formatString(
            "shard %llu write blocked: renewal older than grace/2",
            static_cast<unsigned long long>(shard)));
        return false;
    }
    return true;
}

bool
LeaseManager::holds(std::uint64_t shard) const
{
    const auto it = shards_.find(shard);
    return it != shards_.end() && it->second.held;
}

std::uint64_t
LeaseManager::token(std::uint64_t shard) const
{
    const auto it = shards_.find(shard);
    return it != shards_.end() && it->second.held ? it->second.token : 0;
}

std::vector<std::uint64_t>
LeaseManager::heldShards() const
{
    std::vector<std::uint64_t> out;
    for (const auto &kv : shards_) {
        if (kv.second.held)
            out.push_back(kv.first);
    }
    return out;
}

void
LeaseManager::release(std::uint64_t shard)
{
    const auto it = shards_.find(shard);
    if (fenced_ || it == shards_.end() || !it->second.held)
        return;
    ShardView &v = it->second;
    LeaseInfo rel;
    rel.shard = shard;
    rel.token = v.token;
    rel.owner = "";
    rel.beat = v.beat;
    if (!writeLease(rel)) {
        // The lease simply expires after graceSec instead.
    }
    v.held = false;
}

void
LeaseManager::releaseAll()
{
    for (const std::uint64_t shard : heldShards())
        release(shard);
}

}  // namespace campaign
}  // namespace nord
