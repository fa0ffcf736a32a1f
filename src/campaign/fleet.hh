/**
 * @file
 * Worker-fleet primitives of the campaign executor: monotonic time,
 * artifact-file helpers, the per-point scheduling state, and -- most
 * importantly -- orphan-safe worker spawning.
 *
 * Orphan safety: every forked worker is placed in its OWN process group
 * (setpgid in both child and parent, closing the fork race), and the
 * supervisor always kills the GROUP (kill(-pid)) so a worker that forked
 * helpers cannot leak them. On Linux the child additionally arms
 * PR_SET_PDEATHSIG with SIGKILL and re-checks its parent immediately
 * after, so even a SIGKILL'd supervisor -- which gets no chance to run
 * any exit path -- never leaves detached workers burning CPU.
 */

#ifndef NORD_CAMPAIGN_FLEET_HH
#define NORD_CAMPAIGN_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign_point.hh"

#if defined(__unix__) || defined(__APPLE__)
#define NORD_CAMPAIGN_POSIX 1
#endif

namespace nord {
namespace campaign {

/** Monotonic seconds: scheduling only, never simulation state. */
double monotonicSec();

/** Sleep for @p sec seconds (no-op for sec <= 0). */
void sleepSec(double sec);

/** Nanosecond mtime of @p path (false when it does not exist). */
bool fileMtimeNs(const std::string &path, std::uint64_t *out);

/** True when @p path exists (any file type). */
bool fileExists(const std::string &path);

/** Whole file as bytes ("" when unreadable). */
std::string readWholeFile(const std::string &path);

/**
 * Last lines of @p path, capped at @p maxBytes and trimmed to a line
 * boundary: the quarantine diagnostic a human reads first.
 */
std::string stderrTail(const std::string &path,
                       std::size_t maxBytes = 2000);

/**
 * The worker result file is written atomically, so it either holds one
 * complete JSON line or does not exist. Returns false on anything else.
 */
bool readResultLine(const std::string &path, std::string *out);

/** Scheduling state of one point inside a supervisor loop. */
enum class PointPhase : std::uint8_t
{
    kPending = 0,   ///< ready to launch
    kWaiting = 1,   ///< in backoff, launch when readyAt passes
    kRunning = 2,   ///< a live worker owns it
    kDone = 3,
    kQuarantined = 4,
};

struct PointRuntime
{
    PointPhase phase = PointPhase::kPending;
    double readyAt = 0.0;  ///< backoff deadline (monotonic)
};

/** One live worker process. */
struct WorkerSlot
{
    long pid = -1;
    std::uint64_t point = 0;
    double lastProgress = 0.0;   ///< spawn or last heartbeat (monotonic)
    std::uint64_t lastMtimeNs = 0;
    bool haveMtime = false;
    bool killedForHang = false;
    bool killedForChaos = false;
};

/**
 * Fork one point worker with the orphan-safety protocol from the file
 * comment: own process group, Linux parent-death signal, stderr
 * truncated and redirected to paths.stderrLog. Returns the child pid,
 * or -1 on fork failure (transient; the caller retries next tick).
 */
long spawnPointWorker(const PointSpec &spec, const PointPaths &paths,
                      const WorkerOptions &opts);

/**
 * SIGKILL the worker's process group (fallback: the pid alone when the
 * group is already gone).
 */
void killWorkerGroup(long pid);

/** Group-kill and reap every live worker, then clear @p fleetSlots. */
void killFleet(std::vector<WorkerSlot> *fleetSlots);

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_FLEET_HH
