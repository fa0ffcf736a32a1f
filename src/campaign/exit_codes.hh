/**
 * @file
 * Process exit-code taxonomy for campaign workers and benches.
 *
 * A supervisor deciding between *retry* and *quarantine* needs to know
 * whether a failure is deterministic (retrying reproduces it bit-exactly,
 * so retrying is a restart storm) or environmental (a retry may succeed).
 * Every campaign-facing binary -- the nord-campaign CLI and its workers,
 * the figure benches -- reports failures through these codes:
 *
 *   kExitOk           success
 *   kExitGateFailure  a simulation *result* failed an acceptance gate
 *                     (e.g. --min-delivered): deterministic, quarantine
 *   kExitBadConfig    the configuration itself is invalid or incompatible
 *                     (config lint failure, checkpoint fingerprint
 *                     mismatch): deterministic, quarantine
 *   kExitInfraFailure infrastructure trouble (ENOSPC on a checkpoint,
 *                     unreadable journal, fork failure): transient, retry
 *   kExitInterrupted  the campaign was drained by SIGINT/SIGTERM with
 *                     its state flushed: rerun to resume
 *
 * Codes start at 10 so they can never collide with the conventional 0/1/2
 * of asserts, sanitizers and argument parsers; anything outside the
 * taxonomy (including death by signal) classifies as kUnknown and is
 * retried with backoff until the attempt budget quarantines it.
 */

#ifndef NORD_CAMPAIGN_EXIT_CODES_HH
#define NORD_CAMPAIGN_EXIT_CODES_HH

namespace nord {
namespace campaign {

/** Exit codes with supervision semantics (see file comment). */
enum ExitCode : int
{
    kExitOk = 0,
    kExitGateFailure = 10,   ///< deterministic: result failed a gate
    kExitBadConfig = 11,     ///< deterministic: configuration invalid
    kExitInfraFailure = 12,  ///< transient: I/O / fork / disk trouble
    kExitInterrupted = 13,   ///< drained by SIGINT/SIGTERM, state flushed
};

/** Why one worker attempt ended, as the supervisor classified it. */
enum class FailureClass : int
{
    kNone = 0,       ///< attempt succeeded
    kGate = 1,       ///< kExitGateFailure: poison, do not retry
    kBadConfig = 2,  ///< kExitBadConfig: poison, do not retry
    kInfra = 3,      ///< kExitInfraFailure: transient, retry
    kCrash = 4,      ///< died on a signal (not the supervisor's): retry
    kHang = 5,       ///< no heartbeat progress, supervisor SIGKILLed it
    kChaos = 6,      ///< chaos self-test kill: retry, never counted
    kUnknown = 7,    ///< unrecognized nonzero exit code: retry
};

/** Stable name for journal/report serialization. */
inline const char *
failureClassName(FailureClass c)
{
    switch (c) {
      case FailureClass::kNone: return "none";
      case FailureClass::kGate: return "gate";
      case FailureClass::kBadConfig: return "bad-config";
      case FailureClass::kInfra: return "infra";
      case FailureClass::kCrash: return "crash";
      case FailureClass::kHang: return "hang";
      case FailureClass::kChaos: return "chaos";
      case FailureClass::kUnknown: return "unknown";
    }
    return "?";
}

/** Parse a failureClassName() string (kUnknown for anything else). */
inline FailureClass
failureClassFromName(const char *name)
{
    for (int i = 0; i <= static_cast<int>(FailureClass::kUnknown); ++i) {
        const FailureClass c = static_cast<FailureClass>(i);
        const char *n = failureClassName(c);
        const char *p = name;
        const char *q = n;
        while (*p && *q && *p == *q) {
            ++p;
            ++q;
        }
        if (*p == '\0' && *q == '\0')
            return c;
    }
    return FailureClass::kUnknown;
}

/**
 * Classify a worker's wait status, pre-decoded into (exited, exitCode,
 * signaled, signal). @p killedForHang marks a SIGKILL issued by the
 * supervisor itself after heartbeat starvation; @p killedForChaos marks a
 * chaos self-test kill.
 */
inline FailureClass
classifyExit(bool exited, int exitCode, bool signaled, int signal,
             bool killedForHang = false, bool killedForChaos = false)
{
    (void)signal;
    if (killedForChaos)
        return FailureClass::kChaos;
    if (killedForHang)
        return FailureClass::kHang;
    if (exited) {
        switch (exitCode) {
          case kExitOk: return FailureClass::kNone;
          case kExitGateFailure: return FailureClass::kGate;
          case kExitBadConfig: return FailureClass::kBadConfig;
          case kExitInfraFailure: return FailureClass::kInfra;
          default: return FailureClass::kUnknown;
        }
    }
    if (signaled)
        return FailureClass::kCrash;
    return FailureClass::kUnknown;
}

/**
 * True when retrying can never change the outcome: the failure is a
 * deterministic property of the (config, seed, workload) point, so the
 * supervisor must quarantine immediately instead of burning retries.
 */
inline bool
isDeterministicFailure(FailureClass c)
{
    return c == FailureClass::kGate || c == FailureClass::kBadConfig;
}

/**
 * True when the attempt consumes retry budget. Chaos kills are inflicted
 * by the supervisor's own self-test and say nothing about the point.
 */
inline bool
failureCountsTowardQuarantine(FailureClass c)
{
    return c != FailureClass::kNone && c != FailureClass::kChaos;
}

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_EXIT_CODES_HH
