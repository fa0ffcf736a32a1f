/**
 * @file
 * Process exit-code taxonomy for campaign workers and benches.
 *
 * Every campaign-facing binary -- the nord-campaign CLI and its workers,
 * the figure benches -- reports failures through these codes:
 *
 *   kExitOk           success
 *   kExitGateFailure  a simulation *result* failed an acceptance gate
 *                     (e.g. --min-delivered)
 *   kExitBadConfig    the configuration itself is invalid or incompatible
 *                     (config lint failure, bad command line)
 *   kExitInfraFailure infrastructure trouble (ENOSPC on a checkpoint or a
 *                     result, fork failure, unwritable stdout)
 *
 * Codes start at 10 so they can never collide with the conventional 0/1/2
 * of asserts, sanitizers and argument parsers; anything outside the
 * taxonomy classifies as kUnknown, and death by signal as kCrash.
 */

#ifndef NORD_CAMPAIGN_EXIT_CODES_HH
#define NORD_CAMPAIGN_EXIT_CODES_HH

namespace nord {
namespace campaign {

/** Process exit codes (see file comment). */
enum ExitCode : int
{
    kExitOk = 0,
    kExitGateFailure = 10,   ///< result failed a gate
    kExitBadConfig = 11,     ///< configuration invalid
    kExitInfraFailure = 12,  ///< I/O / fork / disk trouble
};

/** Why one worker ended, as the campaign loop classified it. */
enum class FailureClass : int
{
    kNone = 0,       ///< worker succeeded
    kGate = 1,       ///< kExitGateFailure
    kBadConfig = 2,  ///< kExitBadConfig
    kInfra = 3,      ///< kExitInfraFailure, or exit 0 without a result
    kCrash = 4,      ///< died on a signal
    kUnknown = 5,    ///< unrecognized nonzero exit code
};

/** Stable name for report serialization. */
inline const char *
failureClassName(FailureClass c)
{
    switch (c) {
      case FailureClass::kNone: return "none";
      case FailureClass::kGate: return "gate";
      case FailureClass::kBadConfig: return "bad-config";
      case FailureClass::kInfra: return "infra";
      case FailureClass::kCrash: return "crash";
      case FailureClass::kUnknown: return "unknown";
    }
    return "?";
}

/**
 * Classify a worker's wait status, pre-decoded into (exited, exitCode,
 * signaled).
 */
inline FailureClass
classifyExit(bool exited, int exitCode, bool signaled)
{
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

}  // namespace campaign
}  // namespace nord

#endif  // NORD_CAMPAIGN_EXIT_CODES_HH
