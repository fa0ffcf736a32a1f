/**
 * @file
 * Shared experiment harness for the figure-reproduction benches.
 *
 * Each bench binary regenerates one or more tables/figures of the paper.
 * They all run complete NocSystem simulations and reduce them to the paper's
 * metrics with recordRun() (network/run_record.hh).
 *
 * Environment: set NORD_QUICK=1 to shrink the PARSEC scripts (faster,
 * noisier); figures keep their shape.
 *
 * Every bench ends with `return bench::stdoutStatus();`, so a lost write
 * of its results exits 12 (kExitInfraFailure) instead of 0.
 */

#ifndef NORD_BENCHUTIL_HH
#define NORD_BENCHUTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "campaign/exit_codes.hh"
#include "network/noc_system.hh"
#include "network/run_record.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace bench {

/** True when NORD_QUICK=1 (shorter PARSEC scripts). */
inline bool
quickMode()
{
    const char *env = std::getenv("NORD_QUICK");
    return env && env[0] == '1';
}

/**
 * Exit status of a bench whose results went to stdout: kExitInfraFailure
 * when they could not all be written (flushStdout()).
 */
inline int
stdoutStatus()
{
    return flushStdout() ? campaign::kExitOk : campaign::kExitInfraFailure;
}

/**
 * Run open-loop synthetic traffic on @p cfg for @p warmup unmeasured
 * cycles followed by @p measure measured ones.
 */
inline RunRecord
runSynthetic(NocConfig cfg, TrafficPattern pattern, double rate,
             Cycle warmup, Cycle measure, std::uint64_t seed)
{
    cfg.statsWarmup = warmup;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(pattern, rate, seed);
    sys.setWorkload(&traffic);
    sys.run(warmup + measure);
    return recordRun(sys);
}

}  // namespace bench
}  // namespace nord

#endif  // NORD_BENCHUTIL_HH
