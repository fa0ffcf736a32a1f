/**
 * @file
 * Shared experiment harness for the figure-reproduction benches.
 *
 * Each simulating bench is a table of points -- a NocConfig, a workload,
 * a window and a seed -- that runPoints() fills with RunRecords
 * (network/run_record.hh) on one thread pool, followed by a render
 * function that prints the paper's rows from those records.
 *
 * Environment: set NORD_QUICK=1 to shrink the PARSEC scripts (faster,
 * noisier); figures keep their shape.
 *
 * Every bench ends with `return bench::stdoutStatus();`, so a lost write
 * of its results exits 12 (kExitInfraFailure) instead of 0.
 */

#ifndef NORD_BENCHUTIL_HH
#define NORD_BENCHUTIL_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <span>
#include <thread>
#include <vector>

#include "campaign/exit_codes.hh"
#include "network/noc_system.hh"
#include "network/run_record.hh"
#include "traffic/parsec_workload.hh"
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
 * Exit status of a program whose results went to stdout:
 * kExitInfraFailure when they could not all be written (flushStdout()).
 */
inline int
stdoutStatus()
{
    return flushStdout() ? campaign::kExitOk : campaign::kExitInfraFailure;
}

/**
 * One simulation of a figure: open-loop synthetic traffic (@c parsec
 * null) for @c warmup unmeasured and @c measure measured cycles, or a
 * PARSEC model run to completion (shortened in quick mode).
 */
struct Point
{
    NocConfig cfg;
    const ParsecParams *parsec = nullptr;
    TrafficPattern pattern = TrafficPattern::kUniformRandom;
    double rate = 0.0;
    Cycle warmup = 0;
    Cycle measure = 0;
    std::uint64_t seed = 1;
    RunRecord rec = {};
};

/** Run one point on the calling thread; the point owns its NocSystem. */
inline RunRecord
runPoint(const Point &pt)
{
    NocConfig cfg = pt.cfg;
    cfg.statsWarmup = pt.warmup;
    NocSystem sys(cfg);
    if (!pt.parsec) {
        SyntheticTraffic traffic(pt.pattern, pt.rate, pt.seed);
        sys.setWorkload(&traffic);
        sys.run(pt.warmup + pt.measure);
        return recordRun(sys);
    }
    ParsecParams p = *pt.parsec;
    if (quickMode())
        p.transactionsPerCore = std::max(50, p.transactionsPerCore / 8);
    ParsecWorkload wl(p, pt.seed);
    sys.setWorkload(&wl);
    if (!sys.runToCompletion(30'000'000))
        std::fprintf(stderr,
                     "warning: %s/%s hit the cycle limit (%llu done)\n",
                     pgDesignName(cfg.design), p.name.c_str(),
                     static_cast<unsigned long long>(
                         wl.completedTransactions()));
    return recordRun(sys);
}

/**
 * Fill every point's record on one pool of hardware_concurrency()
 * threads, at most one per point, each taking the next unrun point in
 * table order. Points share only the mutex-guarded CriticalityCache and
 * the lock-free trace selection, so a record is bit-identical to a
 * serial runPoint().
 */
inline void
runPoints(std::vector<Point> &points)
{
    const std::size_t width = std::min<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()), points.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> pool;  // joined on scope exit
    for (std::size_t t = 0; t < width; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i; (i = next++) < points.size();)
                points[i].rec = runPoint(points[i]);
        });
    }
}

/**
 * Append the Figs 14/15 load sweep to @p points: No_PG, Conv_PG_OPT and
 * NoRD on a @p k x @p k mesh at each rate, after 10k warm-up cycles.
 */
inline void
addLoadSweep(std::vector<Point> &points, int k, TrafficPattern pattern,
             std::initializer_list<double> rates, Cycle measure,
             std::uint64_t seed)
{
    for (double rate : rates) {
        for (PgDesign d : {PgDesign::kNoPg, PgDesign::kConvPgOpt,
                           PgDesign::kNord})
            points.push_back({.cfg = makeShippedConfig(d, k, k),
                              .pattern = pattern, .rate = rate,
                              .warmup = 10000, .measure = measure,
                              .seed = seed});
    }
}

/**
 * Print a load sweep of addLoadSweep(): latency and NoC power per rate,
 * the rate with @p precision decimals.
 */
inline void
renderLoadSweep(std::span<const Point> sweep, int precision)
{
    std::printf("%-8s | %8s %11s %7s | %8s %11s %7s\n", "rate", "No_PG",
                "Conv_PG_OPT", "NoRD", "No_PG", "Conv_PG_OPT", "NoRD");
    for (std::size_t i = 0; i < sweep.size(); i += 3) {
        const RunRecord &a = sweep[i].rec;
        const RunRecord &b = sweep[i + 1].rec;
        const RunRecord &c = sweep[i + 2].rec;
        std::printf("%-8.*f | %8.2f %11.2f %7.2f | %8.3f %11.3f %7.3f\n",
                    precision, sweep[i].rate, a.avgLatency, b.avgLatency,
                    c.avgLatency, a.avgPowerW, b.avgPowerW, c.avgPowerW);
    }
}

}  // namespace bench
}  // namespace nord

#endif  // NORD_BENCHUTIL_HH
