/**
 * @file
 * The PARSEC study: Section 3.1/3.2 (and Figure 3), Figures 8-12 and an
 * ablation of NoRD's design choices, rendered from one table of points.
 *
 * The table is the campaign -- the 10 PARSEC models x the 4 shipped
 * designs on the 4x4 mesh -- plus four NoRD variants on a mid-load mix
 * (canneal, fluidanimate, x264). Every point runs once, then each
 * section prints from the records it needs, in this order:
 *
 *   Sec. 3.1/3.2  router idleness and idle periods <= BET under No_PG
 *   Fig. 8        router static energy (incl. PG overhead) vs No_PG
 *   Fig. 9        (a) PG overhead energy, (b) wakeups, vs Conv_PG
 *   Fig. 10       NoC energy breakdown vs the No_PG total
 *   Fig. 11       average packet latency
 *   Fig. 12       execution time (every core's script done) vs No_PG
 *   Ablation      NoRD without a performance-centric class (no-perf),
 *                 with every router performance-centric (all-perf), with
 *                 the power-centric threshold and guard everywhere
 *                 (uniform-thr) and with 10 performance-centric routers
 *                 (perf-10), against the full design (a campaign point)
 *
 * Each section prints its paper anchors; EXPERIMENTS.md compares them.
 * Environment: NORD_QUICK=1 shrinks the PARSEC scripts (faster, noisier).
 */

#include <array>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "traffic/parsec_workload.hh"

namespace {

using namespace nord;
using namespace nord::bench;

/** A NoRD variant of the ablation, applied to the shipped 4x4 config. */
struct Variant
{
    const char *name;
    void (*apply)(NocConfig &);
};

const Variant kVariants[] = {
    {"no-perf", [](NocConfig &c) { c.nordPerfCentricCount = 0; }},
    {"all-perf", [](NocConfig &c) {
         c.nordPerfCentricCount = c.numNodes();
     }},
    {"uniform-thr", [](NocConfig &c) {
         c.nordPerfThreshold = c.nordPowerThreshold;
         c.nordPerfSleepGuard = c.nordPowerSleepGuard;
     }},
    {"perf-10", [](NocConfig &c) { c.nordPerfCentricCount = 10; }},
};
constexpr std::size_t kNumVariants = std::size(kVariants);

const char *const kAblationMix[] = {"canneal", "fluidanimate", "x264"};
constexpr std::size_t kMixSize = std::size(kAblationMix);

/**
 * The study's table. The campaign comes first, benchmark-major: point
 * 4 * b + d is parsecSuite()[b] under design d. The ablation's variants
 * follow, variant-major over kAblationMix.
 */
struct Table
{
    const std::vector<ParsecParams> &suite = parsecSuite();
    std::vector<Point> points;

    const RunRecord &campaign(std::size_t b, int design) const
    {
        return points[4 * b + static_cast<std::size_t>(design)].rec;
    }

    const RunRecord &variant(std::size_t v, std::size_t k) const
    {
        return points[4 * suite.size() + kMixSize * v + k].rec;
    }
};

/** Build every point of the study, each exactly once. */
Table
buildTable()
{
    Table t;
    for (const ParsecParams &p : t.suite) {
        for (int d = 0; d < 4; ++d)
            t.points.push_back(
                {.cfg = makeShippedConfig(static_cast<PgDesign>(d), 4, 4),
                 .parsec = &p});
    }
    for (const Variant &v : kVariants) {
        for (const char *name : kAblationMix) {
            NocConfig cfg = makeShippedConfig(PgDesign::kNord, 4, 4);
            v.apply(cfg);
            t.points.push_back({.cfg = cfg, .parsec = &parsecByName(name)});
        }
    }
    return t;
}

void
renderSec3(const Table &t)
{
    std::printf("=== Section 3.1/3.2: router idleness under No_PG ===\n");
    std::printf("%-14s %8s %10s %12s %12s\n", "benchmark", "idle%",
                "<=BET%", "inj(f/n/c)", "exec(cyc)");

    double idleSum = 0.0;
    double betSum = 0.0;
    std::size_t lo = 0;  // first benchmark with the lowest idleness
    std::size_t hi = 0;  // first benchmark with the highest idleness
    for (std::size_t b = 0; b < t.suite.size(); ++b) {
        const RunRecord &r = t.campaign(b, 0);
        const double inj = static_cast<double>(r.delivered) * 3.0 /
                           (16.0 * static_cast<double>(r.cycles));
        std::printf("%-14s %7.1f%% %9.1f%% %12.4f %12llu\n",
                    t.suite[b].name.c_str(), 100.0 * r.idleFraction,
                    100.0 * r.idleLeqBet, inj,
                    static_cast<unsigned long long>(r.cycles));
        idleSum += r.idleFraction;
        betSum += r.idleLeqBet;
        if (r.idleFraction < t.campaign(lo, 0).idleFraction)
            lo = b;
        if (r.idleFraction > t.campaign(hi, 0).idleFraction)
            hi = b;
    }
    const double n = static_cast<double>(t.suite.size());
    std::printf("\naverage idleness: %.1f%%\n", 100.0 * idleSum / n);
    std::printf("lowest: %s %.1f%% (paper: x264 30.4%%)\n",
                t.suite[lo].name.c_str(),
                100.0 * t.campaign(lo, 0).idleFraction);
    std::printf("highest: %s %.1f%% (paper: blackscholes 71.2%%)\n",
                t.suite[hi].name.c_str(),
                100.0 * t.campaign(hi, 0).idleFraction);
    std::printf("idle periods <= BET: %.1f%% of all periods "
                "(paper: > 61%%)\n", 100.0 * betSum / n);
}

/**
 * Print one row per benchmark of metric(design) / metric(@p base) for
 * Conv_PG, Conv_PG_OPT and NoRD, as percentages @p width wide with
 * @p gap after the Conv_PG_OPT column; return the per-design sums.
 */
std::array<double, 4>
printNormalizedRows(const Table &t, double (*metric)(const RunRecord &),
                    int base, int width, const char *gap)
{
    std::array<double, 4> sums{};
    for (std::size_t b = 0; b < t.suite.size(); ++b) {
        const double baseValue = metric(t.campaign(b, base));
        std::printf("%-14s", t.suite[b].name.c_str());
        for (int d = 1; d < 4; ++d) {
            const double frac = metric(t.campaign(b, d)) / baseValue;
            sums[d] += frac;
            std::printf(" %*.1f%%%s", width, 100.0 * frac,
                        d == 2 ? gap : "");
        }
        std::printf("\n");
    }
    return sums;
}

void
renderFig08(const Table &t)
{
    std::printf("=== Figure 8: static energy normalized to No_PG ===\n");
    std::printf("%-14s %10s %12s %10s\n", "benchmark", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    const std::array<double, 4> sums = printNormalizedRows(
        t, [](const RunRecord &r) { return r.staticEnergy(); }, 0, 9, "  ");
    const double n = static_cast<double>(t.suite.size());
    std::printf("%-14s %9.1f%% %11.1f%% %9.1f%%\n", "AVG",
                100.0 * sums[1] / n, 100.0 * sums[2] / n,
                100.0 * sums[3] / n);
    std::printf("paper AVG:         48.8%%        53.0%%      37.1%%\n");
    std::printf("\nNoRD vs Conv_PG:     %5.1f%% further reduction "
                "(paper: 23.9%%)\n",
                100.0 * (1.0 - sums[3] / sums[1]));
    std::printf("NoRD vs Conv_PG_OPT: %5.1f%% further reduction "
                "(paper: 29.9%%)\n",
                100.0 * (1.0 - sums[3] / sums[2]));
}

void
renderFig09(const Table &t)
{
    std::printf("=== Figure 9(a): PG overhead energy (norm. to Conv_PG) "
                "===\n");
    std::printf("%-14s %10s %12s %10s\n", "benchmark", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    const std::array<double, 4> eSum = printNormalizedRows(
        t, [](const RunRecord &r) { return r.energy.pgOverhead; }, 1, 9,
        "  ");
    double wSum[4] = {0, 0, 0, 0};
    for (std::size_t b = 0; b < t.suite.size(); ++b) {
        for (int d = 1; d < 4; ++d)
            wSum[d] += static_cast<double>(t.campaign(b, d).wakeups) /
                       static_cast<double>(t.campaign(b, 1).wakeups);
    }
    const double n = static_cast<double>(t.suite.size());
    std::printf("%-14s %9.1f%% %11.1f%% %9.1f%%\n\n", "AVG",
                100.0 * eSum[1] / n, 100.0 * eSum[2] / n,
                100.0 * eSum[3] / n);

    std::printf("=== Figure 9(b): router wakeups (norm. to Conv_PG) ===\n");
    std::printf("%-14s %10s %12s %10s\n", "AVG", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    std::printf("%-14s %9.1f%% %11.1f%% %9.1f%%\n", "",
                100.0 * wSum[1] / n, 100.0 * wSum[2] / n,
                100.0 * wSum[3] / n);

    std::printf("\nNoRD overhead reduction: %.1f%% vs Conv_PG "
                "(paper: 80.7%%), %.1f%% vs Conv_PG_OPT (paper: 74.0%%)\n",
                100.0 * (1.0 - eSum[3] / eSum[1]),
                100.0 * (1.0 - eSum[3] / eSum[2]));
    std::printf("NoRD wakeup reduction:   %.1f%% vs Conv_PG "
                "(paper: 81.0%%), %.1f%% vs Conv_PG_OPT (paper: 73.3%%)\n",
                100.0 * (1.0 - wSum[3] / wSum[1]),
                100.0 * (1.0 - wSum[3] / wSum[2]));
}

void
renderFig10(const Table &t)
{
    std::printf("=== Figure 10: NoC energy breakdown "
                "(%% of No_PG total) ===\n");
    std::printf("%-14s %-12s %8s %8s %8s %8s %8s %8s\n", "benchmark",
                "design", "rstatic", "rdyn", "lstatic", "ldyn", "pgovh",
                "total");
    double totalSum[4] = {0, 0, 0, 0};
    double dynSum[2] = {0, 0};  // No_PG vs NoRD dynamic (router+link)
    for (std::size_t b = 0; b < t.suite.size(); ++b) {
        const double base = t.campaign(b, 0).energy.total();
        for (int d = 0; d < 4; ++d) {
            const EnergyBreakdown &e = t.campaign(b, d).energy;
            std::printf("%-14s %-12s %7.1f%% %7.1f%% %7.1f%% %7.1f%% "
                        "%7.1f%% %7.1f%%\n",
                        d == 0 ? t.suite[b].name.c_str() : "",
                        pgDesignName(static_cast<PgDesign>(d)),
                        100.0 * e.routerStatic / base,
                        100.0 * e.routerDynamic / base,
                        100.0 * e.linkStatic / base,
                        100.0 * e.linkDynamic / base,
                        100.0 * e.pgOverhead / base,
                        100.0 * e.total() / base);
            totalSum[d] += e.total() / base;
        }
        dynSum[0] += t.campaign(b, 0).energy.routerDynamic +
                     t.campaign(b, 0).energy.linkDynamic;
        dynSum[1] += t.campaign(b, 3).energy.routerDynamic +
                     t.campaign(b, 3).energy.linkDynamic;
    }
    const double n = static_cast<double>(t.suite.size());
    std::printf("\nAVG total: No_PG %.1f%%, Conv_PG %.1f%%, "
                "Conv_PG_OPT %.1f%%, NoRD %.1f%%\n",
                100.0 * totalSum[0] / n, 100.0 * totalSum[1] / n,
                100.0 * totalSum[2] / n, 100.0 * totalSum[3] / n);
    std::printf("NoRD net savings vs No_PG: %.1f%% (paper: 9.1%%)\n",
                100.0 * (1.0 - totalSum[3] / totalSum[0]));
    std::printf("NoRD dynamic-energy overhead vs No_PG: %.1f%% "
                "(paper: 10.2%%)\n",
                100.0 * (dynSum[1] / dynSum[0] - 1.0));
}

void
renderFig11(const Table &t)
{
    std::printf("=== Figure 11: average packet latency (cycles) ===\n");
    std::printf("%-14s %8s %9s %12s %8s\n", "benchmark", "No_PG",
                "Conv_PG", "Conv_PG_OPT", "NoRD");
    double degSum[4] = {0, 0, 0, 0};
    for (std::size_t b = 0; b < t.suite.size(); ++b) {
        std::printf("%-14s", t.suite[b].name.c_str());
        const double base = t.campaign(b, 0).avgLatency;
        for (int d = 0; d < 4; ++d) {
            const double lat = t.campaign(b, d).avgLatency;
            std::printf(" %8.2f%s", lat, d == 2 ? "    " : "");
            degSum[d] += lat / base - 1.0;
        }
        std::printf("\n");
    }
    const double n = static_cast<double>(t.suite.size());
    std::printf("\nAVG latency degradation vs No_PG:\n");
    std::printf("  Conv_PG     +%.1f%% (paper: +63.8%%)\n",
                100.0 * degSum[1] / n);
    std::printf("  Conv_PG_OPT +%.1f%% (paper: +41.5%%)\n",
                100.0 * degSum[2] / n);
    std::printf("  NoRD        +%.1f%% (paper: +15.2%%)\n",
                100.0 * degSum[3] / n);
    std::printf("NoRD improvement over Conv_PG_OPT: %.1f%% "
                "(paper: 26.3%%)\n",
                100.0 * (1.0 - (1.0 + degSum[3] / n) /
                                   (1.0 + degSum[2] / n)));
}

void
renderFig12(const Table &t)
{
    std::printf("=== Figure 12: execution time (norm. to No_PG) ===\n");
    std::printf("%-14s %9s %12s %9s\n", "benchmark", "Conv_PG",
                "Conv_PG_OPT", "NoRD");
    const std::array<double, 4> sums = printNormalizedRows(
        t,
        [](const RunRecord &r) { return static_cast<double>(r.cycles); },
        0, 8, "   ");
    const double n = static_cast<double>(t.suite.size());
    std::printf("\nAVG: Conv_PG +%.1f%% (paper: +11.7%%), "
                "Conv_PG_OPT +%.1f%% (paper: +8.1%%), "
                "NoRD +%.1f%% (paper: +3.9%%)\n",
                100.0 * (sums[1] / n - 1.0), 100.0 * (sums[2] / n - 1.0),
                100.0 * (sums[3] / n - 1.0));
}

void
renderAblation(const Table &t)
{
    std::printf("=== NoRD ablation (PARSEC mix: canneal, fluidanimate, "
                "x264) ===\n");
    std::printf("%-12s %9s %9s %8s %9s\n", "variant", "latency",
                "wakeups", "off%", "staticE%");
    // Row 0 is the shipped design and the baseline is No_PG, both read
    // from the campaign.
    const int nord = static_cast<int>(PgDesign::kNord);
    for (std::size_t v = 0; v <= kNumVariants; ++v) {
        double lat = 0.0;
        double off = 0.0;
        double staticFrac = 0.0;
        std::uint64_t wakeups = 0;
        for (std::size_t k = 0; k < kMixSize; ++k) {
            const std::size_t b = static_cast<std::size_t>(
                &parsecByName(kAblationMix[k]) - t.suite.data());
            const RunRecord &r =
                v == 0 ? t.campaign(b, nord) : t.variant(v - 1, k);
            lat += r.avgLatency;
            off += r.offFraction;
            wakeups += r.wakeups;
            staticFrac += r.staticEnergy() / t.campaign(b, 0).staticEnergy();
        }
        const double n = static_cast<double>(kMixSize);
        std::printf("%-12s %9.2f %9llu %7.1f%% %8.1f%%\n",
                    v == 0 ? "full" : kVariants[v - 1].name, lat / n,
                    static_cast<unsigned long long>(wakeups),
                    100.0 * off / n, 100.0 * staticFrac / n);
    }
    std::printf("\nExpected: 'no-perf' trades latency for off-time; "
                "'all-perf' the reverse;\n'full' sits at the paper's "
                "balance point (Section 4.4).\n");
}

}  // namespace

int
main()
{
    Table t = buildTable();
    runPoints(t.points);
    renderSec3(t);
    renderFig08(t);
    renderFig09(t);
    renderFig10(t);
    renderFig11(t);
    renderFig12(t);
    renderAblation(t);
    return bench::stdoutStatus();
}
