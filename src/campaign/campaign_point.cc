/**
 * @file
 * Campaign point expansion and the supervised worker body.
 */

#include "campaign/campaign_point.hh"

#include <algorithm>

#include "campaign/exit_codes.hh"
#include "campaign/journal.hh"
#include "ckpt/checkpoint.hh"
#include "common/fnv.hh"
#include "common/log.hh"
#include "network/noc_system.hh"
#include "network/run_record.hh"
#include "traffic/parsec_workload.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <time.h>
#endif

namespace nord {
namespace campaign {

std::string
workloadName(const PointSpec &spec)
{
    if (spec.kind == WorkloadKind::kParsec)
        return "parsec:" + spec.parsec;
    return trafficPatternName(spec.pattern);
}

std::string
specJson(const PointSpec &spec)
{
    std::string s = detail::formatString(
        "{\"id\":%llu,\"design\":\"%s\",\"workload\":\"",
        static_cast<unsigned long long>(spec.id),
        pgDesignName(spec.design));
    s += jsonEscape(workloadName(spec));
    s += detail::formatString(
        "\",\"rate\":%g,\"seed\":%llu,\"rows\":%d,\"cols\":%d,"
        "\"cycles\":%llu,\"faultRate\":%g,\"minDelivered\":%g",
        spec.rate, static_cast<unsigned long long>(spec.seed), spec.rows,
        spec.cols, static_cast<unsigned long long>(spec.measure),
        spec.faultRate, spec.minDelivered);
    if (spec.selfTest != SelfTest::kNone)
        s += detail::formatString(
            ",\"selfTest\":\"%s\"",
            spec.selfTest == SelfTest::kPoison ? "poison" : "hang");
    s += "}";
    return s;
}

std::uint64_t
gridFingerprint(const std::vector<PointSpec> &specs)
{
    std::uint64_t h = kFnvOffset;
    for (const PointSpec &spec : specs) {
        const std::string line = specJson(spec) + "\n";
        h = fnv1aFold(h, line.data(), line.size());
    }
    return h;
}

std::vector<PointSpec>
expandGrid(const GridSpec &grid)
{
    // The workload axis: every (pattern, rate), then every PARSEC model
    // (closed loop, so it has no rate).
    std::vector<PointSpec> workloads;
    for (TrafficPattern p : grid.patterns) {
        for (double rate : grid.rates) {
            PointSpec w;
            w.pattern = p;
            w.rate = rate;
            workloads.push_back(w);
        }
    }
    for (const std::string &bench : grid.parsec) {
        PointSpec w;
        w.kind = WorkloadKind::kParsec;
        w.parsec = bench;
        w.rate = 0.0;
        workloads.push_back(w);
    }
    std::vector<PointSpec> specs;
    for (PgDesign d : grid.designs) {
        for (const PointSpec &w : workloads) {
            for (double fr : grid.faultRates) {
                for (std::uint64_t seed : grid.seeds) {
                    PointSpec s = w;
                    s.id = specs.size();
                    s.design = d;
                    s.rows = grid.rows;
                    s.cols = grid.cols;
                    s.measure = grid.measure;
                    s.minDelivered = grid.minDelivered;
                    s.faultRate = fr;
                    s.seed = seed;
                    specs.push_back(std::move(s));
                }
            }
        }
    }
    return specs;
}

PointPaths
pointPaths(const std::string &outDir, std::uint64_t id)
{
    const std::string stem = detail::formatString(
        "%s/point-%llu", outDir.c_str(),
        static_cast<unsigned long long>(id));
    PointPaths p;
    p.checkpoint = stem + ".ckpt";
    p.result = stem + ".result.json";
    p.stderrLog = stem + ".stderr";
    return p;
}

void
enableFaults(NocConfig &cfg, double faultRate)
{
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitCorruptRate = faultRate;
    cfg.fault.flitDropRate = faultRate;
    cfg.verify.interval = 256;
    cfg.verify.policy = AuditPolicy::kRecover;
}

namespace {

/** Worker checkpoint phases, stored in CheckpointMeta::user[0]. */
enum : std::uint64_t
{
    kPhaseRunning = 0,  ///< workload attached
    kPhaseDrain = 1,    ///< workload detached, draining in flight
};

NocConfig
pointConfig(const PointSpec &spec)
{
    NocConfig cfg = makeShippedConfig(spec.design, spec.rows, spec.cols);
    cfg.seed = spec.seed;
    if (spec.faultRate > 0.0)
        enableFaults(cfg, spec.faultRate);
    return cfg;
}

bool
saveWorkerCheckpoint(NocSystem &sys, const PointSpec &spec,
                     const std::string &path, std::uint64_t phase)
{
    std::string err;
    if (!sys.saveCheckpoint(path, {phase, spec.id, 0, 0}, &err)) {
        std::fprintf(diagStream(),
                     "[worker %llu] checkpoint write failed: %s\n",
                     static_cast<unsigned long long>(spec.id),
                     err.c_str());
        return false;
    }
    return true;
}

void
selfTestHangForever(const PointSpec &spec)
{
    std::fprintf(diagStream(),
                 "[worker %llu] self-test: entering deliberate hang\n",
                 static_cast<unsigned long long>(spec.id));
    if (std::fflush(diagStream()) != 0) {
        // Diagnostics are best-effort; the hang itself is the test.
    }
#if defined(__unix__) || defined(__APPLE__)
    for (;;) {
        struct timespec s = {3600, 0};
        nanosleep(&s, nullptr);
    }
#endif
}

}  // namespace

int
runPointWorker(const PointSpec &spec, const PointPaths &paths,
               const WorkerOptions &opts)
{
    const auto diagId = static_cast<unsigned long long>(spec.id);

    if (spec.selfTest == SelfTest::kPoison) {
        std::fprintf(diagStream(),
                     "[worker %llu] self-test poison point: failing the "
                     "delivery gate deterministically\n",
                     diagId);
        return kExitGateFailure;
    }

    const NocConfig cfg = pointConfig(spec);
    const std::vector<std::string> problems = cfg.problems();
    if (!problems.empty()) {
        for (const std::string &p : problems)
            std::fprintf(diagStream(), "[worker %llu] bad config: %s\n",
                         diagId, p.c_str());
        return kExitBadConfig;
    }
    const auto &suite = parsecSuite();
    if (spec.kind == WorkloadKind::kParsec &&
        std::none_of(suite.begin(), suite.end(),
                     [&spec](const ParsecParams &p) {
                         return p.name == spec.parsec;
                     })) {
        std::fprintf(diagStream(),
                     "[worker %llu] bad config: unknown PARSEC "
                     "benchmark '%s'\n",
                     diagId, spec.parsec.c_str());
        return kExitBadConfig;
    }
    if (spec.kind == WorkloadKind::kSynthetic &&
        !(spec.rate >= 0.0 && spec.rate <= 1.0)) {
        std::fprintf(diagStream(),
                     "[worker %llu] bad config: synthetic rate %g is not "
                     "in [0, 1]\n",
                     diagId, spec.rate);
        return kExitBadConfig;
    }

    NocSystem sys(cfg);
    SyntheticTraffic synthetic(spec.pattern, spec.rate, spec.seed);
    std::unique_ptr<ParsecWorkload> parsec;
    if (spec.kind == WorkloadKind::kParsec)
        parsec = std::make_unique<ParsecWorkload>(
            parsecByName(spec.parsec), spec.seed);
    Workload *workload = parsec
        ? static_cast<Workload *>(parsec.get())
        : static_cast<Workload *>(&synthetic);

    // Resume from this point's checkpoint when one exists. A checkpoint
    // that cannot be restored (corrupt file, stale spec) is discarded and
    // the point restarts from scratch: a damaged artifact must degrade to
    // recomputation, never to a wedged point.
    std::uint64_t phase = kPhaseRunning;
    bool resumed = false;
    {
        CheckpointMeta meta;
        std::string err;
        if (readCheckpointFile(paths.checkpoint, &meta, nullptr, &err) &&
            meta.user[1] == spec.id) {
            const std::uint64_t ckptPhase = meta.user[0];
            if (ckptPhase == kPhaseRunning)
                sys.setWorkload(workload);
            std::array<std::uint64_t, 4> user{};
            if (sys.loadCheckpoint(paths.checkpoint, &user, &err)) {
                resumed = true;
                phase = ckptPhase;
                std::fprintf(diagStream(),
                             "[worker %llu] resumed from %s at cycle "
                             "%llu\n",
                             diagId, paths.checkpoint.c_str(),
                             static_cast<unsigned long long>(sys.now()));
            } else {
                // loadCheckpoint is transactional (it rolls the system
                // back on failure), so the point can restart from
                // scratch within this same attempt.
                std::fprintf(diagStream(),
                             "[worker %llu] discarding unusable "
                             "checkpoint %s (%s); restarting point\n",
                             diagId, paths.checkpoint.c_str(),
                             err.c_str());
                if (ckptPhase == kPhaseRunning)
                    sys.setWorkload(nullptr);
            }
        }
        if (!resumed) {
            if (std::remove(paths.checkpoint.c_str()) != 0) {
                // Fine: there was nothing to discard.
            }
            phase = kPhaseRunning;
            sys.setWorkload(workload);
        }
    }

    const Cycle every = std::max<Cycle>(opts.checkpointEvery, 1);
    const Cycle hangAt = spec.measure / 2;

    if (spec.kind == WorkloadKind::kSynthetic) {
        if (phase == kPhaseRunning) {
            while (sys.now() < spec.measure) {
                if (spec.selfTest == SelfTest::kHang &&
                    sys.now() >= hangAt)
                    selfTestHangForever(spec);
                const Cycle chunk =
                    std::min<Cycle>(every, spec.measure - sys.now());
                sys.run(chunk);
                if (!saveWorkerCheckpoint(sys, spec, paths.checkpoint,
                                          kPhaseRunning))
                    return kExitInfraFailure;
            }
            sys.setWorkload(nullptr);
            phase = kPhaseDrain;
            if (!saveWorkerCheckpoint(sys, spec, paths.checkpoint,
                                      kPhaseDrain))
                return kExitInfraFailure;
        }
        const Cycle limit = spec.measure + opts.drainBudget;
        bool done = sys.completionReached();
        while (!done && sys.now() < limit) {
            const Cycle chunk = std::min<Cycle>(every, limit - sys.now());
            done = sys.runTowardCompletion(chunk);
            if (!done &&
                !saveWorkerCheckpoint(sys, spec, paths.checkpoint,
                                      kPhaseDrain))
                return kExitInfraFailure;
        }
    } else {
        // Closed loop: the workload knows when it is finished.
        const Cycle limit = 30'000'000;
        bool done = sys.completionReached();
        while (!done && sys.now() < limit) {
            if (spec.selfTest == SelfTest::kHang && sys.now() >= hangAt)
                selfTestHangForever(spec);
            const Cycle chunk = std::min<Cycle>(every, limit - sys.now());
            done = sys.runTowardCompletion(chunk);
            if (!done &&
                !saveWorkerCheckpoint(sys, spec, paths.checkpoint,
                                      kPhaseRunning))
                return kExitInfraFailure;
        }
    }
    const RunRecord rec = recordRun(sys);
    if (spec.minDelivered > 0.0 &&
        rec.deliveredFraction < spec.minDelivered) {
        std::fprintf(diagStream(),
                     "[worker %llu] delivery gate failed: %.6f < %.6f "
                     "(created %llu, delivered %llu)\n",
                     diagId, rec.deliveredFraction, spec.minDelivered,
                     static_cast<unsigned long long>(rec.created),
                     static_cast<unsigned long long>(rec.delivered));
        return kExitGateFailure;
    }

    std::string result = specJson(spec);
    result.pop_back();  // reopen the spec object to append metrics
    result += ",\"status\":\"ok\"," + recordJson(rec) + "}\n";

    std::string err;
    if (!atomicWriteFile(paths.result, result, {}, &err)) {
        std::fprintf(diagStream(),
                     "[worker %llu] result write failed: %s\n", diagId,
                     err.c_str());
        return kExitInfraFailure;
    }
    return kExitOk;
}

}  // namespace campaign
}  // namespace nord
