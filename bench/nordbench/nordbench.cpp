/**
 * @file
 * nordbench: host-performance benchmark of the NoRD simulator.
 *
 * One process runs one workload for about --seconds seconds of measured
 * work and prints every metric as "name value unit", then a one-line JSON
 * summary as the last line of stdout. The workloads, metrics and bounds
 * are declared in BENCHMARK.json; bench/nordbench/README.md is the
 * dictionary.
 *
 * The benchmark reaches the simulator only from outside, through public
 * entry points: the NocSystem facade, CriticalityCache, the checkpoint
 * API, auditor().sweep, finalizeStats + PowerModel::compute,
 * campaign::runPointWorker and the nord-campaign CLI. Spans are recorded
 * around those calls (--trace 1), never inside the program.
 *
 * Every workload runs in "units" (a PARSEC pass, an open-loop segment, a
 * campaign CLI invocation) until the time budget is spent; timings are
 * medians over units. Counts (allocations, per-layer event rates) and the
 * simulation digest come from a fixed deterministic prefix, so they
 * repeat exactly for a given seed.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_point.hh"
#include "network/noc_system.hh"
#include "power/power_model.hh"
#include "topology/criticality.hh"
#include "traffic/parsec_workload.hh"
#include "traffic/synthetic_traffic.hh"

extern char **environ;

// --- Global allocation counter -----------------------------------------------
//
// Counts every operator new in this process. The benchmark is
// single-threaded, so a plain counter is exact. The nothrow forms are
// replaced too (std::stable_sort's temporary buffer uses them), so every
// delete below frees what a matching new here allocated. Aligned forms
// keep their default definitions: nothing in the simulator is
// over-aligned.

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void *
operator new(std::size_t size)
{
    ++g_allocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// GCC flags free() on memory from the replaced operator new once both are
// inlined into one caller; the pairing is correct by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

void
operator delete(void *p, std::size_t) noexcept
{
    operator delete(p);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}

void
operator delete[](void *p) noexcept
{
    operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    operator delete(p);
}

namespace nordbench {
namespace {

using namespace nord;
namespace fs = std::filesystem;

/** Simulated cycles per timed chunk (chunk_ms_* metrics). */
constexpr Cycle kChunk = 1000;

/** Metric name and unit, in the order BENCHMARK.json lists them. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"cycles_per_s", "1/s"},
    {"ns_per_packet", "ns"},
    {"chunk_ms_p50", "ms"},
    {"setup_s", "s"},
    {"allocs_per_packet", "1/packet"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.ticks_per_cycle", "1/cycle"},
    {"sim.skip_frac", "frac"},
    {"sim.ns_per_tick", "ns"},
    {"sim.chunk_ms_p90", "ms"},
    {"topology.criticality_s", "s"},
    {"network.build_s", "s"},
    {"router.hops_per_cycle", "1/cycle"},
    {"router.vc_allocs_per_cycle", "1/cycle"},
    {"router.sw_allocs_per_cycle", "1/cycle"},
    {"router.buffer_writes_per_cycle", "1/cycle"},
    {"network.link_traversals_per_cycle", "1/cycle"},
    {"router.ns_per_hop", "ns"},
    {"ni.bypass_forwards_per_cycle", "1/cycle"},
    {"ni.bypass_latch_writes_per_cycle", "1/cycle"},
    {"powergate.wakeups_per_kcycle", "1/kcycle"},
    {"powergate.sleeps_per_kcycle", "1/kcycle"},
    {"powergate.off_frac", "frac"},
    {"powergate.waking_frac", "frac"},
    {"traffic.packets_per_kcycle", "1/kcycle"},
    {"traffic.transactions", "count"},
    {"stats.sim_latency_cycles", "cycles"},
    {"stats.sim_p99_latency_cycles", "cycles"},
    {"stats.finalize_ms", "ms"},
    {"verify.sweeps_per_kcycle", "1/kcycle"},
    {"verify.sweep_us", "us"},
    {"verify.share", "frac"},
    {"fault.injected_per_kcycle", "1/kcycle"},
    {"fault.retransmits_per_kcycle", "1/kcycle"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.load_ms", "ms"},
    {"ckpt.hash_ms", "ms"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.share", "frac"},
    {"campaign.point_s", "s"},
    {"campaign.overhead_s_per_point", "s"},
    {"common.arena_allocs_per_cycle", "1/cycle"},
    {"common.arena_reuse_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

double
steadyNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Linear-interpolated quantile @p q in [0, 1] (0 for no samples). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

// --- Tracing -----------------------------------------------------------------

/** Layer of a span name "layer.operation". */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/**
 * In-memory span recorder. Spans nest through an open-span stack, so
 * every span knows the span that caused it; a disabled tracer records
 * nothing but Span still measures time.
 */
class Tracer
{
  public:
    Tracer(bool enabled, std::string workload)
        : enabled_(enabled), workload_(std::move(workload)),
          origin_(steadyNow())
    {
    }

    int open(const char *name, double start)
    {
        if (!enabled_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, start, start, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id, double end)
    {
        if (id < 0)
            return;
        spans_[id].end = end;
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    std::size_t size() const { return spans_.size(); }

    /** Duration of the first (root) span in seconds. */
    double rootSeconds() const
    {
        return spans_.empty() ? 0.0 : spans_[0].end - spans_[0].start;
    }

    /** Share of the root span's time covered by its descendants. */
    double coverage() const
    {
        if (spans_.empty())
            return 0.0;
        return ratio(rootSeconds() - selfTimes()[0], rootSeconds());
    }

    /** Self time of every layer (name prefix before '.'), in seconds. */
    std::map<std::string, double> layerSelfTimes() const
    {
        std::map<std::string, double> out;
        const std::vector<double> self = selfTimes();
        for (std::size_t i = 0; i < spans_.size(); ++i)
            out[layerOf(spans_[i].name)] += self[i];
        return out;
    }

    /** Chrome trace-event JSON (opens in Perfetto / chrome://tracing). */
    bool writeChrome(const std::string &path) const
    {
        std::ofstream f(path);
        f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Rec &s = spans_[i];
            char buf[512];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                "\"args\":{\"id\":%zu,\"parent\":%d,\"workload\":\"%s\"}}",
                i ? "," : "", s.name, layerOf(s.name).c_str(),
                (s.start - origin_) * 1e6, (s.end - s.start) * 1e6, i,
                s.parent, workload_.c_str());
            f << buf;
        }
        f << "\n]}\n";
        return static_cast<bool>(f);
    }

  private:
    struct Rec
    {
        const char *name;
        double start;
        double end;
        int parent;
    };

    std::vector<double> selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const Rec &s : spans_) {
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        }
        return self;
    }

    bool enabled_;
    std::string workload_;
    double origin_;
    std::vector<Rec> spans_;
    std::vector<int> stack_;
};

/** Scoped timer that is also a trace span when tracing is on. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name)
        : tracer_(tracer), start_(steadyNow()),
          id_(tracer.open(name, start_))
    {
    }
    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span (idempotent); returns its duration in seconds. */
    double stop()
    {
        if (!stopped_) {
            end_ = steadyNow();
            tracer_.close(id_, end_);
            stopped_ = true;
        }
        return end_ - start_;
    }

  private:
    Tracer &tracer_;
    double start_;
    double end_ = 0.0;
    int id_;
    bool stopped_ = false;
};

// --- Results -----------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string outDir = ".bench_build/results";
    std::string campaignBin;
};

/** Everything one run measured. */
struct Run
{
    std::map<std::string, double> values;  ///< metric name -> value
    std::map<std::string, double> samples; ///< sample counts (printed)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::uint64_t digest = 0xcbf29ce484222325ULL;

    /** Count one gated point; @p problems lists the gates it failed. */
    void tally(const std::vector<std::string> &problems)
    {
        ++attempted;
        if (!problems.empty())
            ++failed;
        failures.insert(failures.end(), problems.begin(), problems.end());
    }
};

/** Append @p what to @p problems unless @p ok. */
void
gate(std::vector<std::string> &problems, bool ok, const std::string &what)
{
    if (!ok)
        problems.push_back(what);
}

std::uint64_t
fnv(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnvU64(std::uint64_t h, std::uint64_t v)
{
    return fnv(h, &v, sizeof(v));
}

/** Fold the simulated statistics and full state of @p sys into @p h. */
std::uint64_t
digestSystem(std::uint64_t h, const NocSystem &sys)
{
    const NetworkStats &st = sys.stats();
    const ActivityCounters t = st.totals();
    for (std::uint64_t v :
         {t.bufferWrites, t.bufferReads, t.vcAllocs, t.swAllocs,
          t.xbarTraversals, t.linkTraversals, t.bypassLatchWrites,
          t.bypassForwards, t.onCycles, t.offCycles, t.wakingCycles,
          t.wakeups, t.sleeps, st.packetsCreated(), st.packetsDelivered(),
          st.flitsEjected(), static_cast<std::uint64_t>(sys.now()),
          sys.stateHash()})
        h = fnvU64(h, v);
    return h;
}

/** Public counters of one system, as doubles for rate arithmetic. */
struct Counters
{
    double cycles = 0, ticked = 0, skipped = 0;
    double hops = 0, vcAllocs = 0, swAllocs = 0, bufferWrites = 0;
    double links = 0, bypassForwards = 0, bypassLatchWrites = 0;
    double wakeups = 0, sleeps = 0, on = 0, off = 0, waking = 0;
    double created = 0, delivered = 0;
    double sweeps = 0, faults = 0, retransmits = 0;
    double arenaAllocs = 0, arenaReuses = 0;

    static Counters of(const NocSystem &sys)
    {
        const NetworkStats &st = sys.stats();
        const ActivityCounters t = st.totals();
        Counters c;
        c.cycles = static_cast<double>(sys.now());
        c.ticked = static_cast<double>(sys.kernel().tickedTotal());
        c.skipped = static_cast<double>(sys.kernel().skippedTotal());
        c.hops = static_cast<double>(t.xbarTraversals);
        c.vcAllocs = static_cast<double>(t.vcAllocs);
        c.swAllocs = static_cast<double>(t.swAllocs);
        c.bufferWrites = static_cast<double>(t.bufferWrites);
        c.links = static_cast<double>(t.linkTraversals);
        c.bypassForwards = static_cast<double>(t.bypassForwards);
        c.bypassLatchWrites = static_cast<double>(t.bypassLatchWrites);
        c.wakeups = static_cast<double>(t.wakeups);
        c.sleeps = static_cast<double>(t.sleeps);
        c.on = static_cast<double>(t.onCycles);
        c.off = static_cast<double>(t.offCycles);
        c.waking = static_cast<double>(t.wakingCycles);
        c.created = static_cast<double>(st.packetsCreated());
        c.delivered = static_cast<double>(st.packetsDelivered());
        c.sweeps = static_cast<double>(sys.auditor().sweepCount());
        c.faults = sys.injector()
            ? static_cast<double>(sys.injector()->counts().total())
            : 0.0;
        c.retransmits = static_cast<double>(st.flowTotals().retransmits);
        c.arenaAllocs = static_cast<double>(sys.arena().stats().allocCalls);
        c.arenaReuses = static_cast<double>(sys.arena().stats().reuses);
        return c;
    }

    /** Field-wise this - @p o (sign = -1) or this + @p o (sign = +1). */
    Counters combine(const Counters &o, double sign) const
    {
        static constexpr double Counters::*kFields[] = {
            &Counters::cycles, &Counters::ticked, &Counters::skipped,
            &Counters::hops, &Counters::vcAllocs, &Counters::swAllocs,
            &Counters::bufferWrites, &Counters::links,
            &Counters::bypassForwards, &Counters::bypassLatchWrites,
            &Counters::wakeups, &Counters::sleeps, &Counters::on,
            &Counters::off, &Counters::waking, &Counters::created,
            &Counters::delivered, &Counters::sweeps, &Counters::faults,
            &Counters::retransmits, &Counters::arenaAllocs,
            &Counters::arenaReuses};
        Counters r = *this;
        for (double Counters::*f : kFields)
            r.*f += sign * o.*f;
        return r;
    }
};

/** Per-layer rates from counters over a deterministic window. */
void
addCountMetrics(Run &r, const Counters &d)
{
    const double kc = d.cycles / 1000.0;
    auto &v = r.values;
    v["sim.ticks_per_cycle"] = ratio(d.ticked, d.cycles);
    v["sim.skip_frac"] = ratio(d.skipped, d.ticked + d.skipped);
    v["router.hops_per_cycle"] = ratio(d.hops, d.cycles);
    v["router.vc_allocs_per_cycle"] = ratio(d.vcAllocs, d.cycles);
    v["router.sw_allocs_per_cycle"] = ratio(d.swAllocs, d.cycles);
    v["router.buffer_writes_per_cycle"] = ratio(d.bufferWrites, d.cycles);
    v["network.link_traversals_per_cycle"] = ratio(d.links, d.cycles);
    v["ni.bypass_forwards_per_cycle"] = ratio(d.bypassForwards, d.cycles);
    v["ni.bypass_latch_writes_per_cycle"] =
        ratio(d.bypassLatchWrites, d.cycles);
    v["powergate.wakeups_per_kcycle"] = ratio(d.wakeups, kc);
    v["powergate.sleeps_per_kcycle"] = ratio(d.sleeps, kc);
    v["powergate.off_frac"] = ratio(d.off, d.on + d.off + d.waking);
    v["powergate.waking_frac"] = ratio(d.waking, d.on + d.off + d.waking);
    v["traffic.packets_per_kcycle"] = ratio(d.created, kc);
    v["verify.sweeps_per_kcycle"] = ratio(d.sweeps, kc);
    v["fault.injected_per_kcycle"] = ratio(d.faults, kc);
    v["fault.retransmits_per_kcycle"] = ratio(d.retransmits, kc);
    v["common.arena_allocs_per_cycle"] = ratio(d.arenaAllocs, d.cycles);
    v["common.arena_reuse_frac"] = ratio(d.arenaReuses, d.arenaAllocs);
}

/** Per-layer host costs from counters over a timed window. */
void
addTimingMetrics(Run &r, const Counters &d, double wall)
{
    r.values["sim.ns_per_tick"] = ratio(wall * 1e9, d.ticked);
    r.values["router.ns_per_hop"] = ratio(wall * 1e9, d.hops);
}

/** One timed unit of a workload (a pass, a segment, a CLI run). */
struct Unit
{
    double wall = 0.0;
    double cycles = 0.0;   ///< simulated cycles in the unit
    double packets = 0.0;  ///< simulated packets delivered in the unit
};

/**
 * End-to-end timings as medians over units, so a burst of host noise
 * shorter than half the run does not move them; the chunk tail goes to
 * the per-layer set, since it mostly measures that noise.
 */
void
addUnitMetrics(Run &r, const std::vector<Unit> &units,
               const std::vector<double> &chunkMs)
{
    std::vector<double> wall, rate, perPacket;
    for (const Unit &u : units) {
        wall.push_back(u.wall);
        rate.push_back(ratio(u.cycles, u.wall));
        perPacket.push_back(ratio(u.wall * 1e9, u.packets));
    }
    r.values["wall_s"] = median(wall);
    r.values["cycles_per_s"] = median(rate);
    r.values["ns_per_packet"] = median(perPacket);
    r.values["chunk_ms_p50"] = quantile(chunkMs, 0.5);
    r.values["sim.chunk_ms_p90"] = quantile(chunkMs, 0.9);
    r.samples["units"] = static_cast<double>(units.size());
    r.samples["chunks"] = static_cast<double>(chunkMs.size());
}

double
peakRssMiB(int who)
{
    struct rusage ru {};
    if (getrusage(who, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

int
numLinks(const NocSystem &sys)
{
    const int r = sys.mesh().rows();
    const int c = sys.mesh().cols();
    return 2 * (r * (c - 1) + c * (r - 1));
}

/** finalizeStats + PowerModel::compute, as every figure bench does. */
double
finalizeAndPower(Tracer &tr, NocSystem &sys, double *energyJ)
{
    Span s(tr, "stats.finalize");
    sys.finalizeStats();
    const PowerModel pm;
    *energyJ = pm.compute(sys.stats(), sys.now(), numLinks(sys),
                          sys.config().design, sys.config().betCycles)
                   .total();
    return s.stop();
}

// --- Shared layer probes ------------------------------------------------------

/**
 * Host seconds to construct every system of the workload once. With
 * @p cold the CriticalityCache is emptied first.
 */
double
buildOnce(Tracer &tr, const std::vector<NocConfig> &cfgs, bool cold)
{
    if (cold)
        CriticalityCache::instance().clear();
    double total = 0.0;
    for (const NocConfig &cfg : cfgs) {
        std::unique_ptr<NocSystem> sys;
        {
            Span s(tr, cold ? "network.build_cold" : "network.build");
            sys = std::make_unique<NocSystem>(cfg);
            total += s.stop();
        }
        Span s(tr, "network.teardown");
        sys.reset();
    }
    return total;
}

/** network.build_s: median warm-cache construction of 5. */
double
warmBuild(Tracer &tr, const std::vector<NocConfig> &cfgs)
{
    std::vector<double> reps;
    for (int i = 0; i < 5; ++i)
        reps.push_back(buildOnce(tr, cfgs, false));
    return median(reps);
}

/** Share of the measuring budget spent (1 when there is none). */
double
progress(double measured, double seconds)
{
    return seconds > 0.0 ? measured / seconds : 1.0;
}

/**
 * setup_s: cold construction of the workload's systems, repeated until
 * at least 3 repetitions and 1 s are spent (1 repetition in smoke mode).
 * The repetitions are spread over the run in step with its progress, so
 * one slow phase of a shared host cannot set the median alone.
 */
class SetupSampler
{
  public:
    SetupSampler(Tracer &tr, std::vector<NocConfig> cfgs, bool smoke)
        : tr_(tr), cfgs_(std::move(cfgs)), smoke_(smoke)
    {
    }

    /** Build until the budget spent keeps up with @p progress (0..1). */
    void advance(double progress)
    {
        progress = std::min(progress, 1.0);
        const double reps = smoke_ ? 1.0 : std::ceil(3.0 * progress);
        const double seconds = smoke_ ? 0.0 : progress;
        while (static_cast<double>(reps_.size()) < reps || spent_ < seconds) {
            reps_.push_back(buildOnce(tr_, cfgs_, true));
            spent_ += reps_.back();
        }
    }

    /** Complete the budget and record setup_s. */
    void finish(Run &r)
    {
        advance(1.0);
        r.values["setup_s"] = median(reps_);
        r.samples["setups"] = static_cast<double>(reps_.size());
    }

  private:
    Tracer &tr_;
    std::vector<NocConfig> cfgs_;
    bool smoke_;
    std::vector<double> reps_;
    double spent_ = 0.0;
};

/** Cold knee + perfSet + steering for a rows x cols mesh (NoRD only). */
double
criticalitySeconds(Tracer &tr, int rows, int cols)
{
    CriticalityCache &cache = CriticalityCache::instance();
    cache.clear();
    const MeshTopology mesh(rows, cols);
    const BypassRing ring(mesh);
    Span s(tr, "topology.criticality");
    const int knee = cache.knee(mesh, ring);
    cache.steering(mesh, ring, cache.perfSet(mesh, ring, knee));
    return s.stop();
}

/**
 * Correctness gate: the state hash is the same before a checkpoint save
 * and after loading it back.
 */
bool
hashRoundTrip(Tracer &tr, NocSystem &sys, const std::string &path)
{
    Span s(tr, "ckpt.roundtrip");
    const std::uint64_t before = sys.stateHash();
    std::string err;
    if (!sys.saveCheckpoint(path, {}, &err) ||
        !sys.loadCheckpoint(path, nullptr, &err)) {
        std::fprintf(stderr, "nordbench: checkpoint round trip: %s\n",
                     err.c_str());
        return false;
    }
    return sys.stateHash() == before;
}

/** Checkpoint save/load/hash costs and size on a live system. */
void
probeCheckpoint(Tracer &tr, NocSystem &sys, const std::string &path, Run &r)
{
    std::vector<double> save, load, hash;
    bool ok = true;
    for (int i = 0; i < 5; ++i) {
        {
            Span s(tr, "ckpt.save");
            ok = sys.saveCheckpoint(path) && ok;
            save.push_back(s.stop());
        }
        {
            Span s(tr, "ckpt.load");
            ok = sys.loadCheckpoint(path) && ok;
            load.push_back(s.stop());
        }
        {
            Span s(tr, "ckpt.hash");
            const std::uint64_t h = sys.stateHash();
            hash.push_back(s.stop());
            (void)h;
        }
    }
    if (!ok)
        r.failures.push_back("checkpoint probe: save or load failed");
    std::error_code ec;
    const auto bytes = fs::file_size(path, ec);
    r.values["ckpt.save_ms"] = median(save) * 1e3;
    r.values["ckpt.load_ms"] = median(load) * 1e3;
    r.values["ckpt.hash_ms"] = median(hash) * 1e3;
    r.values["ckpt.bytes"] = ec ? 0.0 : static_cast<double>(bytes);
}

/**
 * Cost of one direct auditor sweep on a live system. Its findings are not
 * gated: NoRD body flits injected over the local bypass carry no
 * injection stamp, so the flit-age check misfires on long runs.
 */
double
probeSweep(Tracer &tr, NocSystem &sys)
{
    std::vector<double> us;
    for (int i = 0; i < 9; ++i) {
        Span s(tr, "verify.sweep");
        sys.auditor().sweep(sys.now());
        us.push_back(s.stop() * 1e6);
    }
    return median(us);
}

/** Cost of recording one span, measured on a throwaway tracer. */
double
spanCostSeconds()
{
    Tracer probe(true, "calibration");
    constexpr int kSpans = 20000;
    const double t0 = steadyNow();
    for (int i = 0; i < kSpans; ++i) {
        Span s(probe, "calibration.span");
    }
    return (steadyNow() - t0) / kSpans;
}

// --- Workload: parsec_4x4 -------------------------------------------------------

/**
 * The paper's Figs 8-12 experiment: every PARSEC model under every design
 * on the Table-1 4x4 mesh, each run to completion. One unit is one pass
 * over the 40 points, with the NORD_QUICK script length (1/8) so a run
 * holds many passes. Every point of a pass draws its own seed: the
 * phase schedule sets how many (cheap) quiet cycles a point simulates, so
 * with one seed per pass all forty schedules move together and the
 * pass length varies 3x across seeds.
 */
Run
runParsec(const Options &o, Tracer &tr, const std::string &work)
{
    Run r;
    std::vector<ParsecParams> models;
    for (const ParsecParams &p : parsecSuite()) {
        ParsecParams q = p;
        q.transactionsPerCore = o.smoke
            ? std::max(5, p.transactionsPerCore / 400)
            : std::max(50, p.transactionsPerCore / 8);
        models.push_back(q);
    }
    std::vector<NocConfig> cfgs;
    for (std::size_t m = 0; m < models.size(); ++m) {
        for (int d = 0; d < 4; ++d) {
            NocConfig cfg;
            cfg.design = static_cast<PgDesign>(d);
            cfg.seed = o.seed;
            cfgs.push_back(cfg);
        }
    }
    SetupSampler setup(tr, cfgs, o.smoke);

    std::vector<Unit> passes;
    std::vector<double> chunkMs, finalizeMs, latency, p99;
    double countAllocs = 0.0, transactions = 0.0;
    Counters count, timedCount;
    double timedWall = 0.0, measured = 0.0;
    for (int pass = 0;; ++pass) {
        Span passSpan(tr, "bench.pass");
        Unit unit;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            std::vector<std::string> problems;
            const std::uint64_t seed = (o.seed * 1000 + pass) * 64 + i;
            NocConfig cfg = cfgs[i];
            cfg.seed = seed;
            ParsecWorkload wl(models[i / 4], seed);
            std::unique_ptr<NocSystem> sys;
            double pointWall = 0.0;
            {
                Span s(tr, "network.build");
                sys = std::make_unique<NocSystem>(cfg);
                sys->setWorkload(&wl);
                pointWall += s.stop();
            }
            bool done = sys->completionReached();
            while (!done && sys->now() < 30'000'000) {
                Span s(tr, "sim.run");
                const Cycle c0 = sys->now();
                const std::uint64_t a0 = g_allocs;
                done = sys->runTowardCompletion(kChunk);
                const std::uint64_t a1 = g_allocs;
                const double dt = s.stop();
                pointWall += dt;
                if (pass == 0)
                    countAllocs += static_cast<double>(a1 - a0);
                if (sys->now() - c0 == kChunk)
                    chunkMs.push_back(dt * 1e3);
            }
            double energyJ = 0.0;
            const double fin = finalizeAndPower(tr, *sys, &energyJ);
            pointWall += fin;
            finalizeMs.push_back(fin * 1e3);

            const Counters c = Counters::of(*sys);
            unit.wall += pointWall;
            unit.cycles += c.cycles;
            unit.packets += c.delivered;
            timedCount = timedCount.combine(c, 1.0);
            timedWall += pointWall;
            gate(problems, done,
                 models[i / 4].name + " did not reach completion");
            gate(problems, c.delivered == c.created,
                 models[i / 4].name + " lost packets");
            if (pass == 0) {
                count = count.combine(c, 1.0);
                transactions +=
                    static_cast<double>(wl.completedTransactions());
                latency.push_back(sys->stats().avgPacketLatency());
                p99.push_back(sys->stats().latencyPercentile(0.99));
                {
                    Span s(tr, "ckpt.hash");
                    r.digest = digestSystem(r.digest, *sys);
                    std::uint64_t bits = 0;
                    std::memcpy(&bits, &energyJ, sizeof(bits));
                    r.digest = fnvU64(r.digest, bits);
                }
                gate(problems,
                     hashRoundTrip(tr, *sys, work + "/roundtrip.ckpt"),
                     "state hash changed across checkpoint save/load");
                if (o.trace && i == cfgs.size() - 1) {
                    r.values["verify.sweep_us"] = probeSweep(tr, *sys);
                    probeCheckpoint(tr, *sys, work + "/probe.ckpt", r);
                }
            }
            r.tally(problems);
            Span s(tr, "network.teardown");
            sys.reset();
            unit.wall += s.stop();
        }
        passSpan.stop();
        passes.push_back(unit);
        measured += unit.wall;
        setup.advance(progress(measured, o.seconds));
        if (measured >= o.seconds)
            break;
    }
    setup.finish(r);

    addUnitMetrics(r, passes, chunkMs);
    r.values["allocs_per_packet"] = ratio(countAllocs, count.delivered);

    addCountMetrics(r, count);
    addTimingMetrics(r, timedCount, timedWall);
    r.values["traffic.transactions"] = transactions;
    r.values["stats.sim_latency_cycles"] =
        sum(latency) / static_cast<double>(latency.size());
    r.values["stats.sim_p99_latency_cycles"] =
        sum(p99) / static_cast<double>(p99.size());
    r.values["stats.finalize_ms"] = median(finalizeMs);
    if (o.trace) {
        r.values["topology.criticality_s"] = criticalitySeconds(tr, 4, 4);
        r.values["network.build_s"] = warmBuild(tr, cfgs);
    }
    return r;
}

// --- Workloads: lowload_8x8_nord, highload_8x8_nopg -----------------------------

/** One open-loop uniform-random workload on an 8x8 mesh. */
struct OpenLoop
{
    PgDesign design;
    double rate;            ///< flits/node/cycle
    Cycle warmup;           ///< untimed cycles before the window
    Cycle segment;          ///< cycles per unit (wall_s)
    int countSegments;      ///< deterministic prefix: counts + digest
};

Run
runOpenLoop(const Options &o, Tracer &tr, const std::string &work,
            OpenLoop w)
{
    if (o.smoke) {
        w.warmup /= 50;
        w.segment = std::max(kChunk, w.segment / 50);
    }
    Run r;
    NocConfig cfg;
    cfg.rows = 8;
    cfg.cols = 8;
    cfg.design = w.design;
    cfg.seed = o.seed;
    cfg.statsWarmup = w.warmup;
    // Half the set-up budget before the measured system exists and half
    // after it is gone: a set-up system alive beside it would count in
    // peak_rss_mib.
    SetupSampler setup(tr, {cfg}, o.smoke);
    setup.advance(0.5);

    std::vector<std::string> problems;
    std::unique_ptr<NocSystem> sys;
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, w.rate, o.seed);
    {
        Span s(tr, "network.build");
        sys = std::make_unique<NocSystem>(cfg);
        sys->setWorkload(&traffic);
    }
    {
        Span s(tr, "sim.warmup");
        sys->run(w.warmup);
    }

    const Counters start = Counters::of(*sys);
    Counters countEnd;
    std::vector<Unit> segments;
    std::vector<double> chunkMs;
    double countAllocs = 0.0, measured = 0.0;
    for (int seg = 0;; ++seg) {
        Span segSpan(tr, "sim.segment");
        Unit unit;
        unit.cycles = static_cast<double>(w.segment);
        unit.packets = -static_cast<double>(sys->stats().packetsDelivered());
        for (Cycle done = 0; done < w.segment; done += kChunk) {
            Span s(tr, "sim.run");
            const std::uint64_t a0 = g_allocs;
            sys->run(kChunk);
            const std::uint64_t a1 = g_allocs;
            const double dt = s.stop();
            unit.wall += dt;
            chunkMs.push_back(dt * 1e3);
            if (seg < w.countSegments)
                countAllocs += static_cast<double>(a1 - a0);
        }
        segSpan.stop();
        unit.packets += static_cast<double>(sys->stats().packetsDelivered());
        segments.push_back(unit);
        measured += unit.wall;
        if (seg + 1 == w.countSegments) {
            countEnd = Counters::of(*sys);
            r.values["stats.sim_latency_cycles"] =
                sys->stats().avgPacketLatency();
            r.values["stats.sim_p99_latency_cycles"] =
                sys->stats().latencyPercentile(0.99);
            Span s(tr, "ckpt.hash");
            r.digest = digestSystem(r.digest, *sys);
        }
        if (seg + 1 >= w.countSegments && measured >= o.seconds)
            break;
    }
    const Counters window = Counters::of(*sys).combine(start, -1.0);
    const Counters count = countEnd.combine(start, -1.0);

    gate(problems, hashRoundTrip(tr, *sys, work + "/roundtrip.ckpt"),
         "state hash changed across checkpoint save/load");
    if (o.trace) {
        r.values["verify.sweep_us"] = probeSweep(tr, *sys);
        probeCheckpoint(tr, *sys, work + "/probe.ckpt", r);
    }
    sys->setWorkload(nullptr);
    bool drained = false;
    {
        Span s(tr, "sim.drain");
        drained = sys->runTowardCompletion(200'000);
    }
    gate(problems, drained, "network did not drain after detaching");
    double energyJ = 0.0;
    r.values["stats.finalize_ms"] =
        finalizeAndPower(tr, *sys, &energyJ) * 1e3;
    gate(problems,
         sys->stats().packetsDelivered() == sys->stats().packetsCreated(),
         "delivered packets != created packets");
    r.tally(problems);

    addUnitMetrics(r, segments, chunkMs);
    r.values["allocs_per_packet"] = ratio(countAllocs, count.delivered);

    addCountMetrics(r, count);
    addTimingMetrics(r, window, measured);
    {
        Span s(tr, "network.teardown");
        sys.reset();
    }
    setup.finish(r);
    if (o.trace) {
        if (w.design == PgDesign::kNord)
            r.values["topology.criticality_s"] = criticalitySeconds(tr, 8, 8);
        r.values["network.build_s"] = warmBuild(tr, {cfg});
    }
    return r;
}

// --- Workload: campaign_faults_8x8 ------------------------------------------

/** Grid of the resilience campaign (one seed). */
campaign::GridSpec
campaignGrid(std::uint64_t seed, bool smoke)
{
    campaign::GridSpec g;
    g.designs = {PgDesign::kNoPg, PgDesign::kConvPg, PgDesign::kConvPgOpt,
                 PgDesign::kNord};
    g.rates = {0.06};
    g.faultRates = {1e-4};
    g.seeds = {seed};
    g.rows = 8;
    g.cols = 8;
    g.measure = smoke ? 80 : 4000;
    g.minDelivered = 0.99;
    return g;
}

/**
 * The NocConfig nord-campaign builds for a synthetic fault point. Mirrors
 * pointConfig() in src/campaign/campaign_point.cc; the in-process replica
 * below gates that its results equal the CLI's report, so a drift fails
 * the run instead of skewing the layer numbers.
 */
NocConfig
campaignPointConfig(const campaign::PointSpec &spec)
{
    NocConfig cfg;
    cfg.rows = spec.rows;
    cfg.cols = spec.cols;
    cfg.design = spec.design;
    cfg.seed = spec.seed;
    cfg.fault.enabled = true;
    cfg.fault.e2e = true;
    cfg.fault.flitCorruptRate = spec.faultRate;
    cfg.fault.flitDropRate = spec.faultRate;
    cfg.verify.interval = 256;
    cfg.verify.policy = AuditPolicy::kRecover;
    return cfg;
}

/** Run @p argv to completion with stdout+stderr in @p log; exit status. */
int
spawnAndWait(const std::vector<std::string> &argv, const std::string &log)
{
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        std::fprintf(stderr, "nordbench: cannot start %s: %s\n", args[0],
                     std::strerror(rc));
        return -1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** Numeric value of the first `"key":` at or after @p from (-1 if none). */
double
jsonNumber(const std::string &text, const std::string &key,
           std::size_t from = 0)
{
    const std::size_t at = text.find("\"" + key + "\":", from);
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + at + key.size() + 3, nullptr);
}

double
mtimeSeconds(const std::string &path)
{
    struct stat st {};
    if (stat(path.c_str(), &st) != 0)
        return 0.0;
    return static_cast<double>(st.st_mtim.tv_sec) +
           static_cast<double>(st.st_mtim.tv_nsec) * 1e-9;
}

double
realtimeNow()
{
    struct timespec ts {};
    clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** One point of a nord-campaign report. */
struct ReportPoint
{
    bool completed = false;
    bool drained = false;
    double endCycle = 0;
    double created = 0;
    double delivered = 0;
    double injectedFaults = 0;
};

std::vector<ReportPoint>
parseReport(const std::string &report)
{
    std::vector<ReportPoint> out;
    std::size_t at = report.find("\"points\":[");
    while (at != std::string::npos) {
        at = report.find("{\"spec\":", at + 1);
        if (at == std::string::npos)
            break;
        const std::size_t end = report.find('\n', at);
        const std::string line = report.substr(at, end - at);
        ReportPoint p;
        p.completed =
            line.find("\"status\":\"completed\"") != std::string::npos;
        p.drained = line.find("\"drained\":true") != std::string::npos;
        p.endCycle = jsonNumber(line, "endCycle");
        p.created = jsonNumber(line, "created");
        p.delivered = jsonNumber(line, "delivered");
        p.injectedFaults = jsonNumber(line, "injectedFaults");
        out.push_back(p);
    }
    return out;
}

/**
 * Facade replica of one campaign worker: the same config, traffic,
 * checkpoint schedule and drain as runPointWorker, with every layer
 * reachable for counting and timing.
 */
struct ReplicaResult
{
    Counters counters;
    double wall = 0.0;
    double saves = 0.0;
    std::vector<double> saveSeconds;
    double finalizeMs = 0.0;
    double latency = 0.0;
    double p99 = 0.0;
};

ReplicaResult
replicaPoint(const Options &o, Tracer &tr, const campaign::PointSpec &spec,
             const ReportPoint &cli, const std::string &work,
             std::vector<std::string> &problems, Run &r)
{
    ReplicaResult out;
    const campaign::WorkerOptions wopts;
    const std::string ckpt = work + "/replica.ckpt";
    SyntheticTraffic traffic(spec.pattern, spec.rate, spec.seed);
    std::unique_ptr<NocSystem> sys;
    {
        Span s(tr, "network.build");
        sys = std::make_unique<NocSystem>(campaignPointConfig(spec));
        sys->setWorkload(&traffic);
        out.wall += s.stop();
    }
    auto save = [&] {
        Span s(tr, "ckpt.save");
        if (!sys->saveCheckpoint(ckpt, {0, spec.id, 0, 0}))
            problems.push_back("replica checkpoint save failed");
        const double dt = s.stop();
        out.saveSeconds.push_back(dt);
        out.wall += dt;
        out.saves += 1.0;
    };
    while (sys->now() < spec.measure) {
        Span s(tr, "sim.run");
        sys->run(std::min(wopts.checkpointEvery, spec.measure - sys->now()));
        out.wall += s.stop();
        save();
    }
    gate(problems, hashRoundTrip(tr, *sys, work + "/roundtrip.ckpt"),
         "state hash changed across checkpoint save/load");
    if (o.trace && spec.design == PgDesign::kNord) {
        r.values["verify.sweep_us"] = probeSweep(tr, *sys);
        probeCheckpoint(tr, *sys, work + "/probe.ckpt", r);
    }
    sys->setWorkload(nullptr);
    save();
    const Cycle limit = spec.measure + wopts.drainBudget;
    bool done = sys->completionReached();
    while (!done && sys->now() < limit) {
        Span s(tr, "sim.drain");
        done = sys->runTowardCompletion(
            std::min(wopts.checkpointEvery, limit - sys->now()));
        out.wall += s.stop();
        if (!done)
            save();
    }
    double energyJ = 0.0;
    const double fin = finalizeAndPower(tr, *sys, &energyJ);
    out.wall += fin;
    out.finalizeMs = fin * 1e3;
    out.counters = Counters::of(*sys);
    out.latency = sys->stats().avgPacketLatency();
    out.p99 = sys->stats().latencyPercentile(0.99);

    const double faults = out.counters.faults;
    gate(problems,
         done && out.counters.cycles == cli.endCycle &&
             out.counters.created == cli.created &&
             out.counters.delivered == cli.delivered &&
             faults == cli.injectedFaults,
         std::string("in-process replica of ") + pgDesignName(spec.design) +
             " disagrees with the nord-campaign report");
    Span s(tr, "network.teardown");
    sys.reset();
    return out;
}

/**
 * A resilience campaign through the nord-campaign CLI (posix_spawn, one
 * worker, so workers start with a cold cache as users' do). One unit is
 * one CLI invocation of the 4-point grid.
 */
Run
runCampaign(const Options &o, Tracer &tr, const std::string &work)
{
    Run r;
    const std::vector<campaign::PointSpec> specs0 =
        campaign::expandGrid(campaignGrid(o.seed * 1000, o.smoke));
    std::vector<NocConfig> cfgs;
    for (const campaign::PointSpec &spec : specs0)
        cfgs.push_back(campaignPointConfig(spec));
    SetupSampler setup(tr, cfgs, o.smoke);

    std::vector<Unit> reps;
    std::vector<double> chunkMs;
    std::string report0;
    std::vector<ReportPoint> points0;
    double measured = 0.0;
    for (int rep = 0;; ++rep) {
        const std::uint64_t seed = o.seed * 1000 + rep;
        const campaign::GridSpec g = campaignGrid(seed, o.smoke);
        const std::string dir = work + "/cli-" + std::to_string(rep);
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir, ec);
        char rates[64], faults[64];
        std::snprintf(rates, sizeof(rates), "%g", g.rates[0]);
        std::snprintf(faults, sizeof(faults), "%g", g.faultRates[0]);
        const std::vector<std::string> argv = {
            o.campaignBin, "--out", dir, "--designs",
            "nopg,convpg,convpgopt,nord", "--rows", "8", "--cols", "8",
            "--rates", rates, "--fault-rates", faults, "--cycles",
            std::to_string(g.measure), "--seeds", std::to_string(seed),
            "--workers", "1", "--min-delivered", "0.99"};
        const double spawnedAt = realtimeNow();
        Span cli(tr, "campaign.cli");
        const int rc = spawnAndWait(argv, dir + "/cli.log");
        Unit unit;
        unit.wall = cli.stop();

        const std::string report = readFile(dir + "/report.json");
        const std::vector<ReportPoint> pts = parseReport(report);
        double prev = spawnedAt;
        for (std::size_t i = 0; i < specs0.size(); ++i) {
            std::vector<std::string> problems;
            gate(problems, rc == 0, "nord-campaign exited with " +
                                        std::to_string(rc));
            const bool ok = i < pts.size() && pts[i].completed &&
                            pts[i].drained;
            gate(problems, ok,
                 "campaign point " + std::to_string(i) +
                     " not completed and drained (quarantined?)");
            if (ok) {
                const double done = mtimeSeconds(
                    campaign::pointPaths(dir, i).result);
                chunkMs.push_back((done - prev) * 1e3 /
                                  (pts[i].endCycle / kChunk));
                prev = done;
                unit.cycles += pts[i].endCycle;
                unit.packets += pts[i].delivered;
            }
            r.tally(problems);
        }
        reps.push_back(unit);
        if (rep == 0) {
            report0 = report;
            points0 = pts;
        } else {
            fs::remove_all(dir, ec);
        }
        measured += unit.wall;
        setup.advance(progress(measured, o.seconds));
        if (measured + unit.wall > o.seconds)
            break;
    }
    setup.finish(r);
    r.digest = fnv(r.digest, report0.data(), report0.size());
    points0.resize(specs0.size());

    // The worker body in-process, cold like a fresh worker: allocation
    // count per packet, and its result bytes must equal the CLI's.
    CriticalityCache::instance().clear();
    std::error_code ec;
    fs::create_directories(work + "/worker", ec);
    std::vector<double> pointS;
    double allocs = 0.0, packets0 = 0.0;
    for (const campaign::PointSpec &spec : specs0) {
        std::vector<std::string> problems;
        const campaign::PointPaths paths =
            campaign::pointPaths(work + "/worker", spec.id);
        Span s(tr, "campaign.point");
        const std::uint64_t a0 = g_allocs;
        const int rc =
            campaign::runPointWorker(spec, paths, campaign::WorkerOptions{});
        const std::uint64_t a1 = g_allocs;
        pointS.push_back(s.stop());
        allocs += static_cast<double>(a1 - a0);
        packets0 += points0[spec.id].delivered;
        gate(problems, rc == 0,
             "in-process runPointWorker exited " + std::to_string(rc));
        gate(problems,
             readFile(paths.result) ==
                 readFile(campaign::pointPaths(work + "/cli-0", spec.id)
                              .result),
             "in-process worker result differs from the CLI's");
        r.tally(problems);
    }

    Counters count;
    double replicaWall = 0.0, saves = 0.0;
    std::vector<double> saveSeconds, finalizeMs, latency, p99;
    for (const campaign::PointSpec &spec : specs0) {
        std::vector<std::string> problems;
        const ReplicaResult rr = replicaPoint(o, tr, spec, points0[spec.id],
                                              work, problems, r);
        count = count.combine(rr.counters, 1.0);
        replicaWall += rr.wall;
        saves += rr.saves;
        saveSeconds.insert(saveSeconds.end(), rr.saveSeconds.begin(),
                           rr.saveSeconds.end());
        finalizeMs.push_back(rr.finalizeMs);
        latency.push_back(rr.latency);
        p99.push_back(rr.p99);
        r.tally(problems);
    }

    addUnitMetrics(r, reps, chunkMs);
    r.values["allocs_per_packet"] = ratio(allocs, packets0);

    addCountMetrics(r, count);
    addTimingMetrics(r, count, replicaWall);
    r.values["stats.sim_latency_cycles"] =
        sum(latency) / static_cast<double>(latency.size());
    r.values["stats.sim_p99_latency_cycles"] =
        sum(p99) / static_cast<double>(p99.size());
    r.values["stats.finalize_ms"] = median(finalizeMs);
    r.values["verify.share"] = ratio(
        count.sweeps * r.values["verify.sweep_us"] * 1e-6, replicaWall);
    r.values["ckpt.share"] =
        ratio(saves * median(saveSeconds), sum(pointS));
    r.values["campaign.point_s"] = median(pointS);
    r.values["campaign.overhead_s_per_point"] =
        (reps[0].wall - sum(pointS)) / static_cast<double>(specs0.size());
    if (o.trace) {
        r.values["topology.criticality_s"] = criticalitySeconds(tr, 8, 8);
        r.values["network.build_s"] = warmBuild(tr, cfgs);
    }
    return r;
}

// --- Output --------------------------------------------------------------------

void
usage(std::FILE *f)
{
    std::fprintf(
        f,
        "usage: nordbench --workload W [--seed N] [--seconds S] "
        "[--trace 0|1]\n"
        "                 [--out DIR] [--campaign-bin PATH] [--smoke]\n"
        "workloads: parsec_4x4 lowload_8x8_nord highload_8x8_nopg "
        "campaign_faults_8x8\n");
}

bool
parseArgs(int argc, char **argv, Options *o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--smoke") {
            o->smoke = true;
        } else if (!hasValue) {
            return false;
        } else if (a == "--workload") {
            o->workload = argv[++i];
        } else if (a == "--seed") {
            o->seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            o->seconds = std::atof(argv[++i]);
        } else if (a == "--trace") {
            o->trace = std::string(argv[++i]) == "1";
        } else if (a == "--out") {
            o->outDir = argv[++i];
        } else if (a == "--campaign-bin") {
            o->campaignBin = argv[++i];
        } else {
            return false;
        }
    }
    if (o->smoke)
        o->seconds = 0.0;
    return !o->workload.empty();
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace
}  // namespace nordbench

int
main(int argc, char **argv)
{
    using namespace nordbench;
    Options o;
    const std::map<std::string, std::function<Run(const Options &, Tracer &,
                                                  const std::string &)>>
        workloads = {
            {"parsec_4x4", runParsec},
            {"lowload_8x8_nord",
             [](const Options &opt, Tracer &tr, const std::string &work) {
                 return runOpenLoop(opt, tr, work,
                                    {PgDesign::kNord, 0.005, 10'000, 50'000,
                                     2});
             }},
            {"highload_8x8_nopg",
             [](const Options &opt, Tracer &tr, const std::string &work) {
                 return runOpenLoop(opt, tr, work,
                                    {PgDesign::kNoPg, 0.30, 10'000, 10'000,
                                     2});
             }},
            {"campaign_faults_8x8", runCampaign},
        };
    if (!parseArgs(argc, argv, &o) || !workloads.count(o.workload)) {
        usage(stderr);
        return 2;
    }
    if (o.campaignBin.empty()) {
        std::error_code ec;
        o.campaignBin =
            (fs::read_symlink("/proc/self/exe", ec).parent_path() /
             "nord-campaign")
                .string();
    }
    if (o.workload == "campaign_faults_8x8" &&
        access(o.campaignBin.c_str(), X_OK) != 0) {
        std::fprintf(stderr, "nordbench: no nord-campaign at %s\n",
                     o.campaignBin.c_str());
        return 2;
    }
    const std::string tag = o.workload + "-s" + std::to_string(o.seed) +
                            "-t" + (o.trace ? "1" : "0");
    const std::string work = o.outDir + "/work-" + tag;
    std::error_code ec;
    fs::remove_all(work, ec);
    if (!fs::create_directories(work, ec) && ec) {
        std::fprintf(stderr, "nordbench: cannot create %s: %s\n",
                     work.c_str(), ec.message().c_str());
        return 2;
    }

    Tracer tracer(o.trace, o.workload);
    Run r;
    {
        Span root(tracer, "bench.workload");
        r = workloads.at(o.workload)(o, tracer, work);
    }
    fs::remove_all(work, ec);
    r.values["peak_rss_mib"] = peakRssMiB(
        o.workload == "campaign_faults_8x8" ? RUSAGE_CHILDREN : RUSAGE_SELF);

    std::printf("# nordbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
    std::printf("# samples:");
    for (const auto &kv : r.samples)
        std::printf(" %s=%.0f", kv.first.c_str(), kv.second);
    std::printf("\n");

    if (o.trace) {
        // Tracing cost: spans recorded x the measured cost of one span.
        const double root = tracer.rootSeconds();
        const double cost =
            static_cast<double>(tracer.size()) * spanCostSeconds();
        r.values["trace.overhead_frac"] = ratio(cost, root - cost);
        std::printf("# %-12s %12s %8s\n", "layer", "self_ms", "share");
        for (const auto &kv : tracer.layerSelfTimes())
            std::printf("# %-12s %12.3f %8.4f\n", kv.first.c_str(),
                        kv.second * 1e3, ratio(kv.second, root));
        const std::string traceFile = o.outDir + "/trace-" + tag + ".json";
        std::printf("# trace coverage %.4f over %zu spans -> %s\n",
                    tracer.coverage(), tracer.size(), traceFile.c_str());
        if (!tracer.writeChrome(traceFile))
            r.failures.push_back("cannot write " + traceFile);
    }

    const auto *defs = o.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
    const auto *defsEnd = o.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
    std::string metrics;
    for (const MetricDef *d = defs; d != defsEnd; ++d) {
        double v = r.values.count(d->name) ? r.values[d->name] : 0.0;
        if (!std::isfinite(v)) {
            r.failures.push_back(std::string("metric ") + d->name +
                                 " is not finite");
            v = 0.0;
        }
        std::printf("%s %.9g %s\n", d->name, v, d->unit);
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
                   d->name + "\": {\"value\": " + jsonNum(v) +
                   ", \"unit\": \"" + d->unit + "\"}";
    }
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(r.digest));
    std::printf("sim_digest %s fnv64\n", digest);
    for (const std::string &f : r.failures)
        std::fprintf(stderr, "nordbench: FAILED: %s\n", f.c_str());

    const bool correct = r.failures.empty() && r.failed == 0;
    const std::string line =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" +
        metrics + "}}";

    std::string samples;
    for (const auto &kv : r.samples)
        samples += std::string(samples.empty() ? "" : ", ") + "\"" +
                   kv.first + "\": " + jsonNum(kv.second);
    std::ofstream doc(o.outDir + "/" + tag + ".json");
    doc << "{\"schema\": \"nordbench-result-1\", \"workload\": \""
        << o.workload << "\", \"seed\": " << o.seed
        << ", \"seconds\": " << jsonNum(o.seconds)
        << ", \"trace\": " << (o.trace ? 1 : 0)
        << ", \"smoke\": " << (o.smoke ? "true" : "false")
        << ", \"sim_digest\": \"" << digest << "\""
        << ", \"trace_coverage\": " << jsonNum(tracer.coverage())
        << ", \"samples\": {" << samples << "}, \"result\": " << line
        << "}\n";

    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
}
