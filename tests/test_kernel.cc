/**
 * @file
 * Unit tests for the simulation kernel and synthetic traffic sources.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "network/noc_system.hh"
#include "sim/kernel.hh"
#include "traffic/synthetic_traffic.hh"

namespace nord {
namespace {

/** Records the cycles and order in which it was ticked. */
class Probe : public Clocked
{
  public:
    explicit Probe(std::vector<int> *log, int id) : log_(log), id_(id) {}
    void tick(Cycle) override { log_->push_back(id_); }
    std::string name() const override { return "probe"; }

  private:
    std::vector<int> *log_;
    int id_;
};

TEST(SimKernel, TicksInRegistrationOrder)
{
    SimKernel kernel;
    std::vector<int> log;
    Probe a(&log, 1);
    Probe b(&log, 2);
    Probe c(&log, 3);
    kernel.add(&a);
    kernel.add(&b);
    kernel.add(&c);
    kernel.run(2);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 1, 2, 3}));
    EXPECT_EQ(kernel.now(), 2u);
}

TEST(SimKernel, RunUntilStopsAtPredicate)
{
    SimKernel kernel;
    std::vector<int> log;
    Probe a(&log, 1);
    kernel.add(&a);
    bool hit = kernel.runUntil([&] { return log.size() >= 5; }, 100);
    EXPECT_TRUE(hit);
    EXPECT_EQ(kernel.now(), 5u);
}

TEST(SimKernel, RunUntilHonorsLimit)
{
    SimKernel kernel;
    std::vector<int> log;
    Probe a(&log, 1);
    kernel.add(&a);
    bool hit = kernel.runUntil([] { return false; }, 7);
    EXPECT_FALSE(hit);
    EXPECT_EQ(kernel.now(), 7u);
}

/**
 * Probe with a controllable quiescence flag and a wake hook, to exercise
 * the kernel's active set directly.
 */
class SleepyProbe : public Clocked
{
  public:
    SleepyProbe(std::vector<int> *log, int id) : log_(log), id_(id) {}
    void tick(Cycle) override
    {
        log_->push_back(id_);
        ++ticks;
        if (wakeTarget != nullptr) {
            wakeTarget->kernelWake();
            wakeTarget = nullptr;
        }
    }
    bool quiescent() const override { return sleepy; }
    std::string name() const override { return "sleepy"; }

    bool sleepy = false;
    int ticks = 0;
    Clocked *wakeTarget = nullptr;  ///< woken during our next tick

  private:
    std::vector<int> *log_;
    int id_;
};

TEST(SimKernel, QuiescentObjectsAreSkipped)
{
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe a(&log, 1);
    SleepyProbe b(&log, 2);
    kernel.add(&a);
    kernel.add(&b);
    a.sleepy = true;
    kernel.run(1);
    // Cycle 0: both tick (a's quiescence is only observed after its
    // tick), then a drops out of the active set.
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(kernel.tickedLastCycle(), 2u);
    EXPECT_FALSE(kernel.isActive(&a));
    EXPECT_TRUE(kernel.isActive(&b));
    kernel.run(3);
    EXPECT_EQ(a.ticks, 1);
    EXPECT_EQ(b.ticks, 4);
    EXPECT_EQ(kernel.tickedLastCycle(), 1u);
    EXPECT_EQ(kernel.skippedLastCycle(), 1u);
    EXPECT_EQ(kernel.skippedTotal(), 3u);
}

TEST(SimKernel, WakeRearmsASkippedObject)
{
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe a(&log, 1);
    kernel.add(&a);
    a.sleepy = true;
    kernel.run(2);
    EXPECT_EQ(a.ticks, 1);
    a.sleepy = false;
    a.kernelWake();
    kernel.run(2);
    EXPECT_EQ(a.ticks, 3);
    EXPECT_TRUE(kernel.isActive(&a));
    // Waking an already-active object is a no-op.
    a.kernelWake();
    kernel.run(1);
    EXPECT_EQ(a.ticks, 4);
}

TEST(SimKernel, WakeOfLaterSlotTicksSameCycle)
{
    // Satellite regression: a producer waking a consumer registered
    // AFTER it must see the consumer tick the very same cycle -- exactly
    // what the serial kernel would do.
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe producer(&log, 1);
    SleepyProbe consumer(&log, 2);
    kernel.add(&producer);
    kernel.add(&consumer);
    consumer.sleepy = true;
    kernel.run(1);  // consumer ticks once, then parks
    log.clear();
    consumer.sleepy = false;
    producer.wakeTarget = &consumer;
    kernel.run(1);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(SimKernel, WakeOfEarlierSlotDuringTickDoesNotInvalidateIteration)
{
    // Satellite regression (the registration-order hazard): an NI-like
    // object waking a router-like object registered BEFORE it, mid-cycle,
    // must neither re-tick the earlier object this cycle (serially its
    // tick already happened as a no-op) nor skip/corrupt the rest of the
    // pass.
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe router(&log, 1);
    SleepyProbe ni(&log, 2);
    SleepyProbe after(&log, 3);
    kernel.add(&router);
    kernel.add(&ni);
    kernel.add(&after);
    router.sleepy = true;
    kernel.run(1);  // router parks after this cycle
    log.clear();
    router.sleepy = false;
    ni.wakeTarget = &router;
    kernel.run(1);
    // The woken (earlier) router must NOT run this cycle; `after` must
    // still run exactly once.
    EXPECT_EQ(log, (std::vector<int>{2, 3}));
    log.clear();
    kernel.run(1);
    // Next cycle the router is back in registration order.
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(SimKernel, SelfWakeDuringOwnTickIsSafe)
{
    // An object that re-arms itself from inside its own tick while
    // reporting quiescent must not break the pass; the wake lands after
    // its bit is cleared, so it stays active for the next cycle.
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe a(&log, 1);
    SleepyProbe b(&log, 2);
    kernel.add(&a);
    kernel.add(&b);
    a.sleepy = true;
    b.wakeTarget = &a;  // b wakes a in the same cycle a parks
    kernel.run(1);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_TRUE(kernel.isActive(&a));
    kernel.run(1);
    EXPECT_EQ(a.ticks, 2);
}

/**
 * 130 probes that ticked once and parked: slots 0-63, 64-127 and
 * 128-129 fill three words of the kernel's active bitmap.
 */
struct ParkedFleet
{
    explicit ParkedFleet(SimKernel &kernel)
    {
        for (int i = 0; i < 130; ++i) {
            probes.push_back(std::make_unique<SleepyProbe>(&log, i));
            probes.back()->sleepy = true;
            kernel.add(probes.back().get());
        }
        kernel.run(1);
        log.clear();
    }

    SleepyProbe &operator[](int i) { return *probes[i]; }

    std::vector<int> log;
    std::vector<std::unique_ptr<SleepyProbe>> probes;
};

TEST(SimKernel, MidPassWakeOfLaterSlotCrossesWordBoundaries)
{
    // 63 is the last bit of word 0, 64 the first of word 1, 129 sits in
    // word 2: each wake is for a later slot, so it ticks this same pass.
    SimKernel kernel;
    ParkedFleet f(kernel);
    f[63].wakeTarget = &f[64];
    f[64].wakeTarget = &f[129];
    f[63].kernelWake();
    kernel.run(1);
    EXPECT_EQ(f.log, (std::vector<int>{63, 64, 129}));
    EXPECT_EQ(kernel.tickedLastCycle(), 3u);
    f.log.clear();
    kernel.run(1);
    EXPECT_TRUE(f.log.empty());
    EXPECT_EQ(kernel.skippedLastCycle(), 130u);
}

TEST(SimKernel, MidPassWakeOfEarlierSlotWaitsAcrossWordBoundaries)
{
    // Wakes for slots at or before the one being ticked -- in an earlier
    // word, or earlier in the same word -- land next cycle: 64 wakes 63,
    // 65 wakes 0, and 129 re-wakes 64 after 64 has ticked and parked.
    SimKernel kernel;
    ParkedFleet f(kernel);
    f[64].wakeTarget = &f[63];
    f[65].wakeTarget = &f[0];
    f[129].wakeTarget = &f[64];
    f[64].kernelWake();
    f[65].kernelWake();
    f[129].kernelWake();
    kernel.run(1);
    EXPECT_EQ(f.log, (std::vector<int>{64, 65, 129}));
    EXPECT_TRUE(kernel.isActive(&f[0]));
    EXPECT_TRUE(kernel.isActive(&f[63]));
    EXPECT_TRUE(kernel.isActive(&f[64]));
    EXPECT_FALSE(kernel.isActive(&f[65]));
    EXPECT_FALSE(kernel.isActive(&f[129]));
    f.log.clear();
    kernel.run(1);
    EXPECT_EQ(f.log, (std::vector<int>{0, 63, 64}));
    f.log.clear();
    kernel.run(1);
    EXPECT_TRUE(f.log.empty());
}

TEST(SimKernel, SkipDisabledTicksEverything)
{
    SimKernel kernel;
    std::vector<int> log;
    SleepyProbe a(&log, 1);
    kernel.add(&a);
    a.sleepy = true;
    kernel.setSkipEnabled(false);
    kernel.run(5);
    EXPECT_EQ(a.ticks, 5);
    EXPECT_EQ(kernel.skippedTotal(), 0u);
    // Re-enabling re-arms everything and resumes skipping.
    kernel.setSkipEnabled(true);
    kernel.run(5);
    EXPECT_EQ(a.ticks, 6);
}

TEST(SimKernel, TickedPlusSkippedCoversGatedSet)
{
    // System-level counter check: every cycle ticked + skipped must
    // cover all components, and once an idle NoRD network settles with
    // every router gated, every gated router must actually be out of the
    // active set (its links drain and park alongside it).
    NocConfig cfg;
    cfg.design = PgDesign::kNord;
    NocSystem sys(cfg);
    sys.run(400);  // no traffic: all 16 routers gate off and settle
    ASSERT_EQ(sys.countInState(PowerState::kOff), cfg.numNodes());
    for (int i = 0; i < 50; ++i) {
        sys.run(1);
        EXPECT_EQ(sys.kernel().tickedLastCycle() +
                      sys.kernel().skippedLastCycle(),
                  sys.kernel().numComponents());
        int gatedSkipped = 0;
        for (NodeId id = 0; id < cfg.numNodes(); ++id) {
            ASSERT_EQ(sys.controller(id).state(), PowerState::kOff);
            if (!sys.kernel().isActive(&sys.router(id)))
                ++gatedSkipped;
        }
        EXPECT_EQ(gatedSkipped, cfg.numNodes());
        // The skipped set covers at least the gated routers.
        EXPECT_GE(sys.kernel().skippedLastCycle(),
                  static_cast<std::uint64_t>(cfg.numNodes()));
    }
    // Traffic through the parked fabric still delivers: the wake edges
    // re-register the skipped links/routers as the flit advances.
    const std::uint64_t delivered = sys.stats().packetsDelivered();
    sys.inject(0, 15, 4);
    ASSERT_TRUE(sys.runToCompletion(5000));
    EXPECT_EQ(sys.stats().packetsDelivered(), delivered + 1);
}

TEST(SyntheticTraffic, RateIsRespected)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.10, 3);
    sys.setWorkload(&traffic);
    sys.run(50000);
    // flits injected ~= rate * nodes * cycles.
    const double expected = 0.10 * 16 * 50000;
    EXPECT_NEAR(static_cast<double>(sys.stats().flitsInjected()),
                expected, 0.08 * expected);
}

TEST(SyntheticTraffic, BimodalLengths)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem sys(cfg);
    SyntheticTraffic traffic(TrafficPattern::kUniformRandom, 0.05, 3);
    sys.setWorkload(&traffic);
    sys.run(30000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(10000));
    // Average packet length must be ~(1+5)/2 = 3 flits.
    const double avgLen =
        static_cast<double>(sys.stats().flitsDelivered()) /
        static_cast<double>(sys.stats().packetsDelivered());
    EXPECT_NEAR(avgLen, 3.0, 0.2);
}

TEST(SyntheticTraffic, BitComplementDestinations)
{
    NocConfig cfg;
    cfg.design = PgDesign::kNoPg;
    NocSystem sys(cfg);
    // Bit-complement of (r, c) in 4x4: (3-r, 3-c): node 0 -> 15.
    SyntheticTraffic traffic(TrafficPattern::kBitComplement, 0.05, 3);
    sys.setWorkload(&traffic);
    sys.run(5000);
    sys.setWorkload(nullptr);
    ASSERT_TRUE(sys.runToCompletion(10000));
    // All delivered at complement nodes: hop count == manhattan + 1 of
    // the complement pairs; for 4x4 all pairs have distance >= 2.
    EXPECT_GT(sys.stats().avgHops(), 3.0);
    EXPECT_EQ(sys.ni(15).packetsReceived(),
              sys.stats().packetsDelivered() - [&] {
                  std::uint64_t other = 0;
                  for (NodeId n = 0; n < 15; ++n)
                      other += sys.ni(n).packetsReceived();
                  return other;
              }());
}

TEST(SyntheticTraffic, PatternNames)
{
    EXPECT_STREQ(trafficPatternName(TrafficPattern::kUniformRandom),
                 "uniform_random");
    EXPECT_STREQ(trafficPatternName(TrafficPattern::kBitComplement),
                 "bit_complement");
    EXPECT_STREQ(trafficPatternName(TrafficPattern::kTranspose),
                 "transpose");
    EXPECT_STREQ(trafficPatternName(TrafficPattern::kHotspot), "hotspot");
}

TEST(NocConfigTest, ValidationCatchesBadSetups)
{
    NocConfig cfg;
    cfg.numEscapeVcs = 4;  // == numVcs: no adaptive class left
    EXPECT_EXIT({ cfg.validate(); }, ::testing::ExitedWithCode(1), "");

    NocConfig odd;
    odd.rows = 3;
    EXPECT_EXIT({ odd.validate(); }, ::testing::ExitedWithCode(1), "");

    NocConfig nordOneEscape;
    nordOneEscape.design = PgDesign::kNord;
    nordOneEscape.numVcs = 4;
    nordOneEscape.numEscapeVcs = 1;
    EXPECT_EXIT({ nordOneEscape.validate(); },
                ::testing::ExitedWithCode(1), "");
}

TEST(NocConfigTest, VcClassHelpers)
{
    NocConfig cfg;  // 4 VCs, 2 escape
    EXPECT_EQ(cfg.vcClassOf(0), VcClass::kEscape);
    EXPECT_EQ(cfg.vcClassOf(1), VcClass::kEscape);
    EXPECT_EQ(cfg.vcClassOf(2), VcClass::kAdaptive);
    EXPECT_EQ(cfg.vcClassOf(3), VcClass::kAdaptive);
    EXPECT_EQ(cfg.firstVcOf(VcClass::kEscape), 0);
    EXPECT_EQ(cfg.firstVcOf(VcClass::kAdaptive), 2);
    EXPECT_EQ(cfg.numVcsOf(VcClass::kEscape), 2);
    EXPECT_EQ(cfg.numVcsOf(VcClass::kAdaptive), 2);
}

TEST(TypesTest, DirectionHelpers)
{
    EXPECT_EQ(opposite(Direction::kNorth), Direction::kSouth);
    EXPECT_EQ(opposite(Direction::kEast), Direction::kWest);
    EXPECT_EQ(opposite(Direction::kLocal), Direction::kLocal);
    EXPECT_EQ(indexDir(dirIndex(Direction::kWest)), Direction::kWest);
    EXPECT_STREQ(pgDesignName(PgDesign::kNord), "NoRD");
    EXPECT_STREQ(powerStateName(PowerState::kWakingUp), "waking");
    EXPECT_TRUE(isHead(FlitType::kHeadTail));
    EXPECT_TRUE(isTail(FlitType::kHeadTail));
    EXPECT_FALSE(isHead(FlitType::kBody));
    EXPECT_FALSE(isTail(FlitType::kHead));
}

}  // namespace
}  // namespace nord
