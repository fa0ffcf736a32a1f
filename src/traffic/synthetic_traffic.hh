/**
 * @file
 * Open-loop synthetic traffic generators (Section 5.2).
 *
 * Per-node Bernoulli injection processes with bimodal packet lengths:
 * short single-flit packets and long 5-flit packets, assigned uniformly.
 * Destination patterns: uniform random, bit-complement, transpose and
 * hotspot.
 */

#ifndef NORD_TRAFFIC_SYNTHETIC_TRAFFIC_HH
#define NORD_TRAFFIC_SYNTHETIC_TRAFFIC_HH

#include <vector>

#include "common/rng.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "traffic/workload.hh"

namespace nord {

/** Destination selection pattern. */
enum class TrafficPattern
{
    kUniformRandom,
    kBitComplement,
    kTranspose,
    kHotspot,
};

/** Name string for a pattern. */
const char *trafficPatternName(TrafficPattern p);

/**
 * Open-loop injector: each node independently generates packets at a
 * configured flit rate.
 */
class SyntheticTraffic : public Workload
{
  public:
    /**
     * @param pattern destination pattern
     * @param flitsPerNodeCycle injection rate (flits/node/cycle)
     * @param seed RNG seed
     * @param shortLen short packet length (flits)
     * @param longLen long packet length (flits)
     * @param longFraction fraction of packets that are long (0.5 =
     *        "uniformly assigned two lengths")
     */
    SyntheticTraffic(TrafficPattern pattern, double flitsPerNodeCycle,
                     std::uint64_t seed = 1, int shortLen = 1,
                     int longLen = 5, double longFraction = 0.5);

    void bind(NocSystem &system) override;
    void tick(Cycle now) override;

    /** Change the injection rate mid-run (for sweeps). */
    void setRate(double flitsPerNodeCycle);

    /** Checkpoint hook: RNG position and the (mutable) injection rate. */
    void serializeState(StateSerializer &s) override;

  private:
    NodeId pickDestination(NodeId src);

    NORD_STATE_EXCLUDE(config, "traffic pattern fixed at construction")
    TrafficPattern pattern_;
    double flitRate_;
    double packetRate_ = 0.0;
    NORD_STATE_EXCLUDE(config, "packet geometry fixed at construction")
    int shortLen_;
    NORD_STATE_EXCLUDE(config, "packet geometry fixed at construction")
    int longLen_;
    NORD_STATE_EXCLUDE(config, "packet geometry fixed at construction")
    double longFraction_;
    Rng rng_;
    NORD_STATE_EXCLUDE(config, "mesh size fixed at construction")
    int numNodes_ = 0;
};

}  // namespace nord

#endif  // NORD_TRAFFIC_SYNTHETIC_TRAFFIC_HH
