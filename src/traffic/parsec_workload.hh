/**
 * @file
 * Closed-loop PARSEC-like workload models (Section 5.2 substitution).
 *
 * The paper drives its network from full-system Simics/GEMS runs of the
 * ten PARSEC 2.0 benchmarks. That stack is replaced here by a closed-loop
 * memory-transaction model per core: each core alternates compute gaps
 * and memory transactions (request to an L2 bank or memory controller,
 * reply back), with a bounded number of outstanding misses. Because the
 * loop is closed, network latency feeds back into issue timing, so the
 * measured "execution time" (cycle at which every core finishes its
 * transaction script) degrades with packet latency exactly as in the
 * paper's Figure 12.
 *
 * Per-benchmark parameters are calibrated so the router idleness spectrum
 * matches Section 3.1 (x264 busiest at ~30% idle, blackscholes lightest
 * at ~71% idle, >61% of idle periods at or below the breakeven time).
 */

#ifndef NORD_TRAFFIC_PARSEC_WORKLOAD_HH
#define NORD_TRAFFIC_PARSEC_WORKLOAD_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "traffic/workload.hh"

namespace nord {

/**
 * Tuning knobs of one benchmark model.
 */
struct ParsecParams
{
    std::string name;
    double computeGapMean;   ///< mean cycles between issues in a burst
    int maxOutstanding;      ///< MLP: concurrent outstanding transactions
    double writeFraction;    ///< writes (5-flit request, 1-flit ack)
    double memFraction;      ///< transactions that miss to memory
    double activeMean;       ///< mean cycles of a (barrier-synchronized)
                             ///< active phase in which cores miss
    double quietMean;        ///< mean cycles of the compute-bound quiet
                             ///< phase between active phases
    double noiseRate;        ///< per-core/cycle probability of background
                             ///< traffic (coherence, OS, prefetch) that
                             ///< trickles through even in quiet phases --
                             ///< the intermittent arrivals of Figure 3
    int transactionsPerCore; ///< script length
};

/** The ten PARSEC 2.0 benchmarks used in the paper. */
const std::vector<ParsecParams> &parsecSuite();

/** Look up one benchmark model by name (fatal if unknown). */
const ParsecParams &parsecByName(const std::string &name);

/**
 * Closed-loop request/reply workload.
 *
 * Transactions: a core issues a read (1-flit request, 5-flit data reply)
 * or a write (5-flit data request, 1-flit ack). The home node is an L2
 * bank chosen by address hash; a memFraction of transactions instead go
 * to one of the four corner memory controllers with an extra service
 * latency (Table 1: 128 cycles memory, 6 cycles L2 bank).
 */
class ParsecWorkload : public Workload
{
  public:
    ParsecWorkload(const ParsecParams &params, std::uint64_t seed = 1);

    void bind(NocSystem &system) override;
    void tick(Cycle now) override;
    void onDelivery(const Flit &tail, Cycle now) override;
    bool done() const override;

    /** Transactions completed so far (all cores). */
    std::uint64_t completedTransactions() const { return completed_; }

    /** Total transactions scripted (all cores). */
    std::uint64_t totalTransactions() const { return total_; }

    const ParsecParams &params() const { return params_; }

    /**
     * Checkpoint hook: phase schedule, per-core scripts and RNGs, pending
     * replies and completion tallies.
     */
    void serializeState(StateSerializer &s) override;

  private:
    struct Core
    {
        int remaining = 0;     ///< transactions not yet issued
        int outstanding = 0;   ///< issued, reply not yet received
        Cycle nextIssue = 0;   ///< earliest cycle of the next issue
        Rng rng{1};            ///< private stream: draw order depends only
                               ///< on this core's issue count, so traffic
                               ///< is identical across compared designs
    };

    /** A request that arrived at its home node and awaits service. */
    struct PendingReply
    {
        NodeId home;
        NodeId requester;
        Cycle due;
        bool isWrite;
        bool isNoise = false;
    };

    void issueTransaction(NodeId core, Cycle now);

    NORD_STATE_EXCLUDE(config, "workload shape fixed at construction")
    ParsecParams params_;
    Rng phaseRng_;             ///< phase schedule (identical across runs)
    bool phaseActive_ = false;
    Cycle phaseEnd_ = 0;
    std::vector<Core> cores_;
    /** Requests waiting at their home node, in no particular order:
     *  each tick services the due ones by swap-and-pop. */
    std::vector<PendingReply> replies_;
    std::uint64_t completed_ = 0;
    std::uint64_t total_ = 0;
    NORD_STATE_EXCLUDE(config, "mesh size fixed at construction")
    int numNodes_ = 0;
    NORD_STATE_EXCLUDE(config, "each core's banks within two hops, "
                       "derived from the mesh at bind()")
    std::vector<std::vector<NodeId>> nearBanks_;

    static constexpr Cycle kL2Latency = 6;
    static constexpr Cycle kMemLatency = 128;
    static constexpr std::uint64_t kReplyBit = 1ULL << 63;
    static constexpr std::uint64_t kWriteBit = 1ULL << 62;
    static constexpr std::uint64_t kNoiseBit = 1ULL << 61;

    std::uint64_t noiseOutstanding_ = 0;
    Rng noiseRng_{7777};
};

}  // namespace nord

#endif  // NORD_TRAFFIC_PARSEC_WORKLOAD_HH
