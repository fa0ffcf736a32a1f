/**
 * @file
 * Fault-campaign configuration: the fault taxonomy, scheduled fault events
 * and the knobs of the end-to-end resilience layer.
 *
 * Faults come in two flavors:
 *  - Bernoulli transients, drawn every cycle from the dedicated kFaults RNG
 *    stream (flit corruption/drop on links, credit leaks, lost wakeups).
 *    Traffic replay stays bit-identical with the campaign on or off because
 *    the traffic generator draws from its own stream.
 *  - Scheduled events at fixed cycles (permanently dead router, stuck-at
 *    PG controller), for reproducible single-fault experiments.
 */

#ifndef NORD_FAULT_FAULT_CONFIG_HH
#define NORD_FAULT_FAULT_CONFIG_HH

#include <vector>

#include "common/types.hh"

namespace nord {

/** The classes of fault the injector can produce. */
enum class FaultClass
{
    /** Transient bit flips in an in-flight flit's payload (checksum catches
        it at the receiver, which NACKs for a fast retransmit). */
    kFlitCorrupt,
    /** Transient framing loss of an in-flight flit: the phit still arrives
        (flow control intact) but is unparseable and silently discarded, so
        recovery relies on the sender's retransmission timeout. */
    kFlitDrop,
    /** A credit message is lost, permanently deflating an upstream credit
        counter until the auditor's recover mode repairs it. */
    kCreditLeak,
    /** A gated PG controller ignores wakeup commands for a while
        (stuck-at-off); the wakeup watchdog eventually force-wakes it. */
    kStuckPg,
    /** One wakeup command is lost in flight; modeled as a short stuck-at
        window around the loss. */
    kLostWakeup,
    /** The router fails permanently. NoRD demotes it to always-gated and
        serves its node over the bypass ring; baselines pin it on and eat
        (drop + account) packets that route into it. */
    kDeadRouter,
};

/** Name string for a fault class. */
const char *faultClassName(FaultClass cls);

/** A fault scheduled at a fixed cycle (kDeadRouter / kStuckPg). */
struct FaultEvent
{
    Cycle at = 0;               ///< injection cycle
    FaultClass cls = FaultClass::kDeadRouter;
    NodeId node = kInvalidNode; ///< afflicted router
    Cycle duration = 0;         ///< kStuckPg: suppression window length
};

/**
 * Campaign + resilience-layer configuration, embedded in NocConfig.
 *
 * All rates are per-candidate-component per-cycle probabilities; with
 * every rate zero and no schedule the injector never perturbs anything
 * (and with enabled=false it is not even constructed).
 */
struct FaultConfig
{
    /** Master switch: construct and register the FaultInjector. */
    bool enabled = false;

    /** Per non-empty link per cycle: corrupt the oldest in-flight flit. */
    double flitCorruptRate = 0.0;

    /** Per non-empty link per cycle: destroy the oldest flit's framing. */
    double flitDropRate = 0.0;

    /** Per router per cycle: leak one credit on a random output VC. */
    double creditLeakRate = 0.0;

    /** Per gated controller per cycle: lose its wakeup commands. */
    double lostWakeupRate = 0.0;

    /** Length of the wakeup-suppression window a lost wakeup causes. */
    Cycle lostWakeupStall = 64;

    /** Scheduled deterministic events (sorted by the injector). */
    std::vector<FaultEvent> schedule;

    // --- End-to-end resilience layer (NI) ---

    /** Enable sequence numbers, checksums, ACK/NACK and retransmission. */
    bool e2e = false;

    /** Cycles to wait for an ACK before the first retransmission. */
    Cycle retransTimeout = 256;

    /** Retransmissions per packet before declaring it failed. */
    int retryLimit = 8;

    /**
     * Wakeup watchdog: a gated router whose latched wakeup request has
     * been pending this long is force-woken by an independent supervisor,
     * recovering lost/stuck wakeups. 0 disables the watchdog. Never fires
     * in a fault-free run (a healthy controller wakes immediately).
     */
    Cycle wakeupWatchdog = 128;
};

}  // namespace nord

#endif  // NORD_FAULT_FAULT_CONFIG_HH
