/**
 * @file
 * Fault-campaign configuration: the rates of the transient faults and the
 * knobs of the end-to-end resilience layer.
 *
 * Every configured fault is a Bernoulli transient, drawn every cycle from
 * the dedicated kFaults RNG stream, so traffic replay stays bit-identical
 * with the campaign on or off (the traffic generator draws from its own
 * stream). A one-off fault is a direct call on the running system:
 *  - a permanently dead router is NocSystem::killRouter(id);
 *  - a wakeup-suppression window (a stuck-at-off controller, or one lost
 *    WU command) is controller(id).injectWakeupSuppression(until).
 */

#ifndef NORD_FAULT_FAULT_CONFIG_HH
#define NORD_FAULT_FAULT_CONFIG_HH

#include "common/types.hh"

namespace nord {

/**
 * Campaign + resilience-layer configuration, embedded in NocConfig.
 *
 * All rates are per-candidate-component per-cycle probabilities; with
 * every rate zero the injector never perturbs anything (and with
 * enabled=false it is not even constructed).
 */
struct FaultConfig
{
    /** Master switch: construct and register the FaultInjector. */
    bool enabled = false;

    /**
     * Per non-empty link per cycle: flip bits in the oldest in-flight
     * flit's payload (the receiver's checksum catches it and NACKs for a
     * fast retransmit).
     */
    double flitCorruptRate = 0.0;

    /**
     * Per non-empty link per cycle: destroy the oldest flit's framing. The
     * phit still arrives (flow control intact) but is silently discarded,
     * so recovery relies on the sender's retransmission timeout.
     */
    double flitDropRate = 0.0;

    /**
     * Per router per cycle: leak one credit on a random output VC,
     * deflating the upstream counter until the auditor's recover policy
     * repairs it.
     */
    double creditLeakRate = 0.0;

    /**
     * Per gated controller per cycle: lose its wakeup commands for
     * FaultInjector::kLostWakeupStall cycles.
     */
    double lostWakeupRate = 0.0;

    // --- End-to-end resilience layer (NI) ---

    /** Enable sequence numbers, checksums, ACK/NACK and retransmission. */
    bool e2e = false;

    /** Cycles to wait for an ACK before the first retransmission. */
    Cycle retransTimeout = 256;

    /** Retransmissions per packet before declaring it failed. */
    int retryLimit = 8;
};

}  // namespace nord

#endif  // NORD_FAULT_FAULT_CONFIG_HH
