/**
 * @file
 * Unidirectional flit and credit links.
 *
 * A link is a fixed-latency delay line: the sender pushes a payload with a
 * due cycle, and during the network's delivery phase the link hands every
 * due payload to its sink. Flit links point at a router input port (which
 * may redirect into the NI bypass latch when the router is gated off);
 * credit links point back at the upstream router's output port.
 */

#ifndef NORD_NETWORK_LINK_HH
#define NORD_NETWORK_LINK_HH

#include <string>

#include "common/arena.hh"
#include "common/flit.hh"
#include "common/state_annotations.hh"
#include "common/types.hh"
#include "sim/clocked.hh"

namespace nord {

class Router;
class StateSerializer;

/**
 * Delay line carrying flits from an upstream router/NI to a downstream
 * router input port.
 */
class FlitLink : public Clocked
{
  public:
    /**
     * @param dst downstream router
     * @param inPort input port of @p dst this link feeds
     * @param arena optional pool for the in-flight queue (null = heap)
     */
    FlitLink(Router *dst, Direction inPort, PoolArena *arena = nullptr);

    /** Schedule @p flit for delivery at cycle @p due (wakes the link). */
    void push(const Flit &flit, Cycle due);

    /** Deliver all due flits into the downstream router. */
    void tick(Cycle now) override;

    /** An empty delay line has nothing to deliver. */
    bool quiescent() const override { return queue_.empty(); }

    /** True when no flit is in flight. */
    bool empty() const { return queue_.empty(); }

    /** Number of in-flight flits. */
    size_t inFlight() const { return queue_.size(); }

    /** Total flit traversals since construction (for link energy). */
    std::uint64_t traversals() const { return traversals_; }

    // --- Introspection (InvariantAuditor) ---------------------------------
    /** Downstream router this link feeds. */
    const Router *dst() const { return dst_; }

    /** Input port of the downstream router this link feeds. */
    Direction inPort() const { return inPort_; }

    /** Number of in-flight flits currently travelling on VC @p vc. */
    int inFlightForVc(VcId vc) const;

    /** Visit every in-flight flit (oldest first). */
    template <typename Fn>
    void forEachInFlight(Fn &&fn) const
    {
        for (const Entry &e : queue_)
            fn(e.flit);
    }

    /**
     * Fault injection (testing only): silently drop the oldest in-flight
     * flit, as a buggy link or router would. Returns false when empty.
     *
     * Note this physically removes the flit, breaking conservation -- it
     * exists to prove the auditor detects such bugs. Modeled transient
     * faults use injectTransientFault() instead, which keeps the phit in
     * flight so flow control stays coherent.
     */
    bool injectFlitDrop();

    /**
     * Transient link fault on the oldest in-flight flit. The phit still
     * arrives (wormhole flow control and conservation stay intact) but its
     * content is damaged: with @p destroyFraming the receiving NI cannot
     * parse it and discards it silently (timeout recovery); otherwise
     * @p xorMask is XORed into the payload so the checksum fails at the
     * receiver (NACK / fast-retransmit recovery). Returns false when the
     * link is empty.
     */
    bool injectTransientFault(bool destroyFraming, std::uint64_t xorMask);

    /** Checkpoint hook: in-flight flits and the traversal counter. */
    void serializeState(StateSerializer &s);

    std::string name() const override;

  private:
    struct Entry
    {
        Flit flit;
        Cycle due;
    };

    NORD_STATE_EXCLUDE(config, "wiring; set once by NocSystem::buildLinks")
    Router *dst_;
    NORD_STATE_EXCLUDE(config, "wiring; set once by NocSystem::buildLinks")
    Direction inPort_;
    ArenaRing<Entry> queue_;
    std::uint64_t traversals_ = 0;
};

/**
 * Delay line carrying credits from a downstream input port back to the
 * upstream router's output port.
 */
class CreditLink : public Clocked
{
  public:
    /**
     * @param dst upstream router receiving the credits
     * @param outPort output port of @p dst the credits replenish
     * @param arena optional pool for the in-flight queue (null = heap)
     */
    CreditLink(Router *dst, Direction outPort, PoolArena *arena = nullptr);

    /** Schedule a credit for VC @p vc at cycle @p due (wakes the link). */
    void push(VcId vc, Cycle due);

    /** Deliver all due credits to the upstream router. */
    void tick(Cycle now) override;

    /** An empty delay line has nothing to deliver. */
    bool quiescent() const override { return queue_.empty(); }

    /** True when no credit is in flight. */
    bool empty() const { return queue_.empty(); }

    // --- Introspection (InvariantAuditor) ---------------------------------
    /** Upstream router receiving these credits. */
    const Router *dst() const { return dst_; }

    /** Output port of the upstream router the credits replenish. */
    Direction outPort() const { return outPort_; }

    /** Number of in-flight credits for VC @p vc. */
    int inFlightForVc(VcId vc) const;

    /** Checkpoint hook: in-flight credits. */
    void serializeState(StateSerializer &s);

    std::string name() const override;

  private:
    struct Entry
    {
        VcId vc;
        Cycle due;
    };

    NORD_STATE_EXCLUDE(config, "wiring; set once by NocSystem::buildLinks")
    Router *dst_;
    NORD_STATE_EXCLUDE(config, "wiring; set once by NocSystem::buildLinks")
    Direction outPort_;
    ArenaRing<Entry> queue_;
};

}  // namespace nord

#endif  // NORD_NETWORK_LINK_HH
