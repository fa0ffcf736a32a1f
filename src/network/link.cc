/**
 * @file
 * Flit and credit link implementation.
 */

#include "network/link.hh"

#include "ckpt/state_serializer.hh"
#include "common/log.hh"
#include "router/router.hh"

namespace nord {

namespace {

/**
 * Initial ring capacity of a link's delay line. A router sends at most
 * one flit per output per cycle with a 3-cycle ST+LT latency (one credit
 * per input per cycle with a 1-cycle latency), so four slots cover the
 * usual in-flight count; a bypass re-injection squeezed in between grows
 * the ring once.
 */
constexpr std::size_t kInitialLinkSlots = 4;

}  // namespace

FlitLink::FlitLink(Router *dst, Direction inPort, PoolArena *arena)
    : dst_(dst), inPort_(inPort), queue_(ArenaAllocator<Entry>(arena))
{
    NORD_ASSERT(dst != nullptr, "flit link without a sink");
    queue_.reserve(kInitialLinkSlots);
}

void
FlitLink::push(const Flit &flit, Cycle due)
{
    // A link is one flit wide: serialize in push order. This also keeps
    // FIFO when a fast bypass re-injection follows a slower pipeline
    // traversal onto the same wire around a power-state transition.
    if (!queue_.empty() && queue_.back().due >= due)
        due = queue_.back().due + 1;
    queue_.push_back({flit, due});
    ++traversals_;
    kernelWake();
}

void
FlitLink::tick(Cycle now)
{
    while (!queue_.empty() && queue_.front().due <= now) {
        dst_->acceptFlit(inPort_, queue_.front().flit, now);
        queue_.pop_front();
    }
}

int
FlitLink::inFlightForVc(VcId vc) const
{
    int count = 0;
    for (const Entry &e : queue_) {
        if (e.flit.vc == vc)
            ++count;
    }
    return count;
}

bool
FlitLink::injectFlitDrop()
{
    if (queue_.empty())
        return false;
    queue_.pop_front();
    return true;
}

bool
FlitLink::injectTransientFault(bool destroyFraming, std::uint64_t xorMask)
{
    if (queue_.empty())
        return false;
    Flit &f = queue_.front().flit;
    if (destroyFraming) {
        f.faultFlags |= kFaultDropped;
    } else {
        // Any non-zero mask flips at least one checksum bit, since the
        // checksum is a plain XOR fold of the payload.
        f.payload ^= (xorMask != 0 ? xorMask : 1);
    }
    return true;
}

void
FlitLink::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("FLNK"));
    s.ioSequence(queue_, [&s](Entry &e) {
        s.io(e.flit);
        s.io(e.due);
    });
    s.io(traversals_);
}


std::string
FlitLink::name() const
{
    return "flink->" + std::to_string(dst_->id()) + dirName(inPort_);
}

CreditLink::CreditLink(Router *dst, Direction outPort, PoolArena *arena)
    : dst_(dst), outPort_(outPort), queue_(ArenaAllocator<Entry>(arena))
{
    NORD_ASSERT(dst != nullptr, "credit link without a sink");
    queue_.reserve(kInitialLinkSlots);
}

void
CreditLink::push(VcId vc, Cycle due)
{
    NORD_ASSERT(queue_.empty() || queue_.back().due <= due,
                "credit link reordering");
    queue_.push_back({vc, due});
    kernelWake();
}

void
CreditLink::tick(Cycle now)
{
    while (!queue_.empty() && queue_.front().due <= now) {
        dst_->acceptCredit(outPort_, queue_.front().vc, now);
        queue_.pop_front();
    }
}

int
CreditLink::inFlightForVc(VcId vc) const
{
    int count = 0;
    for (const Entry &e : queue_) {
        if (e.vc == vc)
            ++count;
    }
    return count;
}

void
CreditLink::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("CLNK"));
    s.ioSequence(queue_, [&s](Entry &e) {
        s.io(e.vc);
        s.io(e.due);
    });
}


std::string
CreditLink::name() const
{
    return "clink->" + std::to_string(dst_->id()) + dirName(outPort_);
}

}  // namespace nord
