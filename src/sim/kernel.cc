/**
 * @file
 * Simulation kernel implementation.
 */

#include "sim/kernel.hh"

#include <bit>

#include "ckpt/state_serializer.hh"
#include "common/log.hh"

namespace nord {

void
Clocked::kernelWake()
{
    if (kernel_ != nullptr)
        kernel_->wake(kernelSlot_);
}

void
SimKernel::add(Clocked *obj)
{
    NORD_ASSERT(obj != nullptr, "null component");
    NORD_ASSERT(!inTick_, "component registered mid-cycle");
    obj->kernel_ = this;
    obj->kernelSlot_ = objects_.size();
    objects_.push_back(obj);
    if (activeBits_.size() * 64 < objects_.size())
        activeBits_.push_back(0);
    wake(obj->kernelSlot_);
}

void
SimKernel::setSkipEnabled(bool enabled)
{
    skipEnabled_ = enabled;
    wakeAll();
}

void
SimKernel::wakeAll()
{
    NORD_ASSERT(!inTick_, "wakeAll mid-cycle");
    for (std::size_t slot = 0; slot < objects_.size(); ++slot)
        wake(slot);
}

void
SimKernel::wake(std::size_t slot)
{
    NORD_ASSERT(slot < objects_.size(), "wake of unregistered slot");
    activeBits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
}

bool
SimKernel::isActive(const Clocked *obj) const
{
    NORD_ASSERT(obj != nullptr && obj->kernel_ == this,
                "isActive on foreign component");
    const std::size_t slot = obj->kernelSlot_;
    return (activeBits_[slot / 64] >> (slot % 64)) & 1;
}

void
SimKernel::stepOne()
{
    if (!skipEnabled_) {
        for (Clocked *obj : objects_)
            obj->tick(now_);
        tickedLast_ = objects_.size();
        skippedLast_ = 0;
        tickedTotal_ += tickedLast_;
    } else {
        inTick_ = true;
        std::uint64_t ticked = 0;
        for (std::size_t w = 0; w < activeBits_.size(); ++w) {
            std::uint64_t bits = activeBits_[w];
            while (bits != 0) {
                const int bit = std::countr_zero(bits);
                Clocked *obj = objects_[w * 64 + bit];
                obj->tick(now_);
                ++ticked;
                // Lazy deactivation, now that the tick is committed.
                if (obj->quiescent())
                    activeBits_[w] &= ~(std::uint64_t{1} << bit);
                // Re-read the word: the tick may have woken later slots
                // (ticked this pass); bits at or below this slot wait
                // for the next cycle.
                bits = activeBits_[w] & ~((std::uint64_t{2} << bit) - 1);
            }
        }
        inTick_ = false;
        tickedLast_ = ticked;
        skippedLast_ = objects_.size() - ticked;
        tickedTotal_ += tickedLast_;
        skippedTotal_ += skippedLast_;
    }
    ++now_;
}

void
SimKernel::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        stepOne();
}

void
SimKernel::serializeState(StateSerializer &s)
{
    s.section(StateSerializer::tag4("KERN"));
    s.io(now_);
    // Every other member carries a NORD_STATE_EXCLUDE annotation in
    // kernel.hh; nord-lint's state-coverage rules keep the two in sync.
}

bool
SimKernel::runUntil(const std::function<bool()> &done, Cycle maxCycles)
{
    for (Cycle i = 0; i < maxCycles; ++i) {
        stepOne();
        if (done())
            return true;
    }
    return done();
}

}  // namespace nord
