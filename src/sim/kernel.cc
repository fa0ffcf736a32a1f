/**
 * @file
 * Simulation kernel implementation.
 */

#include "sim/kernel.hh"

#include <algorithm>

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
    active_.push_back(1);
    activeIdx_.push_back(objects_.size() - 1);
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
    activeIdx_.resize(objects_.size());
    for (std::size_t i = 0; i < objects_.size(); ++i) {
        activeIdx_[i] = i;
        active_[i] = 1;
    }
}

void
SimKernel::wake(std::size_t slot)
{
    NORD_ASSERT(slot < objects_.size(), "wake of unregistered slot");
    if (active_[slot])
        return;
    active_[slot] = 1;
    auto it = std::lower_bound(activeIdx_.begin(), activeIdx_.end(), slot);
    const auto idx = static_cast<std::size_t>(it - activeIdx_.begin());
    activeIdx_.insert(it, slot);
    // Mid-pass insert at or before the cursor: bump it so the component
    // currently being ticked is not re-visited and later components are
    // not skipped. The woken slot itself runs next cycle -- identical to
    // the serial kernel, where its tick this cycle already happened (as
    // a no-op, since it was quiescent before the waking event).
    if (inTick_ && idx <= cursor_)
        ++cursor_;
}

bool
SimKernel::isActive(const Clocked *obj) const
{
    NORD_ASSERT(obj != nullptr && obj->kernel_ == this,
                "isActive on foreign component");
    return active_[obj->kernelSlot_] != 0;
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
        for (cursor_ = 0; cursor_ < activeIdx_.size();) {
            const std::size_t slot = activeIdx_[cursor_];
            Clocked *obj = objects_[slot];
            obj->tick(now_);
            ++ticked;
            if (obj->quiescent()) {
                // Lazy deactivation: drop the slot now that its tick is
                // committed. erase() keeps the list sorted.
                active_[slot] = 0;
                activeIdx_.erase(activeIdx_.begin() +
                                 static_cast<std::ptrdiff_t>(cursor_));
            } else {
                ++cursor_;
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
