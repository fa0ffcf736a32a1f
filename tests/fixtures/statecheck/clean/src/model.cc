#include "model.hh"

void
Model::tick(Cycle now)
{
    head_ = (head_ + 1) % capacity_;
    ticks_ += 1;
    lastScan_ = head_;
    peer_->poke(now);
}

void
Model::serializeState(StateSerializer &s)
{
    s.io(head_);
    for (auto &slot : slots_) {
        s.io(slot.value);
        s.io(slot.age);
    }
}
