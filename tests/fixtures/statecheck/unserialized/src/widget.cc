#include "widget.hh"

void
Widget::tick(Cycle now)
{
    count_ += 1;
    phase_ = (phase_ + 1) % 4;
}

void
Widget::serializeState(StateSerializer &s)
{
    s.io(count_);
}
