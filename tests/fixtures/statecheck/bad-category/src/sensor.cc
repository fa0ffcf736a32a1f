#include "sensor.hh"

void
Sensor::tick(Cycle now)
{
    level_ += 1;
    scratch_ = level_ * 2;
    mode_ = level_ & 1;
    hits_ += 1;
}

void
Sensor::serializeState(StateSerializer &s)
{
    s.io(level_);
}
