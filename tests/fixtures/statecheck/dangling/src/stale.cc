#include "stale.hh"

void
Stale::tick(Cycle now)
{
    value_ += 1;
}

void
Stale::serializeState(StateSerializer &s)
{
    s.io(value_);
}
