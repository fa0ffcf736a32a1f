#include "gadget.hh"

void
Gadget::tick(Cycle now)
{
    credits_ -= 1;
}

void
Gadget::serializeState(StateSerializer &s)
{
    s.io(credits_);
}
