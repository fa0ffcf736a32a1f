#include "ghost.hh"

void
Ghost::tick(Cycle now)
{
    depth_ += 1;
}

// serializeState deliberately left undefined.
