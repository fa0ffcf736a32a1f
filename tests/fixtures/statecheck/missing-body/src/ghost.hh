// Planted violation: Ghost declares serializeState but no definition
// exists anywhere in the tree, so the walk cannot be checked. Expected
// finding: missing-serialize-body.
#ifndef FIXTURE_GHOST_HH
#define FIXTURE_GHOST_HH

class Ghost : public Clocked
{
  public:
    void tick(Cycle now) override;
    void serializeState(StateSerializer &s);

  private:
    int depth_ = 0;
};

#endif
