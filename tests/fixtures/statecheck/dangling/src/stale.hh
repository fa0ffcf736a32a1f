// Planted violation: the trailing NORD_STATE_EXCLUDE binds to no member
// declaration (the member it used to cover was deleted). Expected
// finding: dangling-exclude.
#ifndef FIXTURE_STALE_HH
#define FIXTURE_STALE_HH

class Stale : public Clocked
{
  public:
    void tick(Cycle now) override;
    void serializeState(StateSerializer &s);

  private:
    int value_ = 0;
    NORD_STATE_EXCLUDE(stat, "the counter this covered was deleted")
};

#endif
