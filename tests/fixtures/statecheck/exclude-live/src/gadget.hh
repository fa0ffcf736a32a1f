// Planted violation: credits_ carries NORD_STATE_EXCLUDE but the
// serializeState walk includes it -- the annotation lies about live
// state. Expected finding: exclude-but-serialized.
#ifndef FIXTURE_GADGET_HH
#define FIXTURE_GADGET_HH

class Gadget : public Clocked
{
  public:
    void tick(Cycle now) override;
    void serializeState(StateSerializer &s);

  private:
    NORD_STATE_EXCLUDE(stat, "claims to be a counter, but it is serialized")
    int credits_ = 0;
};

#endif
