// Planted violation: phase_ is live state but never serialized and
// carries no NORD_STATE_EXCLUDE. Expected finding: unserialized-member.
#ifndef FIXTURE_WIDGET_HH
#define FIXTURE_WIDGET_HH

class Widget : public Clocked
{
  public:
    void tick(Cycle now) override;
    void serializeState(StateSerializer &s);

  private:
    int count_ = 0;
    int phase_ = 0;  // <-- forgotten in serializeState
};

#endif
