// A fully covered component: every member is serialized, annotated, or
// auto-exempt (static/const/reference). nord-statecheck must exit 0.
#ifndef FIXTURE_MODEL_HH
#define FIXTURE_MODEL_HH

class Model : public Clocked
{
  public:
    void tick(Cycle now) override;
    void serializeState(StateSerializer &s);

  private:
    struct Slot
    {
        int value = 0;
        int age = 0;
    };

    static int instances_;          // static: auto-exempt
    const int capacity_ = 8;        // const: auto-exempt
    int head_ = 0;                  // serialized
    std::vector<Slot> slots_;       // serialized (value/age via the walk)
    NORD_STATE_EXCLUDE(config, "wiring; set once at build time")
    Peer *peer_ = nullptr;
    NORD_STATE_EXCLUDE(stat, "observational; loss on restore is fine")
    long ticks_ = 0;
    NORD_STATE_EXCLUDE(cache, "memo of the last scan; rebuilt next tick")
    int lastScan_ = 0;
};

#endif
