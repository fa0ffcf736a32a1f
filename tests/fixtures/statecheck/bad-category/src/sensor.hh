// Planted violations, one per legality rule:
//  - scratch_: unknown category "scrach" (typo) -> bad-exclude-category
//  - mode_: 'config' member assigned inside tick()  -> bad-exclude-category
//  - hits_: 'perf_counter' outside src/sim|common   -> bad-exclude-category
//    (this fixture file lives at src/sensor.hh, not src/sim/...)
//  - shadow_: 'cache' member never written anywhere -> bad-exclude-category
#ifndef FIXTURE_SENSOR_HH
#define FIXTURE_SENSOR_HH

class Sensor : public Clocked
{
  public:
    void tick(Cycle now) override;
    void serializeState(StateSerializer &s);

  private:
    int level_ = 0;
    NORD_STATE_EXCLUDE(scrach, "typo in the category token")
    int scratch_ = 0;
    NORD_STATE_EXCLUDE(config, "claims to be fixed, but tick writes it")
    int mode_ = 0;
    NORD_STATE_EXCLUDE(perf_counter, "perf counters only live in sim/common")
    int hits_ = 0;
    NORD_STATE_EXCLUDE(cache, "claims derived state, but nothing writes it")
    int shadow_ = 0;
};

#endif
