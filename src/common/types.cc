/**
 * @file
 * String names for the shared enumerations.
 */

#include "common/types.hh"

namespace nord {

const char *
dirName(Direction d)
{
    switch (d) {
      case Direction::kNorth: return "N";
      case Direction::kEast: return "E";
      case Direction::kSouth: return "S";
      case Direction::kWest: return "W";
      case Direction::kLocal: return "L";
    }
    return "?";
}

const char *
pgDesignName(PgDesign d)
{
    switch (d) {
      case PgDesign::kNoPg: return "No_PG";
      case PgDesign::kConvPg: return "Conv_PG";
      case PgDesign::kConvPgOpt: return "Conv_PG_OPT";
      case PgDesign::kNord: return "NoRD";
    }
    return "?";
}

const char *
powerStateName(PowerState s)
{
    switch (s) {
      case PowerState::kOn: return "on";
      case PowerState::kOff: return "off";
      case PowerState::kWakingUp: return "waking";
    }
    return "?";
}

}  // namespace nord
