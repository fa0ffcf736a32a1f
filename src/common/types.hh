/**
 * @file
 * Fundamental scalar types and enumerations shared by every NoRD module.
 *
 * The conventions follow the paper's terminology: a *node* is the bundle of
 * core + caches + network interface (NI) attached to one router; flits move
 * between routers over unidirectional links; each input port holds a set of
 * virtual channels split into an adaptive class and an escape class
 * (Duato's Protocol).
 */

#ifndef NORD_COMMON_TYPES_HH
#define NORD_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <string>

namespace nord {

/** Simulation time unit: one router clock cycle. */
using Cycle = std::uint64_t;

/** Flat node / router identifier (row-major in a mesh). */
using NodeId = std::int32_t;

/** Virtual-channel index within an input port. */
using VcId = std::int32_t;

/** Monotonically increasing packet identifier. */
using PacketId = std::uint64_t;

/** Sentinel for "no node". */
inline constexpr NodeId kInvalidNode = -1;

/**
 * Largest mesh, in nodes: a flit's route history (recordVisit in
 * flit.hh) keeps node ids as std::int16_t.
 */
inline constexpr int kMaxMeshNodes = std::numeric_limits<std::int16_t>::max();

/** Sentinel for "no VC". */
inline constexpr VcId kInvalidVc = -1;

/** Sentinel cycle meaning "never". */
inline constexpr Cycle kNeverCycle =
    std::numeric_limits<Cycle>::max();

/**
 * Router port direction in a 2-D mesh. kLocal is the NI port.
 * The numeric values are used to index port arrays.
 */
enum class Direction : std::int8_t {
    kNorth = 0,
    kEast = 1,
    kSouth = 2,
    kWest = 3,
    kLocal = 4,
};

/** Number of ports on a canonical 2-D mesh router (4 mesh + 1 local). */
inline constexpr int kNumPorts = 5;

/** Number of mesh (non-local) directions. */
inline constexpr int kNumMeshDirs = 4;

/** Convert a Direction to its array index. */
constexpr int
dirIndex(Direction d)
{
    return static_cast<int>(d);
}

/** Convert an array index back to a Direction. */
constexpr Direction
indexDir(int i)
{
    return static_cast<Direction>(i);
}

/** The mesh direction opposite to @p d (kLocal maps to itself). */
constexpr Direction
opposite(Direction d)
{
    switch (d) {
      case Direction::kNorth: return Direction::kSouth;
      case Direction::kEast: return Direction::kWest;
      case Direction::kSouth: return Direction::kNorth;
      case Direction::kWest: return Direction::kEast;
      default: return Direction::kLocal;
    }
}

/** Short human-readable name for a direction. */
const char *dirName(Direction d);

/**
 * Virtual-channel class under Duato's Protocol.
 *
 * Escape VCs are restricted to a deadlock-free sub-network (XY in the
 * conventional designs, the Bypass Ring in NoRD); adaptive VCs may route
 * fully adaptively.
 */
enum class VcClass : std::int8_t {
    kEscape = 0,
    kAdaptive = 1,
};

/** Flit position within its packet. */
enum class FlitType : std::int8_t {
    kHead = 0,
    kBody = 1,
    kTail = 2,
    kHeadTail = 3,  ///< single-flit packet
};

/** True for kHead and kHeadTail. */
constexpr bool
isHead(FlitType t)
{
    return t == FlitType::kHead || t == FlitType::kHeadTail;
}

/** True for kTail and kHeadTail. */
constexpr bool
isTail(FlitType t)
{
    return t == FlitType::kTail || t == FlitType::kHeadTail;
}

/**
 * Power-gating design under evaluation (Section 5.1 of the paper).
 */
enum class PgDesign : std::int8_t {
    kNoPg = 0,        ///< baseline, no power-gating
    kConvPg = 1,      ///< conventional power-gating of routers
    kConvPgOpt = 2,   ///< conventional + early wakeup optimization
    kNord = 3,        ///< node-router decoupling (this paper)
};

/** Name of a power-gating design, matching the paper's labels. */
const char *pgDesignName(PgDesign d);

/** Power state of a router. */
enum class PowerState : std::int8_t {
    kOn = 0,        ///< full Vdd, pipeline operational
    kOff = 1,       ///< gated off (NoRD: bypass active)
    kWakingUp = 2,  ///< sleep signal de-asserted, Vdd ramping
};

/** Name of a power state. */
const char *powerStateName(PowerState s);

}  // namespace nord

#endif  // NORD_COMMON_TYPES_HH
