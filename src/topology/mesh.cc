/**
 * @file
 * 2-D mesh topology implementation.
 */

#include "topology/mesh.hh"

#include <cstdint>
#include <cstdlib>

#include "common/log.hh"

namespace nord {

MeshTopology::MeshTopology(int rows, int cols)
    : rows_(rows), cols_(cols)
{
    if (rows < 2 || cols < 2)
        NORD_FATAL("mesh must be at least 2x2, got %dx%d", rows, cols);
    const std::int64_t nodes = std::int64_t{rows} * cols;
    if (nodes > kMaxMeshNodes)
        NORD_FATAL("mesh must have at most %d nodes, got %dx%d = %lld",
                   kMaxMeshNodes, rows, cols, static_cast<long long>(nodes));
}

NodeId
MeshTopology::neighbor(NodeId node, Direction d) const
{
    NORD_ASSERT(valid(node), "node %d out of range", node);
    int r = rowOf(node);
    int c = colOf(node);
    switch (d) {
      case Direction::kNorth: r -= 1; break;
      case Direction::kSouth: r += 1; break;
      case Direction::kEast: c += 1; break;
      case Direction::kWest: c -= 1; break;
      case Direction::kLocal: return kInvalidNode;
    }
    if (r < 0 || r >= rows_ || c < 0 || c >= cols_)
        return kInvalidNode;
    return nodeAt(r, c);
}

Direction
MeshTopology::directionTo(NodeId from, NodeId to) const
{
    int dr = rowOf(to) - rowOf(from);
    int dc = colOf(to) - colOf(from);
    if (dr == -1 && dc == 0)
        return Direction::kNorth;
    if (dr == 1 && dc == 0)
        return Direction::kSouth;
    if (dr == 0 && dc == 1)
        return Direction::kEast;
    if (dr == 0 && dc == -1)
        return Direction::kWest;
    NORD_PANIC("nodes %d and %d are not adjacent", from, to);
}

bool
MeshTopology::adjacent(NodeId a, NodeId b) const
{
    if (!valid(a) || !valid(b))
        return false;
    int dr = std::abs(rowOf(a) - rowOf(b));
    int dc = std::abs(colOf(a) - colOf(b));
    return dr + dc == 1;
}

int
MeshTopology::manhattan(NodeId a, NodeId b) const
{
    return std::abs(rowOf(a) - rowOf(b)) + std::abs(colOf(a) - colOf(b));
}

FixedList<Direction, 2>
MeshTopology::minimalDirections(NodeId from, NodeId to) const
{
    FixedList<Direction, 2> dirs;
    int dr = rowOf(to) - rowOf(from);
    int dc = colOf(to) - colOf(from);
    if (dc > 0)
        dirs.push_back(Direction::kEast);
    else if (dc < 0)
        dirs.push_back(Direction::kWest);
    if (dr > 0)
        dirs.push_back(Direction::kSouth);
    else if (dr < 0)
        dirs.push_back(Direction::kNorth);
    return dirs;
}

Direction
MeshTopology::xyDirection(NodeId from, NodeId to) const
{
    int dc = colOf(to) - colOf(from);
    if (dc > 0)
        return Direction::kEast;
    if (dc < 0)
        return Direction::kWest;
    int dr = rowOf(to) - rowOf(from);
    if (dr > 0)
        return Direction::kSouth;
    if (dr < 0)
        return Direction::kNorth;
    return Direction::kLocal;
}

}  // namespace nord
