/**
 * @file
 * k-ary 2-D mesh topology helpers.
 *
 * Nodes are numbered row-major: node id = row * cols + col, with row 0 at
 * the "north" edge. Direction::kNorth decreases the row index.
 */

#ifndef NORD_TOPOLOGY_MESH_HH
#define NORD_TOPOLOGY_MESH_HH

#include "common/fixed_list.hh"
#include "common/types.hh"

namespace nord {

/**
 * Immutable description of a 2-D mesh.
 */
class MeshTopology
{
  public:
    /**
     * @param rows number of rows (must be >= 2 and even for the bypass
     *             ring construction)
     * @param cols number of columns (must be >= 2)
     */
    MeshTopology(int rows, int cols);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int numNodes() const { return rows_ * cols_; }

    /** Row of @p node. */
    int rowOf(NodeId node) const { return node / cols_; }

    /** Column of @p node. */
    int colOf(NodeId node) const { return node % cols_; }

    /** Node at (@p row, @p col). */
    NodeId nodeAt(int row, int col) const { return row * cols_ + col; }

    /** True if @p node is a valid node id. */
    bool valid(NodeId node) const
    {
        return node >= 0 && node < numNodes();
    }

    /**
     * Neighbor of @p node in mesh direction @p d, or kInvalidNode if that
     * direction leaves the mesh (or d == kLocal).
     */
    NodeId neighbor(NodeId node, Direction d) const;

    /**
     * Direction from @p from to an adjacent node @p to.
     * Panics if the nodes are not mesh neighbors.
     */
    Direction directionTo(NodeId from, NodeId to) const;

    /** True if the two nodes are mesh-adjacent. */
    bool adjacent(NodeId a, NodeId b) const;

    /** Manhattan (minimal) hop distance. */
    int manhattan(NodeId a, NodeId b) const;

    /**
     * The set of minimal (productive) mesh directions from @p from
     * towards @p to (X first, at most one per dimension). Empty when
     * from == to.
     */
    FixedList<Direction, 2> minimalDirections(NodeId from, NodeId to) const;

    /**
     * The single dimension-order (XY: X first, then Y) direction from
     * @p from towards @p to, or kLocal when from == to.
     */
    Direction xyDirection(NodeId from, NodeId to) const;

  private:
    int rows_;
    int cols_;
};

}  // namespace nord

#endif  // NORD_TOPOLOGY_MESH_HH
