/**
 * @file
 * Chip-level Bypass Ring construction (Section 4.2 of the paper).
 *
 * One input port (the Bypass Inport) and one output port (the Bypass
 * Outport) are chosen at every router such that, collectively, the
 * (inport, outport) pairs form a unidirectional Hamiltonian ring connecting
 * all nodes. Even when every router is gated off, packets can traverse the
 * ring through the NI bypass datapaths, so all NIs stay connected.
 */

#ifndef NORD_TOPOLOGY_BYPASS_RING_HH
#define NORD_TOPOLOGY_BYPASS_RING_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "topology/mesh.hh"

namespace nord {

/**
 * A unidirectional Hamiltonian cycle over a 2-D mesh.
 *
 * Construction (for an even number of rows): head east along row 0,
 * serpentine through rows 1..rows-1 between columns 1..cols-1, then return
 * north along column 0. This touches every node exactly once using only
 * mesh links.
 */
class BypassRing
{
  public:
    /** Build the canonical ring for @p mesh. Rows must be even. */
    explicit BypassRing(const MeshTopology &mesh);

    /** Build a ring from an explicit node order; dies with the first of
     *  problems(mesh, order), if any. */
    BypassRing(const MeshTopology &mesh, std::vector<NodeId> order);

    /**
     * Every rule @p order breaks as a ring over @p mesh, one message each;
     * empty when it is a Hamiltonian cycle over mesh links: every node
     * exactly once, every consecutive hop (and the closing one) a mesh
     * link. Never aborts.
     */
    static std::vector<std::string> problems(const MeshTopology &mesh,
                                             const std::vector<NodeId> &order);

    /** Next node downstream on the ring. */
    NodeId successor(NodeId node) const { return succ_[node]; }

    /** Previous node upstream on the ring. */
    NodeId predecessor(NodeId node) const { return pred_[node]; }

    /**
     * The Bypass Outport of @p node: the mesh output direction that leads
     * to its ring successor.
     */
    Direction bypassOutport(NodeId node) const { return outport_[node]; }

    /**
     * The Bypass Inport of @p node: the mesh input direction on which ring
     * traffic from its predecessor arrives.
     */
    Direction bypassInport(NodeId node) const { return inport_[node]; }

    /** Ring hop distance from @p from to @p to (0 when equal). */
    int ringDistance(NodeId from, NodeId to) const;

    /** The node order of the cycle starting at node 0. */
    const std::vector<NodeId> &order() const { return order_; }

    /**
     * True if the directed ring edge from @p node crosses the dateline
     * (the edge leaving the last node in the order back to the first).
     * Escape VC selection uses this to break the ring's cyclic channel
     * dependence with two VCs.
     */
    bool crossesDateline(NodeId node) const
    {
        return pos_[node] == static_cast<int>(order_.size()) - 1;
    }

  private:
    std::vector<NodeId> order_;
    std::vector<NodeId> succ_;
    std::vector<NodeId> pred_;
    std::vector<Direction> outport_;
    std::vector<Direction> inport_;
    std::vector<int> pos_;
};

}  // namespace nord

#endif  // NORD_TOPOLOGY_BYPASS_RING_HH
