/**
 * @file
 * Bypass Ring construction.
 */

#include "topology/bypass_ring.hh"

#include <algorithm>

#include "common/log.hh"

namespace nord {

namespace {

/**
 * Canonical Hamiltonian cycle for a mesh with an even number of rows:
 * east along row 0 (cols 0..C-1), serpentine rows 1..R-1 between columns
 * 1 and C-1, then north up column 0.
 */
std::vector<NodeId>
canonicalCycle(const MeshTopology &mesh)
{
    const int rows = mesh.rows();
    const int cols = mesh.cols();
    if (rows % 2 != 0) {
        NORD_FATAL("canonical bypass ring needs an even row count, got %d",
                   rows);
    }
    std::vector<NodeId> order;
    order.reserve(mesh.numNodes());
    // Row 0, west to east.
    for (int c = 0; c < cols; ++c)
        order.push_back(mesh.nodeAt(0, c));
    // Serpentine rows 1..rows-1 over columns 1..cols-1.
    for (int r = 1; r < rows; ++r) {
        if (r % 2 == 1) {
            for (int c = cols - 1; c >= 1; --c)
                order.push_back(mesh.nodeAt(r, c));
        } else {
            for (int c = 1; c <= cols - 1; ++c)
                order.push_back(mesh.nodeAt(r, c));
        }
    }
    // Column 0, south to north (rows rows-1 .. 1).
    for (int r = rows - 1; r >= 1; --r)
        order.push_back(mesh.nodeAt(r, 0));
    return order;
}

}  // namespace

BypassRing::BypassRing(const MeshTopology &mesh)
    : BypassRing(mesh, canonicalCycle(mesh))
{
}

BypassRing::BypassRing(const MeshTopology &mesh, std::vector<NodeId> order)
    : order_(std::move(order))
{
    const std::vector<std::string> found = problems(mesh, order_);
    if (!found.empty())
        NORD_FATAL("%s", found.front().c_str());
    const int n = mesh.numNodes();
    succ_.assign(n, kInvalidNode);
    pred_.assign(n, kInvalidNode);
    outport_.assign(n, Direction::kLocal);
    inport_.assign(n, Direction::kLocal);
    pos_.assign(n, -1);

    for (int i = 0; i < n; ++i) {
        NodeId cur = order_[i];
        NodeId nxt = order_[(i + 1) % n];
        pos_[cur] = i;
        succ_[cur] = nxt;
        pred_[nxt] = cur;
        outport_[cur] = mesh.directionTo(cur, nxt);
    }
    for (int i = 0; i < n; ++i) {
        NodeId cur = order_[i];
        inport_[cur] = opposite(mesh.directionTo(pred_[cur], cur));
    }
}

std::vector<std::string>
BypassRing::problems(const MeshTopology &mesh,
                     const std::vector<NodeId> &order)
{
    std::vector<std::string> out;
    const int n = mesh.numNodes();
    if (static_cast<int>(order.size()) != n) {
        out.push_back("ring order has " + std::to_string(order.size()) +
                      " entries, mesh has " + std::to_string(n) + " nodes");
        return out;
    }
    std::vector<int> count(static_cast<size_t>(n), 0);
    for (NodeId node : order) {
        if (!mesh.valid(node)) {
            out.push_back("ring order contains invalid node " +
                          std::to_string(node));
            return out;
        }
        ++count[node];
    }
    for (NodeId node = 0; node < n; ++node) {
        if (count[node] == 0) {
            out.push_back("ring does not cover node " +
                          std::to_string(node) + " (not Hamiltonian)");
        } else if (count[node] > 1) {
            out.push_back("ring visits node " + std::to_string(node) + " " +
                          std::to_string(count[node]) + " times");
        }
    }
    for (size_t i = 0; i < order.size(); ++i) {
        const NodeId from = order[i];
        const NodeId to = order[(i + 1) % order.size()];
        if (!mesh.adjacent(from, to)) {
            out.push_back("ring hop " + std::to_string(from) + " -> " +
                          std::to_string(to) + " is not a mesh link");
        }
    }
    return out;
}

int
BypassRing::ringDistance(NodeId from, NodeId to) const
{
    const int n = static_cast<int>(order_.size());
    int d = pos_[to] - pos_[from];
    if (d < 0)
        d += n;
    return d;
}

}  // namespace nord
