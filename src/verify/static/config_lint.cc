/**
 * @file
 * Configuration lint implementation.
 */

#include "verify/static/config_lint.hh"

#include <vector>

#include "topology/bypass_ring.hh"
#include "topology/mesh.hh"

namespace nord {

std::string
LintResult::summary() const
{
    if (ok())
        return "clean";
    std::string s = std::to_string(problems.size()) + " problem(s):";
    for (const std::string &p : problems)
        s += "\n  - " + p;
    return s;
}

LintResult
lintConfig(const NocConfig &config)
{
    LintResult r{config.problems()};
    if (config.rows >= 2 && config.cols >= 2 && config.rows % 2 == 0) {
        // The canonical ring must itself pass the Hamiltonian lint; a bug
        // in the serpentine construction would surface here rather than as
        // a NORD_FATAL deep inside a simulation run.
        MeshTopology mesh(config.rows, config.cols);
        BypassRing ring(mesh);
        for (std::string &p : lintRingOrder(mesh, ring.order()).problems)
            r.problems.push_back("canonical ring: " + std::move(p));
    }
    return r;
}

LintResult
lintRingOrder(const MeshTopology &mesh, const std::vector<NodeId> &order)
{
    LintResult r;
    const int n = mesh.numNodes();
    if (static_cast<int>(order.size()) != n) {
        r.problems.push_back(
            "ring order has " + std::to_string(order.size()) +
            " entries, mesh has " + std::to_string(n) + " nodes");
        return r;
    }
    std::vector<int> count(static_cast<size_t>(n), 0);
    for (NodeId node : order) {
        if (node < 0 || node >= n) {
            r.problems.push_back("ring order contains invalid node " +
                                 std::to_string(node));
            return r;
        }
        ++count[node];
    }
    for (NodeId node = 0; node < n; ++node) {
        if (count[node] == 0) {
            r.problems.push_back("ring does not cover node " +
                                 std::to_string(node) +
                                 " (not Hamiltonian)");
        } else if (count[node] > 1) {
            r.problems.push_back("ring visits node " +
                                 std::to_string(node) + " " +
                                 std::to_string(count[node]) + " times");
        }
    }
    for (size_t i = 0; i < order.size(); ++i) {
        const NodeId from = order[i];
        const NodeId to = order[(i + 1) % order.size()];
        if (!mesh.adjacent(from, to)) {
            r.problems.push_back(
                "ring hop " + std::to_string(from) + " -> " +
                std::to_string(to) +
                " is not a mesh link (cycle does not close over the mesh)");
        }
    }
    return r;
}

}  // namespace nord
