/**
 * @file
 * Static configuration lint: the diagnosing counterpart of
 * NocConfig::validate().
 *
 * validate() is a hard gate -- it NORD_FATALs the process on the first
 * inconsistency, which is the right behavior at simulator startup but
 * useless for a verification CLI that should enumerate *all* problems of a
 * proposed configuration and keep going. Both read one rule list,
 * NocConfig::problems(): mesh shape, VC partition (including NoRD's
 * two-escape-VC dateline), buffer/allocation, power-gating handshake,
 * verification and fault settings. This pass adds the ring structure: a
 * node order must be a Hamiltonian cycle over mesh links -- a
 * permutation of all nodes, pairwise mesh-adjacent, closing back on its
 * start (lintRingOrder(), usable on orders the BypassRing constructor
 * would fatally reject), checked for the canonical serpentine ring.
 */

#ifndef NORD_VERIFY_STATIC_CONFIG_LINT_HH
#define NORD_VERIFY_STATIC_CONFIG_LINT_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "network/noc_config.hh"

namespace nord {

class MeshTopology;

/** Outcome of a lint pass: empty problems == clean. */
struct LintResult
{
    std::vector<std::string> problems;

    bool ok() const { return problems.empty(); }
    std::string summary() const;
};

/**
 * Lint one configuration (never aborts, unlike validate()): every
 * NocConfig::problems() entry plus the canonical ring's lintRingOrder().
 */
LintResult lintConfig(const NocConfig &config);

/**
 * Lint a proposed bypass-ring node order for @p mesh: Hamiltonian (every
 * node exactly once), every consecutive hop a mesh link, and the order
 * closes into a cycle. Safe to call on orders BypassRing would reject.
 */
LintResult lintRingOrder(const MeshTopology &mesh,
                         const std::vector<NodeId> &order);

}  // namespace nord

#endif  // NORD_VERIFY_STATIC_CONFIG_LINT_HH
