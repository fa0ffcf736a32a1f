/**
 * @file
 * CDG deadlock analysis implementation (see cdg.hh for the method).
 */

#include "verify/static/cdg.hh"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/flit.hh"
#include "common/log.hh"
#include "router/router.hh"
#include "routing/routing_policy.hh"
#include "stats/network_stats.hh"
#include "topology/bypass_ring.hh"
#include "topology/criticality.hh"
#include "topology/mesh.hh"

namespace nord {

namespace {

/** Cap on accumulated problem diagnoses (one per state can explode). */
constexpr std::size_t kMaxProblems = 32;

/** Hop bound multiplier for escape-delivery walks (bound = k * n + 4). */
constexpr int kWalkBoundFactor = 2;

/**
 * The worst-case steering table is deterministic per mesh shape and
 * perf-set size; share the process-wide CriticalityCache with NocSystem
 * (the verify matrix analyzes the same shapes repeatedly, and each
 * shape's greedy sweep -- the costliest set-up step -- runs once).
 */
const std::vector<double> &
cachedSteeringTable(const MeshTopology &mesh, const BypassRing &ring,
                    int perfCount)
{
    CriticalityCache &cache = CriticalityCache::instance();
    int count = perfCount;
    if (count < 0)
        count = cache.knee(mesh, ring);
    return cache.steering(mesh, ring, cache.perfSet(mesh, ring, count));
}

}  // namespace

std::string
CdgChannel::describe() const
{
    std::string s = "link " + std::to_string(from) + "-" + dirName(dir);
    if (cls == VcClass::kEscape)
        s += " escape/L" + std::to_string(escLevel);
    else
        s += " adaptive";
    return s;
}

std::string
CdgEdgeContext::describe() const
{
    std::string s = "at router " + std::to_string(here) + " (dst " +
                    std::to_string(dst) + ", in " + dirName(inPort);
    if (onEscape)
        s += ", escape L" + std::to_string(escLevel);
    if (misroutes > 0)
        s += ", misroutes " + std::to_string(misroutes);
    if (atBypass)
        s += ", bypass";
    s += ")";
    return s;
}

std::string
CdgCounterexample::describe() const
{
    if (empty())
        return "(no cycle)";
    std::string s = "escape-CDG dependency cycle of " +
                    std::to_string(channels.size()) + " channels:\n";
    for (size_t i = 0; i < channels.size(); ++i) {
        s += "  " + channels[i].describe() + " -> " +
             channels[(i + 1) % channels.size()].describe() + "  [" +
             edges[i].describe() + "]\n";
    }
    return s;
}

std::string
CdgResult::summary() const
{
    std::string s = "channels=" + std::to_string(numChannels) +
                    " (escape " + std::to_string(numEscapeChannels) +
                    ") edges=" + std::to_string(numEdges) + " (escape " +
                    std::to_string(numEscapeEdges) + ") states=" +
                    std::to_string(statesExplored);
    s += escapeAcyclic ? " acyclic=yes" : " acyclic=NO";
    s += escapeReachable ? " escape-reachable=yes" : " escape-reachable=NO";
    s += escapeDelivers ? " delivers=yes" : " delivers=NO";
    if (!problems.empty())
        s += " problems=" + std::to_string(problems.size());
    return s;
}

CdgAnalysis::CdgAnalysis(const NocConfig &config, CdgOptions opts)
    : config_(config), opts_(opts)
{
    mesh_ = std::make_unique<MeshTopology>(config_.rows, config_.cols);
    ring_ = std::make_unique<BypassRing>(*mesh_);
    stats_ = std::make_unique<NetworkStats>(config_.numNodes(), 0);
    policy_ = std::make_unique<RoutingPolicy>(config_, *mesh_, *ring_);
    if (config_.design == PgDesign::kNord) {
        policy_->setSteeringTable(cachedSteeringTable(
            *mesh_, *ring_, config_.nordPerfCentricCount));
    }
    // The probe router only contributes its per-output neighbor-PG views
    // to route(); its id and wiring are never consulted.
    probe_ = std::make_unique<Router>(0, config_, *mesh_, *ring_, *stats_);
}

CdgAnalysis::~CdgAnalysis() = default;

int
CdgAnalysis::channelId(NodeId from, Direction dir, VcClass cls,
                       int level) const
{
    if (dir == Direction::kLocal ||
        mesh_->neighbor(from, dir) == kInvalidNode) {
        return -1;
    }
    const int slot = (cls == VcClass::kEscape) ? std::min(level, 1) : 2;
    return (from * kNumMeshDirs + dirIndex(dir)) * numClassSlots_ + slot;
}

CdgChannel
CdgAnalysis::channelOf(int id) const
{
    CdgChannel ch;
    const int slot = id % numClassSlots_;
    const int link = id / numClassSlots_;
    ch.from = link / kNumMeshDirs;
    ch.dir = indexDir(link % kNumMeshDirs);
    ch.cls = (slot == 2) ? VcClass::kAdaptive : VcClass::kEscape;
    ch.escLevel = (slot == 2) ? 0 : slot;
    return ch;
}

int
CdgAnalysis::hopEscapeLevel(NodeId here, Direction dir, int curLevel) const
{
    if (opts_.escapeLevelOverride >= 0)
        return opts_.escapeLevelOverride;
    Flit head;
    head.escLevel = static_cast<std::int8_t>(curLevel);
    head.onEscape = true;
    return policy_->escapeVcLevel(here, dir, head);
}

void
CdgAnalysis::addEdge(int a, int b, const CdgEdgeContext &ctx)
{
    if (a < 0 || b < 0 || a == b)
        return;
    const size_t key =
        static_cast<size_t>(a) * adj_.size() + static_cast<size_t>(b);
    if (edgeWitness_[key] >= 0)
        return;  // already recorded with a witness
    witnesses_.push_back(ctx);
    edgeWitness_[key] = static_cast<int>(witnesses_.size()) - 1;
    adj_[a].push_back(b);
}

void
CdgAnalysis::walkEscape(NodeId entry, NodeId dst, CdgResult &result)
{
    const int n = mesh_->numNodes();
    const int bound = kWalkBoundFactor * n + kNumMeshDirs;
    NodeId node = entry;
    Direction inPort = Direction::kLocal;
    int level = 0;  // adaptive packets always enter escape at level 0
    int prevCh = -1;
    for (int hop = 0; hop <= bound; ++hop) {
        if (node == dst) {
            delivered_[static_cast<size_t>(entry) * n + dst] = true;
            return;
        }
        Flit head;
        head.dst = dst;
        head.src = entry;
        head.onEscape = true;
        head.escLevel = static_cast<std::int8_t>(level);
        RouteRequest req = policy_->route(node, head, inPort, *probe_);
        ++result.statesExplored;
        if (!req.mustEscape && result.problems.size() < kMaxProblems) {
            result.problems.push_back(
                "escape-confined packet not forced to escape at router " +
                std::to_string(node) + " towards " + std::to_string(dst));
        }
        const Direction dir = req.escapeDir;
        if (dir == Direction::kLocal ||
            mesh_->neighbor(node, dir) == kInvalidNode) {
            if (result.problems.size() < kMaxProblems) {
                result.problems.push_back(
                    "invalid escape direction at router " +
                    std::to_string(node) + " towards " +
                    std::to_string(dst));
            }
            return;
        }
        const int outLevel = hopEscapeLevel(node, dir, level);
        const int ch = channelId(node, dir, VcClass::kEscape, outLevel);
        CdgEdgeContext ctx;
        ctx.here = node;
        ctx.dst = dst;
        ctx.inPort = inPort;
        ctx.onEscape = true;
        ctx.escLevel = level;
        addEdge(prevCh, ch, ctx);
        prevCh = ch;
        level = outLevel;
        inPort = opposite(dir);  // arrive at the next node on this side
        node = mesh_->neighbor(node, dir);
    }
    // Hop bound exceeded: the escape sub-network fails to deliver.
    if (result.problems.size() < kMaxProblems) {
        result.problems.push_back(
            "escape walk from " + std::to_string(entry) + " to " +
            std::to_string(dst) + " exceeded " + std::to_string(bound) +
            " hops (escape livelock)");
    }
}

void
CdgAnalysis::enumerateAdaptive(NodeId here, NodeId dst, CdgResult &result)
{
    const bool nord = config_.design == PgDesign::kNord;
    const int cap = kNordMisrouteCap;

    // Misroute counts around the cap boundary: under the cap, at the last
    // allowed value, and at the cap itself (where non-minimal adaptive
    // hops must disappear).
    int misrouteStates[3] = {0, cap > 0 ? cap - 1 : 0, cap};
    const int numMis = nord ? 3 : 1;

    // Neighbor power-state masks: NoRD's candidate set depends on which
    // downstream routers are gated; conventional designs only reorder
    // candidates, so one all-on and one half-gated mask suffice.
    std::vector<int> masks;
    if (nord) {
        for (int m = 0; m < (1 << kNumMeshDirs); ++m)
            masks.push_back(m);
    } else {
        masks = {0, 0b0101};
    }

    for (int mi = 0; mi < numMis; ++mi) {
        const int mis = misrouteStates[mi];
        for (int mask : masks) {
            for (int d = 0; d < kNumMeshDirs; ++d)
                probe_->forceGatedView(indexDir(d), (mask >> d) & 1);
            for (int pi = 0; pi <= kNumMeshDirs; ++pi) {
                const Direction inPort = indexDir(pi == kNumMeshDirs
                                                      ? dirIndex(Direction::kLocal)
                                                      : pi);
                if (inPort != Direction::kLocal &&
                    mesh_->neighbor(here, inPort) == kInvalidNode) {
                    continue;  // a flit cannot arrive from off-mesh
                }
                Flit head;
                head.dst = dst;
                head.misroutes = static_cast<std::int16_t>(mis);
                RouteRequest req =
                    policy_->route(here, head, inPort, *probe_);
                ++result.statesExplored;

                // Duato reachability: some escape egress must exist at
                // every state (route() always fills escapeDir), and the
                // escape walk from here must deliver.
                if (req.escapeDir == Direction::kLocal ||
                    channelId(here, req.escapeDir, VcClass::kEscape,
                              hopEscapeLevel(here, req.escapeDir, 0)) < 0) {
                    result.escapeReachable = false;
                    if (result.problems.size() < kMaxProblems) {
                        result.problems.push_back(
                            "no escape egress at router " +
                            std::to_string(here) + " towards " +
                            std::to_string(dst));
                    }
                }
                if (!req.mustEscape && req.adaptive.empty() &&
                    result.problems.size() < kMaxProblems) {
                    result.problems.push_back(
                        "router " + std::to_string(here) +
                        ": no adaptive candidate yet mustEscape not set");
                }
                // Misroute-cap semantics: at the cap, no adaptive
                // candidate may be non-minimal (Section 4.2).
                if (nord && mis >= cap) {
                    for (const RouteCandidate &c : req.adaptive) {
                        if (c.nonMinimal &&
                            result.problems.size() < kMaxProblems) {
                            result.problems.push_back(
                                "misroute cap violated: router " +
                                std::to_string(here) + " dst " +
                                std::to_string(dst) + " offers non-minimal " +
                                dirName(c.dir) + " at misroutes=" +
                                std::to_string(mis));
                        }
                    }
                }

                // Dependency edges. The input channel is the link the
                // packet occupies while waiting at `here`.
                const int inCh =
                    inPort == Direction::kLocal
                        ? -1  // injection source, never part of a cycle
                        : channelId(mesh_->neighbor(here, inPort),
                                    opposite(inPort), VcClass::kAdaptive, 0);
                CdgEdgeContext ctx;
                ctx.here = here;
                ctx.dst = dst;
                ctx.inPort = inPort;
                ctx.misroutes = mis;
                for (const RouteCandidate &c : req.adaptive) {
                    addEdge(inCh,
                            channelId(here, c.dir, VcClass::kAdaptive, 0),
                            ctx);
                }
                const int escLevel =
                    hopEscapeLevel(here, req.escapeDir, 0);
                addEdge(inCh,
                        channelId(here, req.escapeDir, VcClass::kEscape,
                                  escLevel),
                        ctx);
            }
        }
    }
    for (int d = 0; d < kNumMeshDirs; ++d)
        probe_->forceGatedView(indexDir(d), false);

    // Gated-router states: the same packet decided at the NI bypass of
    // `here` (routeAtBypass), cross-checked against route()'s bookkeeping.
    if (!nord)
        return;
    for (int mi = 0; mi < 3; ++mi) {
        const int mis = misrouteStates[mi];
        Flit head;
        head.dst = dst;
        head.misroutes = static_cast<std::int16_t>(mis);
        RouteRequest reqB = policy_->routeAtBypass(here, head);
        RouteRequest reqR = policy_->route(here, head, Direction::kLocal,
                                           *probe_);
        ++result.statesExplored;
        if (reqB.escapeNonMinimal != reqR.escapeNonMinimal &&
            result.problems.size() < kMaxProblems) {
            result.problems.push_back(
                "bypass/router escape-misroute bookkeeping diverges at " +
                std::to_string(here) + " towards " + std::to_string(dst));
        }
        if (mis >= cap && reqB.escapeNonMinimal && !reqB.mustEscape &&
            result.problems.size() < kMaxProblems) {
            result.problems.push_back(
                "bypass ignores misroute cap at router " +
                std::to_string(here) + " dst " + std::to_string(dst) +
                " misroutes=" + std::to_string(mis));
        }
        if (mis < cap && !reqB.mustEscape && reqB.adaptive.empty() &&
            result.problems.size() < kMaxProblems) {
            result.problems.push_back(
                "bypass offers neither adaptive nor forced escape at " +
                std::to_string(here));
        }
        CdgEdgeContext ctx;
        ctx.here = here;
        ctx.dst = dst;
        ctx.inPort = ring_->bypassInport(here);
        ctx.misroutes = mis;
        ctx.atBypass = true;
        const int inCh = channelId(ring_->predecessor(here),
                                   ring_->bypassOutport(ring_->predecessor(here)),
                                   VcClass::kAdaptive, 0);
        for (const RouteCandidate &c : reqB.adaptive) {
            if (c.dir == Direction::kLocal)
                continue;
            addEdge(inCh, channelId(here, c.dir, VcClass::kAdaptive, 0),
                    ctx);
        }
        const int escLevel = hopEscapeLevel(here, reqB.escapeDir, 0);
        addEdge(inCh,
                channelId(here, reqB.escapeDir, VcClass::kEscape, escLevel),
                ctx);
    }
}

void
CdgAnalysis::findEscapeCycle(CdgResult &result) const
{
    const int numCh = static_cast<int>(adj_.size());
    // Iterative DFS with coloring, restricted to escape channels.
    enum : std::int8_t { kWhite, kGray, kBlack };
    std::vector<std::int8_t> color(static_cast<size_t>(numCh), kWhite);
    std::vector<int> stack;
    std::vector<int> pathNext;  // per gray node: index into its adj list

    auto isEscape = [this](int ch) {
        return ch % numClassSlots_ != 2;
    };

    for (int start = 0; start < numCh; ++start) {
        if (!isEscape(start) || color[start] != kWhite)
            continue;
        stack.clear();
        stack.push_back(start);
        pathNext.assign(static_cast<size_t>(numCh), 0);
        color[start] = kGray;
        std::vector<int> path{start};
        while (!path.empty()) {
            const int u = path.back();
            bool advanced = false;
            for (int &i = pathNext[u];
                 i < static_cast<int>(adj_[u].size());) {
                const int v = adj_[u][i++];
                if (!isEscape(v))
                    continue;
                if (color[v] == kGray) {
                    // Back edge: extract the cycle v .. u (+ edge u->v).
                    auto it = std::find(path.begin(), path.end(), v);
                    std::vector<int> cyc(it, path.end());
                    result.escapeAcyclic = false;
                    for (size_t k = 0; k < cyc.size(); ++k) {
                        const int a = cyc[k];
                        const int b = cyc[(k + 1) % cyc.size()];
                        result.cycle.channels.push_back(channelOf(a));
                        const size_t key = static_cast<size_t>(a) *
                                               adj_.size() +
                                           static_cast<size_t>(b);
                        NORD_ASSERT(edgeWitness_[key] >= 0,
                                    "cycle edge without witness");
                        result.cycle.edges.push_back(
                            witnesses_[edgeWitness_[key]]);
                    }
                    return;
                }
                if (color[v] == kWhite) {
                    color[v] = kGray;
                    path.push_back(v);
                    advanced = true;
                    break;
                }
            }
            if (!advanced) {
                color[u] = kBlack;
                path.pop_back();
            }
        }
    }
}

CdgResult
CdgAnalysis::run()
{
    const int n = mesh_->numNodes();
    CdgResult result;
    result.escapeAcyclic = true;
    result.escapeReachable = true;
    result.escapeDelivers = true;

    adj_.assign(static_cast<size_t>(n) * kNumMeshDirs * numClassSlots_, {});
    edgeWitness_.assign(adj_.size() * adj_.size(), -1);
    witnesses_.clear();
    delivered_.assign(static_cast<size_t>(n) * n, false);

    // 1. Escape sub-network: walk every reachable (entry, dst) trajectory.
    for (NodeId entry = 0; entry < n; ++entry) {
        for (NodeId dst = 0; dst < n; ++dst) {
            if (dst != entry)
                walkEscape(entry, dst, result);
        }
    }
    for (NodeId entry = 0; entry < n; ++entry) {
        for (NodeId dst = 0; dst < n; ++dst) {
            if (dst != entry &&
                !delivered_[static_cast<size_t>(entry) * n + dst]) {
                result.escapeDelivers = false;
            }
        }
    }

    // 2. Adaptive states, including the gated-router bypass entry point.
    for (NodeId here = 0; here < n; ++here) {
        for (NodeId dst = 0; dst < n; ++dst) {
            if (dst != here)
                enumerateAdaptive(here, dst, result);
        }
    }

    // 3. Tally and cycle-check.
    for (size_t ch = 0; ch < adj_.size(); ++ch) {
        const bool escape = ch % numClassSlots_ != 2;
        if (adj_[ch].empty())
            continue;
        for (int to : adj_[ch]) {
            ++result.numEdges;
            if (escape && to % numClassSlots_ != 2)
                ++result.numEscapeEdges;
        }
    }
    std::vector<bool> present(adj_.size(), false);
    for (size_t ch = 0; ch < adj_.size(); ++ch) {
        for (int to : adj_[ch]) {
            present[ch] = true;
            present[to] = true;
        }
    }
    for (size_t ch = 0; ch < adj_.size(); ++ch) {
        if (present[ch]) {
            ++result.numChannels;
            if (ch % numClassSlots_ != 2)
                ++result.numEscapeChannels;
        }
    }
    findEscapeCycle(result);
    if (!result.problems.empty()) {
        // Delivery/reachability problems were already flagged per state.
        for (const std::string &p : result.problems) {
            if (p.find("livelock") != std::string::npos)
                result.escapeDelivers = false;
        }
    }
    return result;
}

bool
CdgAnalysis::replayCycle(const CdgCounterexample &cx,
                         std::string *why) const
{
    if (cx.empty()) {
        if (why)
            *why = "empty counterexample";
        return false;
    }
    for (size_t i = 0; i < cx.channels.size(); ++i) {
        const CdgChannel &a = cx.channels[i];
        const CdgChannel &b = cx.channels[(i + 1) % cx.channels.size()];
        const CdgEdgeContext &ctx = cx.edges[i];
        if (mesh_->neighbor(a.from, a.dir) != ctx.here ||
            b.from != ctx.here) {
            if (why) {
                *why = "edge " + std::to_string(i) +
                       ": channels do not meet at the deciding router";
            }
            return false;
        }
        Flit head;
        head.dst = ctx.dst;
        head.onEscape = ctx.onEscape;
        head.escLevel = static_cast<std::int8_t>(ctx.escLevel);
        head.misroutes = static_cast<std::int16_t>(ctx.misroutes);
        RouteRequest req =
            ctx.atBypass ? policy_->routeAtBypass(ctx.here, head)
                         : policy_->route(ctx.here, head, ctx.inPort,
                                          *probe_);
        if (req.escapeDir != b.dir) {
            if (why) {
                *why = "edge " + std::to_string(i) +
                       ": live policy routes escape to " +
                       dirName(req.escapeDir) + ", counterexample claims " +
                       dirName(b.dir);
            }
            return false;
        }
        const int level = hopEscapeLevel(ctx.here, req.escapeDir,
                                         ctx.escLevel);
        if (b.cls == VcClass::kEscape && level != b.escLevel) {
            if (why) {
                *why = "edge " + std::to_string(i) +
                       ": live escape level " + std::to_string(level) +
                       " != claimed " + std::to_string(b.escLevel);
            }
            return false;
        }
    }
    return true;
}

}  // namespace nord
