//===- tests/ReferenceMinCostFlow.h - Generic min-cost flow -----*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact minimum-cost flow solver over integer capacities and costs,
/// on an arbitrary directed graph built edge by edge.
///
/// This is the library's solver as it stood before flow/MinCostFlow moved
/// to the dense transport network, kept verbatim as a test-only reference:
/// FlowTest runs its generic-graph cases against it, and diffs the dense
/// solver's per-cell flows against it on random transport instances.
///
/// MarQSim turns transition-matrix tuning into a Min-Cost Flow Problem
/// (paper Section 5); this solver is the engine behind Algorithm 2. The
/// algorithm is primal-dual: repeated Dijkstra with Johnson potentials
/// finds the current shortest-path distance, then a Dinic-style blocking
/// flow saturates the entire zero-reduced-cost admissible subgraph at once.
/// For the paper's transportation-shaped networks (complete bipartite with
/// small integer costs) the number of phases is bounded by the number of
/// distinct cost values, which keeps 1000-term instances fast.
///
/// Capacities and costs are int64; callers quantize probabilities
/// (see core/TransitionBuilders) so feasibility and optimality are exact.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_TESTS_REFERENCEMINCOSTFLOW_H
#define MARQSIM_TESTS_REFERENCEMINCOSTFLOW_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace marqsim {

/// A directed flow network with integer capacities and costs.
class ReferenceMinCostFlow {
public:
  /// Effectively unbounded capacity for edges without a cap.
  static constexpr int64_t kInfiniteCapacity = int64_t(1) << 60;

  explicit ReferenceMinCostFlow(size_t NumNodes);

  size_t numNodes() const { return NumNodes; }
  size_t numEdges() const { return Edges.size() / 2; }

  /// Pre-sizes storage for \p NumEdges edges and for \p Degree arcs
  /// (forward and reverse together) at every node, so building a network
  /// of known shape never reallocates. Purely a capacity hint: ids, arc
  /// order and results do not change.
  void reserve(size_t NumEdges, size_t Degree);

  /// Adds a directed edge and returns its id (for flowOnEdge).
  /// Requires Capacity >= 0.
  size_t addEdge(size_t From, size_t To, int64_t Capacity, int64_t Cost);

  /// Outcome of a solve() call.
  struct Result {
    /// Amount of flow actually routed (== requested iff Feasible).
    int64_t FlowSent = 0;
    /// Total cost sum f(e) * w(e) of the routed flow.
    int64_t TotalCost = 0;
    /// True if the full requested amount was routed.
    bool Feasible = false;
  };

  /// Routes up to \p Amount units from \p Source to \p Sink at minimum
  /// cost. May be called once per network instance.
  Result solve(size_t Source, size_t Sink, int64_t Amount);

  /// Flow routed through edge \p EdgeId (valid after solve()).
  int64_t flowOnEdge(size_t EdgeId) const;

private:
  struct Edge {
    uint32_t To;
    int64_t Residual;
    int64_t Cost;
  };

  bool dijkstra(size_t Source, size_t Sink);
  int64_t blockingFlow(size_t Source, size_t Sink, int64_t Limit);
  int64_t dfsPush(size_t V, size_t Sink, int64_t Limit);

  size_t NumNodes;
  std::vector<Edge> Edges;              // pairs: 2k forward, 2k+1 reverse
  std::vector<int64_t> OriginalCapacity; // per forward edge id
  std::vector<std::vector<uint32_t>> Adj;
  std::vector<int64_t> Potential;
  std::vector<int64_t> Dist;
  std::vector<int32_t> Level;
  std::vector<uint32_t> CurrentArc;
  bool Solved = false;
};

} // namespace marqsim

#endif // MARQSIM_TESTS_REFERENCEMINCOSTFLOW_H
