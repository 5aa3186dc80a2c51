//===- flow/MinCostFlow.h - Minimum-cost flow solver ------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An exact minimum-cost flow solver for the one network MarQSim builds.
///
/// MarQSim turns transition-matrix tuning into a Min-Cost Flow Problem
/// (paper Section 5); this solver is the engine behind Algorithm 2. The
/// network is a transport problem: a source S feeds N supply rows, row I
/// with capacity Units[I]; every row I reaches every demand column J != I
/// at unit cost Cost(I, J) with unbounded capacity; column J drains into
/// the sink T with capacity Units[J]. The diagonal is excluded, which rules
/// out the trivial identity matrix (Section 5.2).
///
/// The algorithm is primal-dual: a binary-heap Dijkstra with Johnson
/// potentials finds the current shortest-path distances (nodes it cannot
/// reach move by the sink's distance, so reduced costs stay non-negative),
/// then a Dinic blocking flow saturates the zero-reduced-cost level graph.
/// For small integer costs the number of phases is bounded by the number of
/// distinct path costs, which keeps 1000-term instances fast.
///
/// Dense layout. Nothing is stored per arc. Costs and flows are N x N
/// row-major int64 matrices; a forward arc's residual is implicit
/// (kInfiniteCapacity - flow), and a reverse arc exists where the flow is
/// positive, which one bit per cell records column by column so a column
/// lists its reverse arcs in ascending row order without scanning N flows.
/// A row's forward scan reads one contiguous cost row.
///
/// Bit identity with a generic adjacency-list solver. Exact shortest
/// distances are unique, so the potentials, the admissible subgraph and
/// the BFS levels do not depend on the order arcs are scanned in. Only the
/// DFS order picks among equal-cost augmenting paths, and it is the order
/// an adjacency list built row by row would have:
///   - S: rows ascending;
///   - row I: the back-arc to S (never admissible: S has level 0), then
///     columns J ascending, skipping J = I;
///   - column J: reverse arcs to rows I ascending (flow > 0), then T.
/// Arcs that gain residual during a phase point down a level and are never
/// admissible in it, and the BFS stops once it labels T (every node at T's
/// level or deeper is a dead end for the DFS), so every augmenting path and
/// every flow is the same as with the generic graph. tests/FlowTest diffs
/// the two solvers cell by cell.
///
/// Costs must be non-negative: Dijkstra starts from zero potentials, with
/// no Bellman-Ford pass. solve() checks this and throws.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_FLOW_MINCOSTFLOW_H
#define MARQSIM_FLOW_MINCOSTFLOW_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace marqsim {

/// The MarQSim transport network over N rows and N columns, and its
/// minimum-cost flow.
class MinCostFlow {
public:
  /// Capacity of a row -> column arc; the total routed must stay below it.
  static constexpr int64_t kInfiniteCapacity = int64_t(1) << 60;

  /// Row I supplies and column I demands Units[I]. Every cost starts at 0.
  explicit MinCostFlow(std::vector<int64_t> Units);

  size_t size() const { return N; }

  /// Unit cost of the arc from row \p I to column \p J. The diagonal
  /// (I == J) has no arc, and its cost is ignored.
  int64_t &cost(size_t I, size_t J) { return Cost[I * N + J]; }

  /// Outcome of a solve() call.
  struct Result {
    /// Amount of flow actually routed (== the unit total iff Feasible).
    int64_t FlowSent = 0;
    /// Total cost sum f(I, J) * Cost(I, J) of the routed flow.
    int64_t TotalCost = 0;
    /// True if every unit was routed.
    bool Feasible = false;
  };

  /// Routes the sum of the units from S to T at minimum cost. May be
  /// called once per instance. Throws std::invalid_argument, naming the
  /// offending entry, if a unit or an off-diagonal cost is negative or the
  /// unit total reaches kInfiniteCapacity.
  Result solve();

  /// Flow routed from row \p I to column \p J (valid after solve()).
  int64_t flow(size_t I, size_t J) const { return Flow[I * N + J]; }

private:
  /// The unit total, after the checks solve() documents.
  int64_t checkedTotal() const;
  bool dijkstra();
  int64_t blockingFlow(int64_t Limit);
  int64_t pushRow(size_t I, int64_t Limit);
  int64_t pushColumn(size_t J, int64_t Limit);

  /// Smallest row >= \p From with positive flow into column \p J, or N.
  /// \p From >= N is returned as is.
  size_t nextPositiveRow(size_t J, size_t From) const;
  void setPositive(size_t I, size_t J);
  void clearPositive(size_t I, size_t J);

  // Node ids, as in an adjacency-list layout: 0 = S, 1 + I = row I,
  // 1 + N + J = column J, 2N + 1 = T.
  size_t row(size_t I) const { return 1 + I; }
  size_t column(size_t J) const { return 1 + N + J; }
  size_t sink() const { return 2 * N + 1; }

  size_t N;
  size_t Words; // bitmask words per column
  std::vector<int64_t> Units;
  std::vector<int64_t> Cost;     // N x N, row-major
  std::vector<int64_t> Flow;     // N x N, row-major
  std::vector<uint64_t> Positive; // per column: rows with Flow > 0
  std::vector<int64_t> SourceFlow, SinkFlow; // per row / per column
  std::vector<int64_t> Potential, Dist;     // per node
  std::vector<int32_t> Level;               // per node
  std::vector<uint32_t> Cursor;             // per node: next arc to try
  std::vector<std::pair<int64_t, uint32_t>> Heap;
  std::vector<uint32_t> Queue;
  bool Solved = false;
};

} // namespace marqsim

#endif // MARQSIM_FLOW_MINCOSTFLOW_H
