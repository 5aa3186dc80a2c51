//===- tests/FlowTest.cpp - min-cost flow solver tests -------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ReferenceMinCostFlow.h"
#include "flow/MinCostFlow.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace marqsim;

TEST(MinCostFlowTest, PicksCheaperOfTwoPaths) {
  // S -(cap 10, cost 1)-> A -> T and S -(cap 10, cost 5)-> B -> T.
  ReferenceMinCostFlow Net(4);
  size_t SA = Net.addEdge(0, 1, 10, 1);
  size_t AT = Net.addEdge(1, 3, 10, 0);
  size_t SB = Net.addEdge(0, 2, 10, 5);
  size_t BT = Net.addEdge(2, 3, 10, 0);
  auto R = Net.solve(0, 3, 10);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 10);
  EXPECT_EQ(Net.flowOnEdge(SA), 10);
  EXPECT_EQ(Net.flowOnEdge(SB), 0);
  EXPECT_EQ(Net.flowOnEdge(AT), 10);
  EXPECT_EQ(Net.flowOnEdge(BT), 0);
}

TEST(MinCostFlowTest, SpillsToExpensivePathWhenSaturated) {
  ReferenceMinCostFlow Net(4);
  size_t SA = Net.addEdge(0, 1, 6, 1);
  Net.addEdge(1, 3, 6, 0);
  size_t SB = Net.addEdge(0, 2, 10, 5);
  Net.addEdge(2, 3, 10, 0);
  auto R = Net.solve(0, 3, 10);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(Net.flowOnEdge(SA), 6);
  EXPECT_EQ(Net.flowOnEdge(SB), 4);
  EXPECT_EQ(R.TotalCost, 6 * 1 + 4 * 5);
}

TEST(MinCostFlowTest, InfeasibleWhenCutTooSmall) {
  ReferenceMinCostFlow Net(3);
  Net.addEdge(0, 1, 3, 1);
  Net.addEdge(1, 2, 3, 1);
  auto R = Net.solve(0, 2, 5);
  EXPECT_FALSE(R.Feasible);
  EXPECT_EQ(R.FlowSent, 3);
}

TEST(MinCostFlowTest, ZeroAmountIsTriviallyFeasible) {
  ReferenceMinCostFlow Net(2);
  Net.addEdge(0, 1, 1, 1);
  auto R = Net.solve(0, 1, 0);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 0);
}

TEST(MinCostFlowTest, ReroutesThroughResidualEdges) {
  // Classic residual-graph test: the cheap direct guess must be partially
  // undone to achieve optimality.
  //      S -> A (cap 1, cost 1),  S -> B (cap 1, cost 4)
  //      A -> B (cap 1, cost 1),  A -> T (cap 1, cost 6)
  //      B -> T (cap 2, cost 1)
  // Best flow of 2: S->A->B->T (cost 3) + S->B->T (cost 5) = 8,
  // rather than S->A->T (7) + S->B->T (5) = 12.
  ReferenceMinCostFlow Net(4);
  Net.addEdge(0, 1, 1, 1);
  Net.addEdge(0, 2, 1, 4);
  Net.addEdge(1, 2, 1, 1);
  size_t AT = Net.addEdge(1, 3, 1, 6);
  Net.addEdge(2, 3, 2, 1);
  auto R = Net.solve(0, 3, 2);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 8);
  EXPECT_EQ(Net.flowOnEdge(AT), 0);
}

TEST(MinCostFlowTest, HandlesNegativeCosts) {
  // A negative-cost edge makes the Bellman-Ford initialization necessary.
  ReferenceMinCostFlow Net(4);
  Net.addEdge(0, 1, 5, 2);
  Net.addEdge(1, 2, 5, -3);
  Net.addEdge(2, 3, 5, 2);
  Net.addEdge(0, 3, 5, 4);
  auto R = Net.solve(0, 3, 5);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, 5 * (2 - 3 + 2));
}

TEST(MinCostFlowTest, ParallelEdgesSupported) {
  ReferenceMinCostFlow Net(2);
  size_t E1 = Net.addEdge(0, 1, 3, 2);
  size_t E2 = Net.addEdge(0, 1, 3, 1);
  auto R = Net.solve(0, 1, 4);
  EXPECT_TRUE(R.Feasible);
  EXPECT_EQ(Net.flowOnEdge(E2), 3);
  EXPECT_EQ(Net.flowOnEdge(E1), 1);
  EXPECT_EQ(R.TotalCost, 3 * 1 + 1 * 2);
}

namespace {

/// Brute-force optimum of a small transportation problem: supplies[i] units
/// leave row i, demands[j] units arrive at column j, unit cost Cost[i][j].
/// Enumerates all integral assignments recursively.
int64_t bruteForceTransport(const std::vector<int64_t> &Supplies,
                            const std::vector<int64_t> &Demands,
                            const std::vector<std::vector<int64_t>> &Cost) {
  const size_t R = Supplies.size(), C = Demands.size();
  std::vector<int64_t> Remaining = Demands;
  int64_t Best = INT64_MAX;
  // Flatten rows: assign each row's supply across columns recursively.
  std::function<void(size_t, int64_t, int64_t)> Go =
      [&](size_t Row, int64_t LeftInRow, int64_t Acc) {
        if (Acc >= Best)
          return;
        if (Row == R) {
          for (int64_t D : Remaining)
            if (D != 0)
              return;
          Best = std::min(Best, Acc);
          return;
        }
        if (LeftInRow == 0) {
          Go(Row + 1, Row + 1 < R ? Supplies[Row + 1] : 0, Acc);
          return;
        }
        for (size_t Col = 0; Col < C; ++Col) {
          if (Remaining[Col] == 0)
            continue;
          int64_t Amount = 1; // move one unit at a time (small instances)
          Remaining[Col] -= Amount;
          Go(Row, LeftInRow - Amount, Acc + Cost[Row][Col]);
          Remaining[Col] += Amount;
        }
      };
  Go(0, Supplies[0], 0);
  return Best;
}

} // namespace

TEST(MinCostFlowTest, MatchesBruteForceOnRandomTransportInstances) {
  RNG Rng(61);
  for (int Trial = 0; Trial < 12; ++Trial) {
    const size_t N = 3;
    std::vector<int64_t> Supply(N), Demand(N);
    int64_t Total = 0;
    for (size_t I = 0; I < N; ++I) {
      Supply[I] = 1 + static_cast<int64_t>(Rng.uniformInt(2));
      Total += Supply[I];
    }
    // Split the same total across demands.
    int64_t Left = Total;
    for (size_t J = 0; J + 1 < N; ++J) {
      Demand[J] = Left > 0 ? static_cast<int64_t>(
                                 Rng.uniformInt(static_cast<uint64_t>(Left)) +
                                 (Left == Total ? 1 : 0))
                           : 0;
      Demand[J] = std::min(Demand[J], Left);
      Left -= Demand[J];
    }
    Demand[N - 1] = Left;

    std::vector<std::vector<int64_t>> Cost(N, std::vector<int64_t>(N));
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Cost[I][J] = static_cast<int64_t>(Rng.uniformInt(9));

    ReferenceMinCostFlow Net(2 * N + 2);
    for (size_t I = 0; I < N; ++I)
      Net.addEdge(0, 1 + I, Supply[I], 0);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        Net.addEdge(1 + I, 1 + N + J, ReferenceMinCostFlow::kInfiniteCapacity,
                    Cost[I][J]);
    for (size_t J = 0; J < N; ++J)
      Net.addEdge(1 + N + J, 2 * N + 1, Demand[J], 0);
    auto R = Net.solve(0, 2 * N + 1, Total);
    ASSERT_TRUE(R.Feasible);
    int64_t Brute = bruteForceTransport(Supply, Demand, Cost);
    EXPECT_EQ(R.TotalCost, Brute) << "trial " << Trial;
  }
}

struct TransportSweepCase {
  size_t Rows;
  size_t Cols;
  uint64_t Seed;
};

class TransportOptimalitySweep
    : public ::testing::TestWithParam<TransportSweepCase> {};

TEST_P(TransportOptimalitySweep, MatchesBruteForce) {
  const auto &Case = GetParam();
  RNG Rng(Case.Seed);
  std::vector<int64_t> Supply(Case.Rows), Demand(Case.Cols, 0);
  int64_t Total = 0;
  for (auto &S : Supply) {
    S = 1 + static_cast<int64_t>(Rng.uniformInt(2));
    Total += S;
  }
  for (int64_t K = 0; K < Total; ++K)
    ++Demand[Rng.uniformInt(Case.Cols)];

  std::vector<std::vector<int64_t>> Cost(
      Case.Rows, std::vector<int64_t>(Case.Cols));
  for (auto &Row : Cost)
    for (auto &C : Row)
      C = static_cast<int64_t>(Rng.uniformInt(12));

  const size_t Src = 0, Snk = Case.Rows + Case.Cols + 1;
  ReferenceMinCostFlow Net(Case.Rows + Case.Cols + 2);
  for (size_t I = 0; I < Case.Rows; ++I)
    Net.addEdge(Src, 1 + I, Supply[I], 0);
  for (size_t I = 0; I < Case.Rows; ++I)
    for (size_t J = 0; J < Case.Cols; ++J)
      Net.addEdge(1 + I, 1 + Case.Rows + J, ReferenceMinCostFlow::kInfiniteCapacity,
                  Cost[I][J]);
  for (size_t J = 0; J < Case.Cols; ++J)
    Net.addEdge(1 + Case.Rows + J, Snk, Demand[J], 0);
  auto R = Net.solve(Src, Snk, Total);
  ASSERT_TRUE(R.Feasible);
  EXPECT_EQ(R.TotalCost, bruteForceTransport(Supply, Demand, Cost));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransportOptimalitySweep,
    ::testing::Values(TransportSweepCase{2, 2, 11},
                      TransportSweepCase{2, 3, 12},
                      TransportSweepCase{3, 2, 13},
                      TransportSweepCase{3, 3, 14},
                      TransportSweepCase{2, 4, 15},
                      TransportSweepCase{4, 2, 16},
                      TransportSweepCase{3, 3, 17},
                      TransportSweepCase{3, 3, 18}));

TEST(MinCostFlowTest, LargeBipartiteInstanceRunsQuickly) {
  // Shape of the MarQSim MCFP: complete bipartite, small integer costs.
  RNG Rng(62);
  const size_t N = 120;
  const int64_t Scale = 1'000'000;
  std::vector<int64_t> Units(N, Scale / static_cast<int64_t>(N));
  Units[0] += Scale % static_cast<int64_t>(N);
  ReferenceMinCostFlow Net(2 * N + 2);
  for (size_t I = 0; I < N; ++I)
    Net.addEdge(0, 1 + I, Units[I], 0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      Net.addEdge(1 + I, 1 + N + J, ReferenceMinCostFlow::kInfiniteCapacity,
                  static_cast<int64_t>(Rng.uniformInt(40)));
    }
  for (size_t J = 0; J < N; ++J)
    Net.addEdge(1 + N + J, 2 * N + 1, Units[J], 0);
  auto R = Net.solve(0, 2 * N + 1, Scale);
  EXPECT_TRUE(R.Feasible);
  EXPECT_GE(R.TotalCost, 0);
}

//===----------------------------------------------------------------------===//
// The dense transport solver (flow/MinCostFlow) against the reference
//===----------------------------------------------------------------------===//

namespace {

/// One instance of the network the library builds: N rows and N columns,
/// supply = demand = Units, costs N x N row-major (diagonal unused).
struct TransportInstance {
  std::vector<int64_t> Units;
  std::vector<int64_t> Cost;
};

/// Solves \p Inst on the reference graph built as the library used to
/// build it (S, rows, columns, T; edges S->rows, rows->columns row-major
/// with the diagonal skipped, columns->T). Returns the per-cell flows.
std::vector<int64_t> solveWithReference(const TransportInstance &Inst,
                                        ReferenceMinCostFlow::Result &R) {
  const size_t N = Inst.Units.size();
  int64_t Total = 0;
  for (int64_t U : Inst.Units)
    Total += U;
  ReferenceMinCostFlow Net(2 * N + 2);
  Net.reserve(N * (N + 1), N);
  for (size_t I = 0; I < N; ++I)
    Net.addEdge(0, 1 + I, Inst.Units[I], 0);
  std::vector<size_t> Ids(N * N, 0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J)
        Ids[I * N + J] =
            Net.addEdge(1 + I, 1 + N + J,
                        ReferenceMinCostFlow::kInfiniteCapacity,
                        Inst.Cost[I * N + J]);
  for (size_t J = 0; J < N; ++J)
    Net.addEdge(1 + N + J, 2 * N + 1, Inst.Units[J], 0);
  R = Net.solve(0, 2 * N + 1, Total);
  std::vector<int64_t> Flows(N * N, 0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J)
        Flows[I * N + J] = Net.flowOnEdge(Ids[I * N + J]);
  return Flows;
}

MinCostFlow denseNetwork(const TransportInstance &Inst) {
  const size_t N = Inst.Units.size();
  MinCostFlow Net(Inst.Units);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J)
        Net.cost(I, J) = Inst.Cost[I * N + J];
  return Net;
}

/// A random instance: N in [2, 41], costs drawn from a small or a wide
/// range (small ranges make many equal-cost paths), some zero units, and a
/// total that is small or up to 1e9. About one in eight has a row holding
/// more than half the total, which is infeasible without the diagonal.
TransportInstance randomInstance(RNG &Rng) {
  TransportInstance Inst;
  const size_t N = 2 + static_cast<size_t>(Rng.uniformInt(40));
  static const uint64_t CostRanges[] = {1, 2, 3, 5, 61};
  const uint64_t CostRange = CostRanges[Rng.uniformInt(5)];
  Inst.Cost.resize(N * N);
  for (int64_t &C : Inst.Cost)
    C = static_cast<int64_t>(Rng.uniformInt(CostRange));

  const bool Large = Rng.bernoulli(0.5);
  const uint64_t MaxUnit = Large ? 1'000'000'000 / N : 8;
  Inst.Units.resize(N);
  for (int64_t &U : Inst.Units)
    U = Rng.bernoulli(0.2) ? 0
                           : static_cast<int64_t>(Rng.uniformInt(MaxUnit + 1));
  if (Rng.bernoulli(0.125)) {
    int64_t Rest = 0;
    for (size_t I = 1; I < N; ++I)
      Rest += Inst.Units[I];
    Inst.Units[0] = Rest + 1 + static_cast<int64_t>(Rng.uniformInt(3));
  }
  return Inst;
}

} // namespace

TEST(DenseMinCostFlowTest, MatchesReferenceCellByCell) {
  // Every augmenting path of the dense solver is the reference's, so the
  // per-cell flows, not only the optimal cost, must agree exactly.
  RNG Rng(0xF10D);
  size_t Infeasible = 0;
  for (int Trial = 0; Trial < 10000; ++Trial) {
    TransportInstance Inst = randomInstance(Rng);
    const size_t N = Inst.Units.size();
    ReferenceMinCostFlow::Result Ref;
    std::vector<int64_t> RefFlows = solveWithReference(Inst, Ref);
    MinCostFlow Net = denseNetwork(Inst);
    MinCostFlow::Result R = Net.solve();
    ASSERT_EQ(R.Feasible, Ref.Feasible) << "trial " << Trial;
    ASSERT_EQ(R.FlowSent, Ref.FlowSent) << "trial " << Trial;
    ASSERT_EQ(R.TotalCost, Ref.TotalCost) << "trial " << Trial;
    Infeasible += !R.Feasible;
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J)
        ASSERT_EQ(Net.flow(I, J), RefFlows[I * N + J])
            << "trial " << Trial << " N " << N << " cell (" << I << ", "
            << J << ")";
  }
  // Both branches of the comparison ran.
  EXPECT_GT(Infeasible, 100u);
  EXPECT_LT(Infeasible, 5000u);
}

TEST(DenseMinCostFlowTest, MatchesBruteForceWithoutDiagonal) {
  // The library's own shape: square, supply = demand, diagonal excluded.
  // The brute force prices the diagonal out of reach instead.
  constexpr int64_t Forbidden = 1'000'000;
  RNG Rng(63);
  for (int Trial = 0; Trial < 40; ++Trial) {
    const size_t N = 2 + static_cast<size_t>(Rng.uniformInt(3));
    TransportInstance Inst;
    Inst.Units.resize(N);
    for (int64_t &U : Inst.Units)
      U = static_cast<int64_t>(Rng.uniformInt(3));
    std::vector<std::vector<int64_t>> Cost(N, std::vector<int64_t>(N));
    Inst.Cost.resize(N * N);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J < N; ++J) {
        Inst.Cost[I * N + J] = static_cast<int64_t>(Rng.uniformInt(9));
        Cost[I][J] = I == J ? Forbidden : Inst.Cost[I * N + J];
      }
    MinCostFlow Net = denseNetwork(Inst);
    MinCostFlow::Result R = Net.solve();
    const int64_t Brute = bruteForceTransport(Inst.Units, Inst.Units, Cost);
    EXPECT_EQ(R.Feasible, Brute < Forbidden) << "trial " << Trial;
    if (R.Feasible) {
      EXPECT_EQ(R.TotalCost, Brute) << "trial " << Trial;
    }
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Net.flow(I, I), 0) << "trial " << Trial;
  }
}

TEST(DenseMinCostFlowTest, RejectsNegativeCostNamingTheCell) {
  MinCostFlow Net({2, 2, 2});
  Net.cost(0, 1) = 1;
  Net.cost(1, 2) = -3;
  Net.cost(2, 2) = -7; // the diagonal has no arc and is not checked
  try {
    Net.solve();
    FAIL() << "a negative cost was accepted";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("-3 at cell (1, 2)"),
              std::string::npos)
        << E.what();
  }
  MinCostFlow Units({1, -1});
  EXPECT_THROW(Units.solve(), std::invalid_argument);
}
