//===- flow/MinCostFlow.cpp - Minimum-cost flow solver ----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "flow/MinCostFlow.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

using namespace marqsim;

static constexpr int64_t kInfDist = std::numeric_limits<int64_t>::max() / 4;

MinCostFlow::MinCostFlow(std::vector<int64_t> UnitsIn)
    : N(UnitsIn.size()), Words((N + 63) / 64), Units(std::move(UnitsIn)),
      Cost(N * N, 0), Flow(N * N, 0), Positive(N * Words, 0),
      SourceFlow(N, 0), SinkFlow(N, 0) {}

size_t MinCostFlow::nextPositiveRow(size_t J, size_t From) const {
  if (From >= N)
    return From;
  const uint64_t *Bits = &Positive[J * Words];
  size_t W = From / 64;
  uint64_t Word = Bits[W] & (~uint64_t(0) << (From % 64));
  while (Word == 0) {
    if (++W == Words)
      return N;
    Word = Bits[W];
  }
  return W * 64 + static_cast<size_t>(__builtin_ctzll(Word));
}

void MinCostFlow::setPositive(size_t I, size_t J) {
  Positive[J * Words + I / 64] |= uint64_t(1) << (I % 64);
}

void MinCostFlow::clearPositive(size_t I, size_t J) {
  Positive[J * Words + I / 64] &= ~(uint64_t(1) << (I % 64));
}

int64_t MinCostFlow::checkedTotal() const {
  int64_t Total = 0;
  for (size_t I = 0; I < N; ++I) {
    if (Units[I] < 0)
      throw std::invalid_argument("MinCostFlow: negative units " +
                                  std::to_string(Units[I]) + " at row " +
                                  std::to_string(I));
    if (Units[I] >= kInfiniteCapacity - Total)
      throw std::invalid_argument(
          "MinCostFlow: unit total reaches kInfiniteCapacity at row " +
          std::to_string(I));
    Total += Units[I];
  }
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J && Cost[I * N + J] < 0)
        throw std::invalid_argument(
            "MinCostFlow: negative cost " + std::to_string(Cost[I * N + J]) +
            " at cell (" + std::to_string(I) + ", " + std::to_string(J) +
            ")");
  return Total;
}

bool MinCostFlow::dijkstra() {
  const size_t S = 0, T = sink();
  Dist.assign(2 * N + 2, kInfDist);
  Dist[S] = 0;
  Heap.clear();
  auto Push = [&](int64_t D, size_t V) {
    Heap.push_back({D, static_cast<uint32_t>(V)});
    std::push_heap(Heap.begin(), Heap.end(), std::greater<>());
  };
  Push(0, S);
  while (!Heap.empty()) {
    std::pop_heap(Heap.begin(), Heap.end(), std::greater<>());
    auto [D, V] = Heap.back();
    Heap.pop_back();
    if (D > Dist[V])
      continue;
    auto Relax = [&](size_t To, int64_t Reduced) {
      assert(Reduced >= 0 && "negative reduced cost in Dijkstra");
      if (D + Reduced < Dist[To]) {
        Dist[To] = D + Reduced;
        Push(D + Reduced, To);
      }
    };
    if (V == S) {
      for (size_t I = 0; I < N; ++I)
        if (SourceFlow[I] < Units[I])
          Relax(row(I), Potential[S] - Potential[row(I)]);
    } else if (V <= N) {
      // Row I. Its back-arc to S cannot shorten Dist[S] = 0.
      const size_t I = V - 1;
      const int64_t *CostRow = &Cost[I * N];
      for (size_t J = 0; J < N; ++J)
        if (J != I)
          Relax(column(J), CostRow[J] + Potential[V] - Potential[column(J)]);
    } else if (V < T) {
      const size_t J = V - 1 - N;
      for (size_t I = nextPositiveRow(J, 0); I < N;
           I = nextPositiveRow(J, I + 1))
        Relax(row(I), -Cost[I * N + J] + Potential[V] - Potential[row(I)]);
      if (SinkFlow[J] < Units[J])
        Relax(T, Potential[V] - Potential[T]);
    } else {
      for (size_t J = 0; J < N; ++J)
        if (SinkFlow[J] > 0)
          Relax(column(J), Potential[T] - Potential[column(J)]);
    }
  }
  if (Dist[T] >= kInfDist)
    return false;
  // Fold distances into the potentials; unreachable nodes move by the sink
  // distance so future reduced costs stay non-negative.
  for (size_t V = 0; V < Dist.size(); ++V)
    Potential[V] += Dist[V] < kInfDist ? Dist[V] : Dist[T];
  return true;
}

int64_t MinCostFlow::pushRow(size_t I, int64_t Limit) {
  const size_t V = row(I);
  const int32_t Next = Level[V] + 1;
  const int64_t *CostRow = &Cost[I * N];
  int64_t *FlowRow = &Flow[I * N];
  int64_t Pushed = 0;
  for (uint32_t &J = Cursor[V]; J < N; ++J) {
    if (J == I || Level[column(J)] != Next ||
        CostRow[J] + Potential[V] - Potential[column(J)] != 0)
      continue;
    const int64_t Sub = pushColumn(
        J, std::min(Limit - Pushed, kInfiniteCapacity - FlowRow[J]));
    if (Sub > 0) {
      if (FlowRow[J] == 0)
        setPositive(I, J);
      FlowRow[J] += Sub;
      Pushed += Sub;
      if (Pushed == Limit)
        return Pushed;
    }
  }
  // Dead end: prevent revisiting this row within the phase.
  Level[V] = -1;
  return Pushed;
}

int64_t MinCostFlow::pushColumn(size_t J, int64_t Limit) {
  const size_t V = column(J), T = sink();
  const int32_t Next = Level[V] + 1;
  int64_t Pushed = 0;
  // The cursor runs over rows 0..N-1 (reverse arcs), then N (the arc to T).
  uint32_t &Arc = Cursor[V];
  for (Arc = nextPositiveRow(J, Arc); Arc < N;
       Arc = nextPositiveRow(J, Arc + 1)) {
    const size_t I = Arc;
    if (Level[row(I)] != Next ||
        -Cost[I * N + J] + Potential[V] - Potential[row(I)] != 0)
      continue;
    int64_t &F = Flow[I * N + J];
    const int64_t Sub = pushRow(I, std::min(Limit - Pushed, F));
    if (Sub > 0) {
      F -= Sub;
      if (F == 0)
        clearPositive(I, J);
      Pushed += Sub;
      if (Pushed == Limit)
        return Pushed;
    }
  }
  if (Arc == N) {
    if (SinkFlow[J] < Units[J] && Level[T] == Next &&
        Potential[V] - Potential[T] == 0) {
      const int64_t Sub = std::min(Limit - Pushed, Units[J] - SinkFlow[J]);
      SinkFlow[J] += Sub;
      Pushed += Sub;
      if (Pushed == Limit)
        return Pushed;
    }
    ++Arc;
  }
  Level[V] = -1;
  return Pushed;
}

int64_t MinCostFlow::blockingFlow(int64_t Limit) {
  // BFS levels restricted to the admissible (zero-reduced-cost) subgraph,
  // which prevents the DFS from walking zero-cost residual cycles. It stops
  // once T is labeled: all shallower nodes are labeled by then, and a node
  // at T's level or deeper can never reach T along rising levels.
  const size_t S = 0, T = sink();
  Level.assign(2 * N + 2, -1);
  Queue.clear();
  Level[S] = 0;
  Queue.push_back(S);
  auto Label = [&](size_t To, int32_t L) {
    Level[To] = L;
    Queue.push_back(static_cast<uint32_t>(To));
  };
  for (size_t Head = 0; Head < Queue.size() && Level[T] < 0; ++Head) {
    const size_t V = Queue[Head];
    const int32_t Next = Level[V] + 1;
    if (V == S) {
      for (size_t I = 0; I < N; ++I)
        if (SourceFlow[I] < Units[I] &&
            Potential[S] - Potential[row(I)] == 0)
          Label(row(I), Next);
    } else if (V <= N) {
      const size_t I = V - 1;
      const int64_t *CostRow = &Cost[I * N];
      for (size_t J = 0; J < N; ++J)
        if (J != I && Level[column(J)] < 0 &&
            CostRow[J] + Potential[V] - Potential[column(J)] == 0)
          Label(column(J), Next);
    } else {
      const size_t J = V - 1 - N;
      for (size_t I = nextPositiveRow(J, 0); I < N;
           I = nextPositiveRow(J, I + 1))
        if (Level[row(I)] < 0 &&
            -Cost[I * N + J] + Potential[V] - Potential[row(I)] == 0)
          Label(row(I), Next);
      if (SinkFlow[J] < Units[J] && Potential[V] - Potential[T] == 0)
        Label(T, Next);
    }
  }
  if (Level[T] < 0)
    return 0;
  Cursor.assign(2 * N + 2, 0);
  // The source's arcs, rows ascending. S is entered once per phase, so it
  // needs no cursor.
  int64_t Pushed = 0;
  for (size_t I = 0; I < N; ++I) {
    if (SourceFlow[I] >= Units[I] || Level[row(I)] != 1 ||
        Potential[S] - Potential[row(I)] != 0)
      continue;
    const int64_t Sub =
        pushRow(I, std::min(Limit - Pushed, Units[I] - SourceFlow[I]));
    if (Sub > 0) {
      SourceFlow[I] += Sub;
      Pushed += Sub;
      if (Pushed == Limit)
        break;
    }
  }
  return Pushed;
}

MinCostFlow::Result MinCostFlow::solve() {
  assert(!Solved && "network already solved");
  Solved = true;
  const int64_t Amount = checkedTotal();

  Potential.assign(2 * N + 2, 0);
  Result R;
  while (R.FlowSent < Amount) {
    if (!dijkstra())
      break;
    const int64_t Pushed = blockingFlow(Amount - R.FlowSent);
    if (Pushed == 0)
      break;
    R.FlowSent += Pushed;
  }
  R.Feasible = R.FlowSent == Amount;

  for (size_t K = 0; K < Flow.size(); ++K)
    R.TotalCost += Flow[K] * Cost[K];
  return R;
}
