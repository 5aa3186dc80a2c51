//===- tests/ReferenceMinCostFlow.cpp - Generic min-cost flow -------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ReferenceMinCostFlow.h"

#include <cassert>
#include <limits>
#include <queue>

using namespace marqsim;

static constexpr int64_t kInfDist = std::numeric_limits<int64_t>::max() / 4;

ReferenceMinCostFlow::ReferenceMinCostFlow(size_t NumNodes) : NumNodes(NumNodes) {
  Adj.resize(NumNodes);
}

void ReferenceMinCostFlow::reserve(size_t NumEdges, size_t Degree) {
  Edges.reserve(2 * NumEdges);
  OriginalCapacity.reserve(NumEdges);
  for (std::vector<uint32_t> &Arcs : Adj)
    Arcs.reserve(Degree);
}

size_t ReferenceMinCostFlow::addEdge(size_t From, size_t To, int64_t Capacity,
                            int64_t Cost) {
  assert(From < NumNodes && To < NumNodes && "edge endpoint out of range");
  assert(Capacity >= 0 && "negative capacity");
  assert(!Solved && "network already solved");
  size_t Id = Edges.size() / 2;
  Adj[From].push_back(static_cast<uint32_t>(Edges.size()));
  Edges.push_back({static_cast<uint32_t>(To), Capacity, Cost});
  Adj[To].push_back(static_cast<uint32_t>(Edges.size()));
  Edges.push_back({static_cast<uint32_t>(From), 0, -Cost});
  OriginalCapacity.push_back(Capacity);
  return Id;
}

bool ReferenceMinCostFlow::dijkstra(size_t Source, size_t Sink) {
  Dist.assign(NumNodes, kInfDist);
  Dist[Source] = 0;
  using Item = std::pair<int64_t, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> Queue;
  Queue.push({0, static_cast<uint32_t>(Source)});
  while (!Queue.empty()) {
    auto [D, V] = Queue.top();
    Queue.pop();
    if (D > Dist[V])
      continue;
    for (uint32_t EId : Adj[V]) {
      const Edge &E = Edges[EId];
      if (E.Residual <= 0)
        continue;
      int64_t Reduced = E.Cost + Potential[V] - Potential[E.To];
      assert(Reduced >= 0 && "negative reduced cost in Dijkstra");
      int64_t Cand = D + Reduced;
      if (Cand < Dist[E.To]) {
        Dist[E.To] = Cand;
        Queue.push({Cand, E.To});
      }
    }
  }
  if (Dist[Sink] >= kInfDist)
    return false;
  // Fold distances into the potentials; unreachable nodes move by the sink
  // distance so future reduced costs stay non-negative.
  for (size_t V = 0; V < NumNodes; ++V)
    Potential[V] += Dist[V] < kInfDist ? Dist[V] : Dist[Sink];
  return true;
}

int64_t ReferenceMinCostFlow::dfsPush(size_t V, size_t Sink, int64_t Limit) {
  if (V == Sink || Limit == 0)
    return Limit;
  int64_t Pushed = 0;
  for (uint32_t &Cursor = CurrentArc[V]; Cursor < Adj[V].size(); ++Cursor) {
    uint32_t EId = Adj[V][Cursor];
    Edge &E = Edges[EId];
    if (E.Residual <= 0 || Level[E.To] != Level[V] + 1)
      continue;
    if (E.Cost + Potential[V] - Potential[E.To] != 0)
      continue;
    int64_t Sub = dfsPush(E.To, Sink, std::min(Limit - Pushed, E.Residual));
    if (Sub > 0) {
      E.Residual -= Sub;
      Edges[EId ^ 1].Residual += Sub;
      Pushed += Sub;
      if (Pushed == Limit)
        return Pushed;
    }
  }
  // Dead end: prevent revisiting this vertex within the phase.
  Level[V] = -1;
  return Pushed;
}

int64_t ReferenceMinCostFlow::blockingFlow(size_t Source, size_t Sink, int64_t Limit) {
  // BFS levels restricted to the admissible (zero-reduced-cost) subgraph,
  // which prevents the DFS from walking zero-cost residual cycles.
  Level.assign(NumNodes, -1);
  std::queue<uint32_t> Queue;
  Level[Source] = 0;
  Queue.push(static_cast<uint32_t>(Source));
  while (!Queue.empty()) {
    uint32_t V = Queue.front();
    Queue.pop();
    for (uint32_t EId : Adj[V]) {
      const Edge &E = Edges[EId];
      if (E.Residual <= 0 || Level[E.To] >= 0)
        continue;
      if (E.Cost + Potential[V] - Potential[E.To] != 0)
        continue;
      Level[E.To] = Level[V] + 1;
      Queue.push(E.To);
    }
  }
  if (Level[Sink] < 0)
    return 0;
  CurrentArc.assign(NumNodes, 0);
  return dfsPush(Source, Sink, Limit);
}

ReferenceMinCostFlow::Result ReferenceMinCostFlow::solve(size_t Source, size_t Sink,
                                       int64_t Amount) {
  assert(Source < NumNodes && Sink < NumNodes && "terminal out of range");
  assert(Source != Sink && "source equals sink");
  assert(Amount >= 0 && "negative flow request");
  assert(!Solved && "network already solved");
  Solved = true;

  Potential.assign(NumNodes, 0);
  // Bellman-Ford initialization is only needed when negative costs exist.
  bool HasNegative = false;
  for (size_t K = 0; K < Edges.size(); K += 2)
    if (Edges[K].Cost < 0 && Edges[K].Residual > 0)
      HasNegative = true;
  if (HasNegative) {
    for (size_t Iter = 0; Iter + 1 < NumNodes; ++Iter) {
      bool Any = false;
      for (size_t V = 0; V < NumNodes; ++V) {
        if (Potential[V] >= kInfDist)
          continue;
        for (uint32_t EId : Adj[V]) {
          const Edge &E = Edges[EId];
          if (E.Residual <= 0)
            continue;
          if (Potential[V] + E.Cost < Potential[E.To]) {
            Potential[E.To] = Potential[V] + E.Cost;
            Any = true;
          }
        }
      }
      if (!Any)
        break;
    }
  }

  Result R;
  while (R.FlowSent < Amount) {
    if (!dijkstra(Source, Sink))
      break;
    int64_t Pushed = blockingFlow(Source, Sink, Amount - R.FlowSent);
    if (Pushed == 0)
      break;
    R.FlowSent += Pushed;
  }
  R.Feasible = R.FlowSent == Amount;

  // Total cost from the flow on the forward edges.
  for (size_t Id = 0; Id < OriginalCapacity.size(); ++Id)
    R.TotalCost += flowOnEdge(Id) * Edges[2 * Id].Cost;
  return R;
}

int64_t ReferenceMinCostFlow::flowOnEdge(size_t EdgeId) const {
  assert(EdgeId < OriginalCapacity.size() && "edge id out of range");
  return OriginalCapacity[EdgeId] - Edges[2 * EdgeId].Residual;
}
