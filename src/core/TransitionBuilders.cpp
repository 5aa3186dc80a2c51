//===- core/TransitionBuilders.cpp - Transition matrix construction ----------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/TransitionBuilders.h"

#include "core/CNOTCountOracle.h"
#include "flow/MinCostFlow.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

using namespace marqsim;

TransitionMatrix marqsim::buildQDrift(const Hamiltonian &H) {
  return TransitionMatrix::fromStationary(H.stationaryDistribution());
}

// Exactness of the largest-remainder step. Let S = Scale <= 2^40 (exact
// as a double) and e_i = fl(pi_i * S) = pi_i * S * (1 + d_i), |d_i| <=
// 2^-53; floor(e_i) and r_i = e_i - floor(e_i) are exact. Then
//   Missing = S - sum floor(e_i)
//           = S (1 - sum pi) - S sum pi_i d_i + sum r_i,  r_i in [0, 1),
// and |S sum pi_i d_i| <= 2^40 * 2^-53 * sum pi < 2^-12. So whenever
// |1 - sum pi| * S < 1 - 2^-12, the integer Missing lies in (-1, N + 1):
// 0 <= Missing <= N, and the loop reads only Remainders[0, N). For a
// stationary distribution pi_i = |h_i| / lambda, |1 - sum pi| is at most
// about N * 2^-53 (the rounding of lambda's sum and of each quotient), so
// at S = 2^40 the condition holds for any N below 8000 terms; the largest
// registry model has 661. Near S = 2^53 the product errors alone reach a
// unit and Missing outgrows N.
std::vector<int64_t> marqsim::quantizeStationary(const std::vector<double> &Pi,
                                                 int64_t Scale) {
  const size_t N = Pi.size();
  std::vector<int64_t> Units(N);
  std::vector<std::pair<double, size_t>> Remainders(N);
  int64_t Total = 0;
  for (size_t I = 0; I < N; ++I) {
    double Exact = Pi[I] * static_cast<double>(Scale);
    Units[I] = static_cast<int64_t>(std::floor(Exact));
    Remainders[I] = {Exact - std::floor(Exact), I};
    Total += Units[I];
  }
  int64_t Missing = Scale - Total;
  if (Missing < 0 || Missing > static_cast<int64_t>(N))
    throw std::invalid_argument(
        "quantizeStationary: prob scale " + std::to_string(Scale) +
        " leaves " + std::to_string(Missing) + " units to hand out over " +
        std::to_string(N) + " terms; the largest-remainder step needs 0 to " +
        std::to_string(N) + " (prob scale at most " +
        std::to_string(MCFPOptions::MaxProbScale) + ")");
  std::sort(Remainders.begin(), Remainders.end(),
            std::greater<std::pair<double, size_t>>());
  for (int64_t K = 0; K < Missing; ++K)
    ++Units[Remainders[static_cast<size_t>(K)].second];
  return Units;
}

// Cost scale bound. The CNOT oracle charges at most 126 per cell (two
// ladders of at most 63 CNOTs on 64 qubits) and a perturbation round adds
// CostScale once more, so a cell costs below CostScale * 2^7. Two sums of
// cells must fit:
//   - a simple path of the residual network visits each of its 2N + 2
//     nodes at most once, so every path cost (each Dijkstra distance and
//     Johnson potential) is below (2N + 1) * CostScale * 2^7. The network
//     holds two N x N int64 matrices, so 2^20 terms would take 16 TiB and
//     any N that fits in memory is below that: path costs stay below
//     2^28 * CostScale, far under kInfiniteCapacity = 2^60;
//   - the solve's TotalCost sums flow times cost over at most
//     MaxProbScale = 2^40 units: below 2^40 * 2^7 * CostScale.
// At CostScale <= 2^15 the second is below 2^62 and the first below 2^43.
// Without a bound, CostScale = 2^62 overflowed the cell products alone.
static void checkCostScale(const MCFPOptions &Opts) {
  if (Opts.CostScale > MCFPOptions::MaxCostScale)
    throw std::invalid_argument(
        "MCFP cost scale " + std::to_string(Opts.CostScale) +
        " is above the largest supported " +
        std::to_string(MCFPOptions::MaxCostScale));
}

/// Shared MCFP skeleton of Algorithm 2: the transport network with
/// stationary supplies and demands and costs from \p CostFn (diagonal
/// omitted), solved, and turned into the transition matrix
/// p_ij = f_ij / pi_i.
template <typename CostFnT>
static TransitionMatrix solveFlowMatrix(const Hamiltonian &H,
                                        const MCFPOptions &Opts,
                                        CostFnT &&CostFn) {
  const size_t N = H.numTerms();
  assert(N >= 2 && "the flow model needs at least two terms");
  std::vector<double> Pi = H.stationaryDistribution();
  for ([[maybe_unused]] double P : Pi)
    assert(P <= 0.5 + 1e-12 &&
           "pi_i > 0.5: split the Hamiltonian first (Theorem 5.1)");
  std::vector<int64_t> Units = quantizeStationary(Pi, Opts.ProbScale);

  MinCostFlow Net(Units);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J) // excluded to rule out the trivial identity matrix
        Net.cost(I, J) = CostFn(I, J);

  MinCostFlow::Result Result = Net.solve();
  assert(Result.Feasible && "MCFP infeasible: stationary capacities violate "
                            "the pi_i <= 0.5 precondition");
  (void)Result;

  TransitionMatrix P(N);
  for (size_t I = 0; I < N; ++I) {
    if (Units[I] == 0) {
      // A term whose stationary weight quantized to zero carries no flow;
      // give it the qDrift row (it is (almost) never visited anyway).
      for (size_t J = 0; J < N; ++J)
        P.at(I, J) = Pi[J];
      continue;
    }
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      P.at(I, J) = static_cast<double>(Net.flow(I, J)) /
                   static_cast<double>(Units[I]);
    }
  }
  return P;
}

TransitionMatrix
marqsim::buildGateCancellation(const Hamiltonian &H, const MCFPOptions &Opts) {
  checkCostScale(Opts);
  std::vector<std::vector<unsigned>> Cost = cnotCostTable(H);
  return solveFlowMatrix(H, Opts, [&](size_t I, size_t J) {
    return Opts.CostScale * static_cast<int64_t>(Cost[I][J]);
  });
}

TransitionMatrix
marqsim::buildFromCostTable(const Hamiltonian &H,
                            const std::vector<std::vector<int64_t>> &Cost,
                            const MCFPOptions &Opts) {
  assert(Cost.size() == H.numTerms() && "cost table size mismatch");
  return solveFlowMatrix(
      H, Opts, [&](size_t I, size_t J) { return Cost[I][J]; });
}

TransitionMatrix marqsim::buildRandomPerturbation(const Hamiltonian &H,
                                                  unsigned Rounds, RNG &Rng,
                                                  const MCFPOptions &Opts,
                                                  unsigned Jobs) {
  assert(Rounds > 0 && "perturbation averaging needs at least one round");
  checkCostScale(Opts);
  std::vector<std::vector<unsigned>> Cost = cnotCostTable(H);
  const size_t N = H.numTerms();

  // Independent epsilon per edge: +1 CNOT with probability 1/2 (the
  // paper's perturbation configuration, Section 6.1). Every bit is drawn
  // up front on the calling thread, in the serial (round, I, J) order, so
  // the caller's RNG ends in the same state for any Jobs. One bit per
  // cell keeps 100 rounds at 661 terms near 5 MB.
  const size_t Cells = N * N, WordsPerRound = (Cells + 63) / 64;
  std::vector<uint64_t> Bumps(Rounds * WordsPerRound, 0);
  for (size_t Round = 0; Round < Rounds; ++Round) {
    uint64_t *Words = &Bumps[Round * WordsPerRound];
    for (size_t Cell = 0; Cell < Cells; ++Cell)
      if (Rng.bernoulli(0.5))
        Words[Cell / 64] |= uint64_t(1) << (Cell % 64);
  }

  // The rounds are independent solves. They run in waves of at most Jobs,
  // and each wave folds into Sum in ascending round order — the serial
  // summation order — so the result is bit-identical for every Jobs, and
  // only one wave's networks and round matrices are ever alive.
  if (Jobs == 0)
    Jobs = ThreadPool::hardwareWorkers();
  const size_t Wave = std::min<size_t>(Jobs, Rounds);
  std::vector<TransitionMatrix> Solved(Wave);
  TransitionMatrix Sum(N);
  for (size_t First = 0; First < Rounds; First += Wave) {
    const size_t Count = std::min<size_t>(Wave, Rounds - First);
    parallelFor(Count, Jobs, [&](size_t K) {
      const uint64_t *Words = &Bumps[(First + K) * WordsPerRound];
      Solved[K] = solveFlowMatrix(H, Opts, [&](size_t I, size_t J) {
        const size_t Cell = I * N + J;
        const bool Bump = (Words[Cell / 64] >> (Cell % 64)) & 1;
        return Opts.CostScale * static_cast<int64_t>(Cost[I][J]) +
               (Bump ? Opts.CostScale : 0);
      });
    });
    for (size_t K = 0; K < Count; ++K) {
      for (size_t I = 0; I < N; ++I)
        for (size_t J = 0; J < N; ++J)
          Sum.at(I, J) += Solved[K].at(I, J);
      Solved[K] = TransitionMatrix(); // release before the next wave
    }
  }
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      Sum.at(I, J) /= Rounds;
  return Sum;
}

TransitionMatrix
marqsim::buildCommutationGrouping(const Hamiltonian &H,
                                  const MCFPOptions &Opts) {
  checkCostScale(Opts);
  return solveFlowMatrix(H, Opts, [&](size_t I, size_t J) {
    bool Commute =
        H.term(I).String.commutesWith(H.term(J).String);
    return Commute ? 0 : Opts.CostScale;
  });
}

TransitionMatrix marqsim::combineWithQDrift(const Hamiltonian &H,
                                            const TransitionMatrix &P,
                                            double Theta) {
  assert(Theta > 0.0 && Theta <= 1.0 && "qDrift weight must be in (0, 1]");
  TransitionMatrix Pqd = buildQDrift(H);
  return TransitionMatrix::combine({&Pqd, &P}, {Theta, 1.0 - Theta});
}

TransitionMatrix marqsim::makeConfigMatrix(const Hamiltonian &H, double WQd,
                                           double WGc, double WRp,
                                           unsigned PerturbationRounds,
                                           uint64_t Seed,
                                           const MCFPOptions &Opts) {
  assert(std::fabs(WQd + WGc + WRp - 1.0) <= 1e-9 &&
         "configuration weights must sum to 1");
  std::vector<const TransitionMatrix *> Parts;
  std::vector<double> Weights;
  TransitionMatrix Pqd, Pgc, Prp;
  if (WQd > 0.0) {
    Pqd = buildQDrift(H);
    Parts.push_back(&Pqd);
    Weights.push_back(WQd);
  }
  if (WGc > 0.0) {
    Pgc = buildGateCancellation(H, Opts);
    Parts.push_back(&Pgc);
    Weights.push_back(WGc);
  }
  if (WRp > 0.0) {
    RNG Rng(Seed);
    Prp = buildRandomPerturbation(H, PerturbationRounds, Rng, Opts);
    Parts.push_back(&Prp);
    Weights.push_back(WRp);
  }
  assert(!Parts.empty() && "all configuration weights are zero");
  return TransitionMatrix::combine(Parts, Weights);
}
