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

using namespace marqsim;

TransitionMatrix marqsim::buildQDrift(const Hamiltonian &H) {
  return TransitionMatrix::fromStationary(H.stationaryDistribution());
}

/// Quantizes \p Pi to integers summing exactly to \p Scale using the
/// largest-remainder method.
static std::vector<int64_t> quantize(const std::vector<double> &Pi,
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
  assert(Missing >= 0 && Missing <= static_cast<int64_t>(N) &&
         "quantization drift");
  std::sort(Remainders.begin(), Remainders.end(),
            std::greater<std::pair<double, size_t>>());
  for (int64_t K = 0; K < Missing; ++K)
    ++Units[Remainders[static_cast<size_t>(K)].second];
  return Units;
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
  std::vector<int64_t> Units = quantize(Pi, Opts.ProbScale);

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
