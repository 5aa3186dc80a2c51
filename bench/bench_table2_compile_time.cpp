//===- bench/bench_table2_compile_time.cpp - Paper Table 2 -------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates Table 2 ("Compilation time analysis"): wall-clock time to
// (a) generate the transition matrices Pqd / Pgc / Prp and (b) sample and
// emit the circuit for the three configurations, on randomly generated
// Hamiltonians with {10, 20, 30} qubits x {100, 500, 1000} Pauli strings
// (t = pi/4, eps = 0.05, exactly the paper's setting).
//
// Absolute times are not comparable to the paper (C++ vs Python/networkx);
// the *scaling* with the string count is the reproduced shape: matrix
// generation is dominated by the MCFP (~n^2..n^3 in strings, insensitive
// to qubit count), circuit generation scales with N and string count.
//
// Prp is timed twice: its rounds solved one at a time (jobs=1) and
// concurrently on every hardware thread. Each Pgc/Prp column is the median
// of 3 timed runs. Every run must repeat the first run's bits, and the two
// Prp matrices must be bit-identical; the bench exits 1 otherwise.
//
// Flags: --strings=100,500,1000  --qubits=10,20,30  --rounds (Prp rounds,
// paper: 100, default 4)  --paper for the full setting.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "hamgen/Models.h"
#include "support/Serial.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

using namespace marqsim;

static std::vector<int64_t> parseList(const std::string &Text) {
  std::vector<int64_t> Out;
  std::stringstream SS(Text);
  std::string Item;
  while (std::getline(SS, Item, ','))
    if (!Item.empty())
      Out.push_back(std::strtoll(Item.c_str(), nullptr, 10));
  return Out;
}

static bool sameBits(const TransitionMatrix &A, const TransitionMatrix &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    for (size_t J = 0; J < A.size(); ++J)
      if (serial::doubleBits(A.at(I, J)) != serial::doubleBits(B.at(I, J)))
        return false;
  return true;
}

/// Median wall time of 3 runs of \p Build; the first run's matrix goes to
/// \p Out, and \p Repeatable is cleared if a later run's bits differ.
template <typename BuildFn>
static double medianOf3(BuildFn &&Build, TransitionMatrix &Out,
                        bool &Repeatable) {
  double Times[3];
  for (int K = 0; K < 3; ++K) {
    Timer T;
    TransitionMatrix P = Build();
    Times[K] = T.seconds();
    if (K == 0)
      Out = std::move(P);
    else
      Repeatable &= sameBits(Out, P);
  }
  std::sort(Times, Times + 3);
  return Times[1];
}

int main(int Argc, char **Argv) {
  CommandLine CL(Argc, Argv);
  bool Paper = CL.getBool("paper");
  std::vector<int64_t> Qubits = parseList(CL.getString("qubits", "10,20,30"));
  std::vector<int64_t> Strings =
      parseList(CL.getString("strings", "100,500,1000"));
  unsigned Rounds =
      static_cast<unsigned>(CL.getInt("rounds", Paper ? 100 : 4));
  const unsigned Jobs = ThreadPool::hardwareWorkers();
  double T = M_PI / 4.0;
  double Eps = 0.05;
  // Random Hamiltonians are rescaled to a moderate lambda so the sampling
  // budget N stays in the paper's regime regardless of the term count.
  double Lambda = CL.getDouble("lambda", 20.0);

  std::cout << "Table 2: compilation time analysis (t=pi/4, eps=0.05, "
               "lambda=" << formatDouble(Lambda)
            << ", Prp rounds=" << Rounds << ")\n\n";
  const std::string PrpParallel = "Prp j=" + std::to_string(Jobs) + "(s)";
  Table Out({"Qubit#", "String#", "N", "Pqd(s)", "Pgc(s)", "Prp j=1(s)",
             PrpParallel, "circ Baseline(s)", "circ GC(s)",
             "circ GC-RP(s)"});
  bool Identical = true, Repeatable = true;

  for (int64_t Q : Qubits) {
    for (int64_t S : Strings) {
      RNG Gen(0xBEEF + static_cast<uint64_t>(Q * 1000 + S));
      Hamiltonian H =
          makeRandomHamiltonian(static_cast<unsigned>(Q),
                                static_cast<size_t>(S), Gen)
              .rescaledToLambda(Lambda)
              .splitLargeTerms();

      Timer TQd;
      TransitionMatrix Pqd = buildQDrift(H);
      double TimeQd = TQd.seconds();

      TransitionMatrix Pgc, Prp, PrpJobs;
      double TimeGc = medianOf3([&] { return buildGateCancellation(H); },
                                Pgc, Repeatable);
      auto PerturbAt = [&](unsigned J) {
        return [&H, Rounds, J] {
          RNG PerturbRng(0x5EED);
          return buildRandomPerturbation(H, Rounds, PerturbRng, {}, J);
        };
      };
      double TimeRp = medianOf3(PerturbAt(1), Prp, Repeatable);
      double TimeRpJobs = medianOf3(PerturbAt(Jobs), PrpJobs, Repeatable);
      Identical &= sameBits(Prp, PrpJobs);

      TransitionMatrix MGc =
          TransitionMatrix::combine({&Pqd, &Pgc}, {0.4, 0.6});
      TransitionMatrix MRp =
          TransitionMatrix::combine({&Pqd, &Pgc, &Prp}, {0.4, 0.3, 0.3});

      size_t N = qdriftSampleCount(H.lambda(), T, Eps);
      // Circuit-generation time via the engine: strategy construction
      // (alias tables) plus one sampled shot, matching the paper's "circuit
      // generation" column.
      CompilerEngine Engine;
      auto TimeCircuit = [&](const TransitionMatrix &P) {
        Timer TC;
        SamplingStrategy Strategy(std::make_shared<const HTTGraph>(H, P), T,
                                  Eps);
        CompilationResult R = Engine.compileOne(Strategy, 0xCAFE);
        (void)R;
        return TC.seconds();
      };
      double CBase = TimeCircuit(Pqd);
      double CGc = TimeCircuit(MGc);
      double CRp = TimeCircuit(MRp);

      Out.addRow({std::to_string(Q), std::to_string(S), std::to_string(N),
                  formatDouble(TimeQd), formatDouble(TimeGc),
                  formatDouble(TimeRp), formatDouble(TimeRpJobs),
                  formatDouble(CBase),
                  formatDouble(CGc), formatDouble(CRp)});
    }
  }
  Out.print(std::cout);
  std::cout << "\nPgc/Prp columns: median of 3 timed runs; every run "
               "repeated its bits: "
            << (Repeatable ? "yes" : "NO") << "\n";
  std::cout << "Prp bit-identical at jobs=1 and jobs=" << Jobs << ": "
            << (Identical ? "yes" : "NO") << "\n";
  std::cout << "\nPaper shape to check: times depend almost entirely on the "
               "string count, not\nthe qubit count; Pgc/Prp (MCFP) dominate "
               "matrix generation and grow\nsuperlinearly in the string "
               "count; circuit generation is linear in N.\n";
  return Identical && Repeatable ? 0 : 1;
}
