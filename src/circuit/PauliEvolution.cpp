//===- circuit/PauliEvolution.cpp - Pauli rotation synthesis ----------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "circuit/PauliEvolution.h"

using namespace marqsim;

void marqsim::appendPauliRotation(Circuit &C, const PauliString &P,
                                  double Theta,
                                  const PauliSynthesisOptions &Options) {
  uint64_t Support = P.supportMask();
  if (Support == 0)
    return; // exp(i theta/2 I) is a global phase

  unsigned Root;
  if (Options.Root >= 0) {
    Root = static_cast<unsigned>(Options.Root);
    assert(((Support >> Root) & 1) && "root outside the string support");
  } else {
    Root = 63 - __builtin_clzll(Support);
  }

  // The ladder covers every support qubit except the root.
  std::vector<unsigned> Ladder;
  if (!Options.LadderOrder.empty()) {
    Ladder = Options.LadderOrder;
    assert(Ladder.size() == static_cast<size_t>(P.weight()) - 1 &&
           "ladder order must list all non-root support qubits");
  } else {
    for (unsigned Q = 0; Q < 64; ++Q)
      if (((Support >> Q) & 1) && Q != Root)
        Ladder.push_back(Q);
  }

  // Entering basis-change layer.
  for (unsigned Q = 0; Q < 64; ++Q)
    if ((Support >> Q) & 1)
      appendBasisChange(C, P.op(Q), Q, /*Inverse=*/false);

  // Leading CNOT block: accumulate the support parity into the root.
  for (unsigned Q : Ladder)
    C.cnot(Q, Root);

  // Rz(-Theta) realizes exp(i Theta/2 Z) on the accumulated parity, since
  // Rz(phi) = exp(-i phi/2 Z).
  C.rz(Root, -Theta);

  // Trailing CNOT block mirrors the leading one (reversed order per Fig. 3;
  // ladder CNOTs commute, so this is a presentation choice).
  for (size_t I = Ladder.size(); I-- > 0;)
    C.cnot(Ladder[I], Root);

  // Leaving basis-change layer.
  for (unsigned Q = 0; Q < 64; ++Q)
    if ((Support >> Q) & 1)
      appendBasisChange(C, P.op(Q), Q, /*Inverse=*/true);
}

unsigned marqsim::pauliRotationCNOTs(const PauliString &P) {
  unsigned W = P.weight();
  return W == 0 ? 0 : 2 * (W - 1);
}
