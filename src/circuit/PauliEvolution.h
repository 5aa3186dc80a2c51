//===- circuit/PauliEvolution.h - Pauli rotation synthesis ------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthesis of exp(i * theta/2 * P) for a Pauli string P into basic gates,
/// following Fig. 3 of the paper: identical single-qubit basis-change layers
/// at both ends (H for X, the Clifford pair diagonalizing Y for Y), a CNOT
/// ladder funnelling the parity of the support into a chosen root qubit,
/// and a single Rz rotation on the root.
///
/// Because all ladder CNOTs share the root as their target they mutually
/// commute, so the ladder order is free; the emitter in `core` exploits this
/// to line up cancellations across consecutive snippets.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_CIRCUIT_PAULIEVOLUTION_H
#define MARQSIM_CIRCUIT_PAULIEVOLUTION_H

#include "circuit/Circuit.h"
#include "pauli/PauliString.h"

#include <vector>

namespace marqsim {

/// One step exp(i * Tau * P) of a compiled simulation schedule.
///
/// Compilers produce schedules (term sequence with merged repeat runs);
/// the emitter lowers them to gates and the simulator can evaluate them
/// analytically — both views realize exactly the same unitary.
struct ScheduledRotation {
  PauliString String;
  double Tau = 0.0;

  ScheduledRotation() = default;
  ScheduledRotation(PauliString String, double Tau)
      : String(String), Tau(Tau) {}
};

/// Options controlling snippet synthesis.
struct PauliSynthesisOptions {
  /// Root qubit carrying the Rz; must be in the support of the string.
  /// -1 selects the highest support qubit.
  int Root = -1;

  /// Ladder order for the leading CNOT block (qubit indices, all support
  /// qubits except the root). Empty selects ascending order. The trailing
  /// block always mirrors the leading block.
  std::vector<unsigned> LadderOrder;
};

/// Appends the circuit for exp(i * Theta/2 * P) to \p C.
///
/// An identity string contributes only a global phase and appends nothing.
/// Asserts that a non-default Root lies in the support of \p P.
void appendPauliRotation(Circuit &C, const PauliString &P, double Theta,
                         const PauliSynthesisOptions &Options = {});

/// Number of CNOTs a standalone snippet for \p P uses: 2 * (weight - 1).
unsigned pauliRotationCNOTs(const PauliString &P);

/// Appends the basis-change layer entering (\p Inverse = false) or leaving
/// (\p Inverse = true) the Z basis for qubit \p Q with operator \p Op.
/// X -> H; Y -> Sdg,H entering and H,S leaving; Z/I -> nothing.
///
/// \p S is a gate sink: a Circuit, or any type with the same h/s/sdg
/// builders, such as the emitter's counting sink. This is the one
/// definition of the rule; the snippet synthesis above and the schedule
/// emitter in `core` both call it.
template <typename Sink>
void appendBasisChange(Sink &S, PauliOpKind Op, unsigned Q, bool Inverse) {
  switch (Op) {
  case PauliOpKind::I:
  case PauliOpKind::Z:
    return;
  case PauliOpKind::X:
    S.h(Q);
    return;
  case PauliOpKind::Y:
    // W = H * Sdg diagonalizes Y: W Y W^dag = Z. Entering the Z basis
    // applies W (circuit order Sdg then H); leaving applies W^dag = S * H
    // (circuit order H then S).
    if (!Inverse) {
      S.sdg(Q);
      S.h(Q);
    } else {
      S.h(Q);
      S.s(Q);
    }
    return;
  }
  assert(false && "invalid PauliOpKind");
}

} // namespace marqsim

#endif // MARQSIM_CIRCUIT_PAULIEVOLUTION_H
