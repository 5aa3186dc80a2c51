//===- sim/Evolution.h - Exact Hamiltonian evolution ------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact time evolution e^{iHt} for Pauli-sum Hamiltonians.
///
/// Two paths: a dense unitary through the Pade matrix exponential (small
/// systems, used for ground truth in tests) and a matrix-free evolution by
/// a scaled, truncated Taylor series, which applies H term by term in
/// O(#terms * 2^n) per matrix-vector product.
///
/// The matrix-free path has one body, which evolves a panel of states at
/// once: the states are stored basis-major with the columns innermost, as
/// split re/im arrays. Each term precomputes its X mask, Z mask and the
/// only two values T.Coeff * applyToBasis(B) can take; per basis index the
/// parity of ZMask & B selects one, and every column reuses it. The loops
/// run term-outer, basis-middle, column-inner and each column keeps its
/// own Taylor cutoff, so a column evolved in a panel is bit-identical to
/// the same column evolved alone. evolveExact and applyHamiltonian are
/// width-1 calls of that body; FidelityEvaluator evolves its target
/// columns through evolveExactPanel in blocks of StatePanel::PreferredWidth.
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_EVOLUTION_H
#define MARQSIM_SIM_EVOLUTION_H

#include "linalg/Matrix.h"
#include "pauli/Hamiltonian.h"

namespace marqsim {

/// y = H x for a Pauli-sum Hamiltonian (matrix-free).
CVector applyHamiltonian(const Hamiltonian &H, const CVector &X);

/// Computes e^{i T H} |In> by a scaled, truncated Taylor expansion.
/// Accurate to ~1e-12 for the lambda*t ranges of the experiments.
CVector evolveExact(const Hamiltonian &H, double T, const CVector &In);

/// evolveExact over a panel: Out[C] = e^{i T H} |In[C]> for every state,
/// each bit-identical to evolveExact(H, T, In[C]). Work per Taylor step is
/// shared across the states, so up to StatePanel::PreferredWidth states
/// cost little more than one.
std::vector<CVector> evolveExactPanel(const Hamiltonian &H, double T,
                                      const std::vector<CVector> &In);

/// Dense e^{i T H} via the Pade exponential (<= 10 qubits recommended).
Matrix exactUnitary(const Hamiltonian &H, double T);

} // namespace marqsim

#endif // MARQSIM_SIM_EVOLUTION_H
