//===- sim/StateVector.h - Statevector simulator ----------------*- C++ -*-===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A full-statevector quantum simulator over the circuit IR.
///
/// Amplitudes are indexed by computational basis states with qubit 0 as the
/// least significant bit. Gate application is the usual strided two-amplitude
/// update; circuits build unitaries column by column. The simulator both
/// validates the Pauli-rotation synthesis (circuit unitary vs dense
/// exponential) and evaluates compiled circuits in the experiment harnesses.
///
/// The Pauli kernels are fused single-pass updates: exp(i theta P) visits
/// each {X, X^xMask} butterfly pair exactly once and updates it in place
/// (no scratch round trip), and Z-only strings take a diagonal fast path
/// that touches each element's own slot only — half the memory traffic
/// again. Both paths run the real butterfly of the rotation's phase
/// class, which gives every nonzero amplitude the bits of the textbook
/// two-pass formulation (only a zero's sign may differ), so fidelities
/// and golden schedules are unchanged — see the determinism contract in
/// sim/Kernels.h and SimTest's reference-kernel tests for the pinning. The
/// loops themselves live behind the runtime-dispatched kernel table of
/// sim/Kernels.h, which picks AVX-512/AVX2/NEON variants that are
/// bit-identical to the scalar reference.
///
/// The class is a template over the amplitude precision. The double
/// instantiation (the StateVector alias) is the bit-exact default every
/// golden value is frozen against. The float instantiation
/// (StateVectorF32) is the opt-in walk tier behind --precision=fp32:
/// per-rotation constants are computed in double and narrowed once,
/// amplitudes evolve in float through the interleaved FP32 kernels, and
/// overlaps/norms still accumulate in double. Its results are
/// tolerance-defined against FP64, never bit-exact (sim/Precision.h).
///
//===----------------------------------------------------------------------===//

#ifndef MARQSIM_SIM_STATEVECTOR_H
#define MARQSIM_SIM_STATEVECTOR_H

#include "circuit/Circuit.h"
#include "linalg/Matrix.h"
#include "pauli/PauliString.h"
#include "support/AlignedAlloc.h"

#include <cstdint>

namespace marqsim {

namespace detail {
/// Fills \p M with the 2x2 unitary of a single-qubit gate. Returns false
/// for CNOT (the only two-qubit gate; callers special-case the controlled
/// flip). One home for the gate constants so the single-state and panel
/// simulators apply bit-identical matrices.
bool singleQubitMatrix(const Gate &G, Complex M[2][2]);
} // namespace detail

/// An n-qubit pure state (n <= 26 to keep memory bounded).
template <typename Real> class BasicStateVector {
public:
  using RealType = Real;

  /// Amplitude storage: cache-line aligned so the dispatched kernels'
  /// full-width vector loads are always aligned. For the double
  /// instantiation this is exactly CVector.
  using AmpVector =
      std::vector<std::complex<Real>, AlignedAllocator<std::complex<Real>, 64>>;

  /// Initializes to the basis state |Basis> over \p NumQubits qubits.
  explicit BasicStateVector(unsigned NumQubits, uint64_t Basis = 0);

  /// Wraps an existing amplitude vector (size must be a power of two).
  BasicStateVector(unsigned NumQubits, AmpVector Amplitudes);

  unsigned numQubits() const { return NQubits; }
  size_t dim() const { return Amp.size(); }
  const AmpVector &amplitudes() const { return Amp; }
  AmpVector &amplitudes() { return Amp; }

  /// Applies one gate. Matrix entries are derived in double and narrowed
  /// once per gate (a no-op for the double instantiation).
  void apply(const Gate &G);

  /// Applies all gates of a circuit in order.
  void apply(const Circuit &C);

  /// Applies a bare Pauli string (phase-tracked permutation), in place.
  void applyPauli(const PauliString &P);

  /// Applies exp(i * Theta * P) analytically:
  /// cos(Theta) |psi> + i sin(Theta) P|psi>.
  /// One fused pass: each butterfly pair is loaded and stored exactly once.
  void applyPauliExp(const PauliString &P, double Theta);

  /// <this | Other>, accumulated in double in ascending basis order for
  /// every instantiation (FP32 amplitudes widen exactly before the
  /// multiply).
  Complex overlap(const BasicStateVector &Other) const;

  /// <Target | this> against a double-precision target, accumulated in
  /// double in ascending basis order — for the double instantiation this
  /// is bit-identical to innerProduct(Target, amplitudes()) and to
  /// StatePanel::overlapWith on a same-state column.
  Complex overlapWithTarget(const CVector &Target) const;

  /// Euclidean norm (1 for a valid state), accumulated in double.
  double norm() const;

  /// Panel-compatible spellings, so one generic evolve lambda can drive
  /// both a StatePanel block and a single-state walk (the width-1 block
  /// path of fidelity evaluation).
  void applyPauliExpAll(const PauliString &P, double Theta) {
    applyPauliExp(P, Theta);
  }
  void applyAll(const Gate &G) { apply(G); }
  void applyAll(const Circuit &C) { apply(C); }

private:
  void applySingleQubit(unsigned Q, const Complex M[2][2]);

  unsigned NQubits;
  AmpVector Amp;
};

extern template class BasicStateVector<double>;
extern template class BasicStateVector<float>;

/// The bit-exact FP64 simulator every default path and golden runs on.
using StateVector = BasicStateVector<double>;

/// The opt-in FP32 walk tier (tolerance-defined; see Precision.h).
using StateVectorF32 = BasicStateVector<float>;

/// Builds the full 2^n x 2^n unitary of a circuit by applying it to panels
/// of basis columns (intended for tests and small systems).
Matrix circuitUnitary(const Circuit &C);

} // namespace marqsim

#endif // MARQSIM_SIM_STATEVECTOR_H
