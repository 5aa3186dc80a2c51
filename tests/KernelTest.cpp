//===- tests/KernelTest.cpp - dispatched SIMD kernel tier tests ---------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the determinism contract of sim/Kernels.h: every FP64 kernel the
// dispatcher can select (scalar, AVX2+FMA, AVX-512, NEON) produces
// bit-identical amplitudes for the same inputs — on interleaved
// statevectors and on SoA panel planes, across panel widths, for
// butterfly and Z-diagonal paths, from basis and from random starting
// states, and at the short pivot runs (1, 2, 4) where the shared body
// (sim/KernelBody.h) halves its vector width inside the tier. The fused
// evolve+overlap tail must reproduce the unfused sweep-then-overlapWith
// path bit for bit, and the FP32 tier (panels and the interleaved walk)
// is held to the same scalar-vs-SIMD bit-identity among its own
// implementations, plus a tolerance band against FP64. The shared body is
// also instantiated here at 16 bytes — NEON's width, native SSE2 on
// x86-64 — so the NEON tier's arithmetic is checked on hosts that cannot
// run it. On hosts whose best tier *is* scalar the cross-tier comparisons
// still run (trivially); the contract they pin is then enforced by the
// AVX2/AVX-512/NEON CI hosts.
//
//===----------------------------------------------------------------------===//

#include "hamgen/Models.h"
#include "sim/Fidelity.h"
#include "sim/KernelBody.h"
#include "sim/Kernels.h"
#include "sim/StatePanel.h"
#include "sim/StateVector.h"
#include "support/AlignedAlloc.h"
#include "support/RNG.h"
#include "support/Serial.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace marqsim;

namespace {

/// Every test that repins dispatch restores the default policy on exit so
/// test order never leaks a forced tier into unrelated suites.
struct DispatchRestorer {
  ~DispatchRestorer() { kernels::selectAuto(); }
};

/// The best table this host can dispatch to, ignoring the environment —
/// the tier whose output must match the scalar reference bit for bit.
const kernels::Ops &bestOps() { return *kernels::availableOps().front(); }

/// The shared kernel body at 16 bytes, built in this (baseline-ISA) TU.
constexpr kernels::Ops Body16Ops = kernel_body::opsAt<16>("body16");

uint32_t floatBits(float V) {
  uint32_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

CVector randomState(unsigned N, RNG &Rng) {
  CVector V(size_t(1) << N);
  for (auto &A : V)
    A = Complex(Rng.gaussian(), Rng.gaussian());
  return V;
}

/// A random Pauli string; \p ZOnly restricts to the diagonal alphabet.
PauliString randomString(unsigned N, RNG &Rng, bool ZOnly = false) {
  PauliString P;
  for (unsigned Q = 0; Q < N; ++Q)
    P.setOp(Q, ZOnly ? (Rng.bernoulli(0.5) ? PauliOpKind::Z : PauliOpKind::I)
                     : static_cast<PauliOpKind>(Rng.uniformInt(4)));
  return P;
}

/// Routes one rotation through \p K exactly as StateVector::applyPauliExp
/// does (butterfly when xMask != 0, diagonal fast path otherwise).
void applyThrough(const kernels::Ops &K, CVector &Amp, const PauliString &P,
                  double Theta) {
  const Complex CosT(std::cos(Theta), 0.0);
  const Complex ISinT(0.0, std::sin(Theta));
  const detail::PauliPhases Phases(P);
  K.ExpF64(Amp.data(), Amp.size(), P.xMask(), CosT, ISinT, Phases);
}

::testing::AssertionResult bitIdentical(const CVector &A, const CVector &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure() << "size mismatch";
  for (size_t I = 0; I < A.size(); ++I)
    if (serial::doubleBits(A[I].real()) != serial::doubleBits(B[I].real()) ||
        serial::doubleBits(A[I].imag()) != serial::doubleBits(B[I].imag()))
      return ::testing::AssertionFailure()
             << "amplitude " << I << " differs: (" << A[I].real() << ", "
             << A[I].imag() << ") vs (" << B[I].real() << ", " << B[I].imag()
             << ")";
  return ::testing::AssertionSuccess();
}

template <typename Real>
::testing::AssertionResult
panelsBitIdentical(const BasicStatePanel<Real> &A,
                   const BasicStatePanel<Real> &B) {
  const size_t N = A.dim() * A.laneStride();
  if (B.dim() * B.laneStride() != N)
    return ::testing::AssertionFailure() << "panel shape mismatch";
  if (std::memcmp(A.realPlane(), B.realPlane(), N * sizeof(Real)) != 0 ||
      std::memcmp(A.imagPlane(), B.imagPlane(), N * sizeof(Real)) != 0)
    return ::testing::AssertionFailure() << "panel planes differ bitwise";
  return ::testing::AssertionSuccess();
}

/// A schedule of rotations covering butterflies (low and high pivots),
/// Z-diagonals, and identities, with the angle mix a real replay sees.
std::vector<std::pair<PauliString, double>> mixedSchedule(unsigned N,
                                                          RNG &Rng) {
  std::vector<std::pair<PauliString, double>> Sched;
  for (unsigned I = 0; I < 24; ++I)
    Sched.emplace_back(randomString(N, Rng), Rng.gaussian() * 0.4);
  for (unsigned I = 0; I < 8; ++I)
    Sched.emplace_back(randomString(N, Rng, /*ZOnly=*/true),
                       Rng.gaussian() * 0.4);
  Sched.emplace_back(PauliString(), 0.37); // identity global phase
  return Sched;
}

std::vector<uint64_t> randomBasis(unsigned N, size_t Cols, RNG &Rng) {
  std::vector<uint64_t> Basis(Cols);
  for (auto &B : Basis)
    B = static_cast<uint64_t>(Rng.uniformInt(1u << N));
  return Basis;
}

} // namespace

TEST(KernelDispatchTest, ActiveTierIsKnown) {
  const std::string Name = kernels::activeName();
  EXPECT_TRUE(Name == "scalar" || Name == "avx2-fma" || Name == "avx512" ||
              Name == "neon")
      << "unexpected kernel tier: " << Name;
  if (kernels::tierOverrideFromEnv() == "scalar") {
    EXPECT_EQ(Name, "scalar");
  }
  EXPECT_STREQ(kernels::scalarOps().Name, "scalar");
}

TEST(KernelDispatchTest, AvailableOpsBestFirstScalarLast) {
  const auto Tiers = kernels::availableOps();
  ASSERT_FALSE(Tiers.empty());
  EXPECT_STREQ(Tiers.back()->Name, "scalar");
  // availableOps reflects the CPU, not the environment pin, so the best
  // entry is what detectedName reports.
  EXPECT_STREQ(Tiers.front()->Name, kernels::detectedName());
  for (const kernels::Ops *Tier : Tiers)
    EXPECT_EQ(kernels::findTier(Tier->Name), Tier);
  EXPECT_EQ(kernels::findTier("not-a-tier"), nullptr);
}

TEST(KernelDispatchTest, KernelTierEnvironmentPinsNamedTier) {
  DispatchRestorer Restore;
  const char *Prev = std::getenv("MARQSIM_KERNEL_TIER");
  const std::string Saved = Prev ? Prev : "";
  for (const kernels::Ops *Tier : kernels::availableOps()) {
    ASSERT_EQ(setenv("MARQSIM_KERNEL_TIER", Tier->Name, 1), 0);
    EXPECT_EQ(kernels::tierOverrideFromEnv(), Tier->Name);
    kernels::selectAuto();
    EXPECT_STREQ(kernels::activeName(), Tier->Name);
  }
  if (Prev)
    ASSERT_EQ(setenv("MARQSIM_KERNEL_TIER", Saved.c_str(), 1), 0);
  else
    ASSERT_EQ(unsetenv("MARQSIM_KERNEL_TIER"), 0);
}

TEST(KernelDispatchDeathTest, UnavailableTierPinFailsFast) {
  // Death tests fork; "threadsafe" re-executes the binary so ThreadPool
  // threads spawned by other suites can't deadlock the child.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const char *Unavailable = nullptr;
  for (const char *Cand : {"neon", "avx2-fma", "avx512"})
    if (!kernels::findTier(Cand)) {
      Unavailable = Cand;
      break;
    }
  ASSERT_NE(Unavailable, nullptr)
      << "host claims to run every tier — impossible ISA mix";
  EXPECT_EXIT(
      {
        setenv("MARQSIM_KERNEL_TIER", Unavailable, 1);
        kernels::selectAuto();
        (void)kernels::active();
      },
      ::testing::ExitedWithCode(1), "not runnable on this host");
  // Unknown names fail the same way, naming the runnable tiers.
  EXPECT_EXIT(
      {
        setenv("MARQSIM_KERNEL_TIER", "turbo9000", 1);
        kernels::selectAuto();
        (void)kernels::active();
      },
      ::testing::ExitedWithCode(1), "not runnable on this host");
}

TEST(KernelDispatchTest, SelectForTestingPinsAndAutoRestores) {
  DispatchRestorer Restore;
  const kernels::Ops &Best = bestOps();
  kernels::selectTierForTesting(kernels::scalarOps());
  EXPECT_STREQ(kernels::activeName(), "scalar");
  kernels::selectTierForTesting(Best);
  EXPECT_STREQ(kernels::activeName(), Best.Name);
  // selectAuto re-applies the default policy: the environment pin when
  // present, else the best tier.
  kernels::selectAuto();
  const std::string Pin = kernels::tierOverrideFromEnv();
  EXPECT_STREQ(kernels::activeName(), Pin.empty() ? Best.Name : Pin.c_str());
}

namespace {

/// The panel entries of \p Tier against the scalar reference, called
/// directly: lane L of row X starts at Start[X ^ (L % Dim)], the sweep runs
/// alone and then fused with an overlap against arbitrary targets. Planes
/// and accumulators must agree bitwise.
template <typename Real>
::testing::AssertionResult panelsMatchScalar(const kernels::Ops &Tier,
                                             const CVector &Start,
                                             const PauliString &P,
                                             double Theta) {
  using Plane = std::vector<Real, AlignedAllocator<Real, 64>>;
  using Acc = std::vector<double, AlignedAllocator<double, 64>>;
  const size_t Dim = Start.size(), Stride = 16; // 64 bytes of either Real
  Plane Re(Dim * Stride), Im(Dim * Stride);
  Acc TRe(Dim * Stride), TImNeg(Dim * Stride);
  for (size_t I = 0; I < Dim * Stride; ++I) {
    const Complex A = Start[(I / Stride) ^ (I % Stride % Dim)];
    Re[I] = static_cast<Real>(A.real());
    Im[I] = static_cast<Real>(A.imag());
    TRe[I] = A.imag();
    TImNeg[I] = -A.real();
  }
  const std::complex<Real> CosT(static_cast<Real>(std::cos(Theta)), 0);
  const std::complex<Real> ISinT(0, static_cast<Real>(std::sin(Theta)));
  const detail::PauliPhases Ph(P);
  auto run = [&](const kernels::Ops &K, Plane &R, Plane &I, Acc &Out) {
    Out.assign(2 * Stride, 0.0);
    for (bool Fused : {false, true}) {
      const double *T = Fused ? TRe.data() : nullptr;
      const double *TI = Fused ? TImNeg.data() : nullptr;
      if constexpr (std::is_same_v<Real, double>)
        K.PanelExpF64(R.data(), I.data(), Dim, Stride, P.xMask(), CosT, ISinT,
                      Ph, T, TI, Out.data(), Out.data() + Stride);
      else
        K.PanelExpF32(R.data(), I.data(), Dim, Stride, P.xMask(), CosT, ISinT,
                      detail::PauliPhasesF32(Ph), T, TI, Out.data(),
                      Out.data() + Stride);
    }
  };
  Plane Re2 = Re, Im2 = Im;
  Acc Out, Out2;
  run(kernels::scalarOps(), Re, Im, Out);
  run(Tier, Re2, Im2, Out2);
  if (std::memcmp(Re.data(), Re2.data(), Re.size() * sizeof(Real)) != 0 ||
      std::memcmp(Im.data(), Im2.data(), Im.size() * sizeof(Real)) != 0)
    return ::testing::AssertionFailure() << "panel planes differ bitwise";
  if (std::memcmp(Out.data(), Out2.data(), Out.size() * sizeof(double)) != 0)
    return ::testing::AssertionFailure() << "fused overlaps differ bitwise";
  return ::testing::AssertionSuccess();
}

// Every kernel of \p Tier must reproduce the scalar reference bit for bit:
// the FP64 and FP32 walks and panels. Starting states are random, basis
// states, or components drawn from {+0, -0, +1, -1} under angles with
// cos < 0, where the zero-component products of CosT and ISinT decide the
// sign of zero results. Dims run from a two-amplitude vector (below every
// SIMD width) up through 2^7, with butterfly pivots both below and above
// the vector width, and Z-diagonals.
void expectKernelsMatchScalar(const kernels::Ops &Tier) {
  RNG Rng(2025);
  static const double Signed[4] = {0.0, -0.0, 1.0, -1.0};
  for (unsigned N : {1u, 2u, 3u, 5u, 7u}) {
    for (unsigned Trial = 0; Trial < 24; ++Trial) {
      CVector Start = randomState(N, Rng);
      double Theta = Rng.gaussian() * 0.7;
      if (Trial < 4) { // basis states
        Start.assign(Start.size(), Complex(0.0, 0.0));
        Start[Trial % Start.size()] = Complex(1.0, 0.0);
      } else if (Trial < 12) { // signed zeros, cos(Theta) < 0
        for (Complex &A : Start)
          A = Complex(Signed[Rng.uniformInt(4)], Signed[Rng.uniformInt(4)]);
        Theta = Trial % 2 ? 2.5 : -2.2;
      }
      const PauliString P = randomString(N, Rng, /*ZOnly=*/Trial % 3 == 0);
      CVector A = Start, B = Start;
      applyThrough(kernels::scalarOps(), A, P, Theta);
      applyThrough(Tier, B, P, Theta);
      ASSERT_TRUE(bitIdentical(A, B))
          << "tier " << Tier.Name << ", " << N << " qubits, trial " << Trial;

      // The FP32 walk, called exactly as BasicStateVector<float> calls it.
      StateVectorF32::AmpVector FA(Start.size()), FB;
      for (size_t I = 0; I < Start.size(); ++I)
        FA[I] = std::complex<float>(static_cast<float>(Start[I].real()),
                                    static_cast<float>(Start[I].imag()));
      FB = FA;
      const std::complex<float> CosT(static_cast<float>(std::cos(Theta)), 0);
      const std::complex<float> ISinT(0, static_cast<float>(std::sin(Theta)));
      const detail::PauliPhasesF32 Phases{detail::PauliPhases(P)};
      kernels::scalarOps().ExpF32(FA.data(), FA.size(), P.xMask(), CosT,
                                  ISinT, Phases);
      Tier.ExpF32(FB.data(), FB.size(), P.xMask(), CosT, ISinT, Phases);
      ASSERT_EQ(std::memcmp(FA.data(), FB.data(), FA.size() * sizeof(FA[0])),
                0)
          << "tier " << Tier.Name << ", fp32, " << N << " qubits, trial "
          << Trial;

      ASSERT_TRUE(panelsMatchScalar<double>(Tier, Start, P, Theta))
          << "tier " << Tier.Name << ", " << N << " qubits, trial " << Trial;
      ASSERT_TRUE(panelsMatchScalar<float>(Tier, Start, P, Theta))
          << "tier " << Tier.Name << ", fp32, " << N << " qubits, trial "
          << Trial;
    }
  }
}

} // namespace

TEST(KernelBitIdentityTest, StateVectorKernelsMatchScalarBitwise) {
  for (const kernels::Ops *Tier : kernels::availableOps())
    expectKernelsMatchScalar(*Tier);
}

// The shared kernel body at 16 bytes, built in this TU at the baseline ISA
// (SSE2 on x86-64), is the NEON tier's width. No AArch64 host builds this
// suite, so this is where the NEON tier's arithmetic is held to the scalar
// reference.
TEST(KernelBitIdentityTest, SixteenByteBodyMatchesScalarBitwise) {
  expectKernelsMatchScalar(Body16Ops);
}

// Panel kernels: a width-1 panel, an odd width straddling the lane padding,
// the PreferredWidth block, and an "all columns" width wider than a block,
// each evolved through a mixed schedule under the scalar tier and under the
// best tier. Planes (including padding lanes) must agree bitwise.
TEST(KernelBitIdentityTest, PanelKernelsMatchScalarBitwise) {
  DispatchRestorer Restore;
  const unsigned N = 5;
  RNG Rng(4242);
  const auto Sched = mixedSchedule(N, Rng);
  for (size_t Cols : {size_t(1), size_t(3), StatePanel::PreferredWidth,
                      size_t(17)}) {
    const auto Basis = randomBasis(N, Cols, Rng);
    kernels::selectTierForTesting(kernels::scalarOps());
    StatePanel Scalar(N, Basis);
    for (const auto &[P, Theta] : Sched)
      Scalar.applyPauliExpAll(P, Theta);
    kernels::selectTierForTesting(bestOps());
    StatePanel Simd(N, Basis);
    for (const auto &[P, Theta] : Sched)
      Simd.applyPauliExpAll(P, Theta);
    ASSERT_TRUE(panelsBitIdentical(Scalar, Simd)) << Cols << " columns";
  }
}

// The panel SoA kernels and the interleaved StateVector kernels are
// different code paths; under the dispatched tier a panel column must
// still be bit-identical to a serial single-state replay.
TEST(KernelBitIdentityTest, PanelColumnsMatchStateVectorUnderDispatch) {
  const unsigned N = 5;
  RNG Rng(777);
  const auto Sched = mixedSchedule(N, Rng);
  const auto Basis = randomBasis(N, 6, Rng);
  StatePanel Panel(N, Basis);
  for (const auto &[P, Theta] : Sched)
    Panel.applyPauliExpAll(P, Theta);
  for (size_t C = 0; C < Basis.size(); ++C) {
    StateVector SV(N, Basis[C]);
    for (const auto &[P, Theta] : Sched)
      SV.applyPauliExp(P, Theta);
    ASSERT_TRUE(bitIdentical(SV.amplitudes(), Panel.column(C)))
        << "column " << C;
  }
}

// The FP32 tier keeps the same scalar-vs-SIMD bit-identity among its own
// implementations (it is tolerance-defined only relative to FP64).
TEST(KernelBitIdentityTest, Fp32PanelKernelsMatchScalarBitwise) {
  DispatchRestorer Restore;
  const unsigned N = 5;
  RNG Rng(9090);
  const auto Sched = mixedSchedule(N, Rng);
  for (size_t Cols : {size_t(1), size_t(3), size_t(8), size_t(17)}) {
    const auto Basis = randomBasis(N, Cols, Rng);
    kernels::selectTierForTesting(kernels::scalarOps());
    StatePanelF32 Scalar(N, Basis);
    for (const auto &[P, Theta] : Sched)
      Scalar.applyPauliExpAll(P, Theta);
    kernels::selectTierForTesting(bestOps());
    StatePanelF32 Simd(N, Basis);
    for (const auto &[P, Theta] : Sched)
      Simd.applyPauliExpAll(P, Theta);
    ASSERT_TRUE(panelsBitIdentical(Scalar, Simd)) << Cols << " columns";
  }
}

// The FP32 tier's whole point: amplitudes track the FP64 panel to float
// accuracy through a realistic rotation count.
TEST(PrecisionTest, Fp32PanelTracksFp64WithinTolerance) {
  const unsigned N = 6;
  RNG Rng(31337);
  const auto Sched = mixedSchedule(N, Rng);
  const auto Basis = randomBasis(N, 4, Rng);
  StatePanel P64(N, Basis);
  StatePanelF32 P32(N, Basis);
  for (const auto &[P, Theta] : Sched) {
    P64.applyPauliExpAll(P, Theta);
    P32.applyPauliExpAll(P, Theta);
  }
  double MaxErr = 0.0;
  for (size_t C = 0; C < Basis.size(); ++C)
    for (uint64_t X = 0; X < P64.dim(); ++X)
      MaxErr = std::max(MaxErr, std::abs(P64.at(C, X) - P32.at(C, X)));
  EXPECT_GT(MaxErr, 0.0) << "fp32 suspiciously exact — tier not exercised?";
  EXPECT_LT(MaxErr, 1e-4);
}

// FP32 narrowing of the phase constants is exact (they are 0/±1 valued).
TEST(PrecisionTest, Fp32PhaseNarrowingIsExact) {
  RNG Rng(55);
  for (unsigned Trial = 0; Trial < 32; ++Trial) {
    const PauliString P = randomString(6, Rng);
    const detail::PauliPhases Ph(P);
    const detail::PauliPhasesF32 PhF(Ph);
    for (uint64_t X : {uint64_t(0), uint64_t(5), uint64_t(63)}) {
      EXPECT_EQ(floatBits(PhF.at(X).real()),
                floatBits(static_cast<float>(Ph.at(X).real())));
      EXPECT_EQ(floatBits(PhF.at(X).imag()),
                floatBits(static_cast<float>(Ph.at(X).imag())));
    }
  }
}

// Short pivot runs: a butterfly's contiguous run length equals its pivot
// (the lowest X bit), and every wide tier halves its vector width for
// runs narrower than one vector (an AVX-512 F64 vector holds a run of 4,
// an AVX2 F64 vector a run of 2, and so on). Sweep single-X strings at
// every qubit position on tiny registers — run lengths 1, 2, 4, 8 —
// across every tier this host can run, for the FP64 and FP32 interleaved
// walks.
TEST(KernelBitIdentityTest, ShortPivotRunsMatchScalarAcrossTiers) {
  DispatchRestorer Restore;
  RNG Rng(1234);
  for (const kernels::Ops *Tier : kernels::availableOps()) {
    for (unsigned N : {1u, 2u, 3u, 4u}) {
      for (unsigned Q = 0; Q < N; ++Q) {
        for (unsigned Variant = 0; Variant < 3; ++Variant) {
          PauliString P;
          P.setOp(Q, Variant == 1 ? PauliOpKind::Y : PauliOpKind::X);
          if (Variant == 2 && N > 1) // phase-carrying high bit
            P.setOp((Q + 1) % N, PauliOpKind::Z);
          const double Theta = Rng.gaussian() * 0.6;

          CVector Start = randomState(N, Rng);
          CVector A = Start, B = Start;
          applyThrough(kernels::scalarOps(), A, P, Theta);
          applyThrough(*Tier, B, P, Theta);
          ASSERT_TRUE(bitIdentical(A, B))
              << "tier " << Tier->Name << ", " << N << " qubits, X at " << Q;

          StateVectorF32::AmpVector FStart(size_t(1) << N);
          for (auto &Amp : FStart)
            Amp = std::complex<float>(static_cast<float>(Rng.gaussian()),
                                      static_cast<float>(Rng.gaussian()));
          kernels::selectTierForTesting(kernels::scalarOps());
          StateVectorF32 FA(N, FStart);
          FA.applyPauliExp(P, Theta);
          kernels::selectTierForTesting(*Tier);
          StateVectorF32 FB(N, FStart);
          FB.applyPauliExp(P, Theta);
          kernels::selectAuto();
          for (size_t I = 0; I < FA.amplitudes().size(); ++I) {
            ASSERT_EQ(floatBits(FA.amplitudes()[I].real()),
                      floatBits(FB.amplitudes()[I].real()))
                << "tier " << Tier->Name << ", fp32 amp " << I;
            ASSERT_EQ(floatBits(FA.amplitudes()[I].imag()),
                      floatBits(FB.amplitudes()[I].imag()))
                << "tier " << Tier->Name << ", fp32 amp " << I;
          }
        }
      }
    }
  }
}

// Panels under every runnable tier (not just best-vs-scalar): the planes
// must agree bitwise, including at one- and two-qubit dims.
TEST(KernelBitIdentityTest, PanelKernelsMatchScalarAcrossAllTiers) {
  DispatchRestorer Restore;
  RNG Rng(8787);
  for (unsigned N : {1u, 2u, 5u}) {
    const auto Sched = mixedSchedule(N, Rng);
    const auto Basis = randomBasis(N, 5, Rng);
    kernels::selectTierForTesting(kernels::scalarOps());
    StatePanel Scalar(N, Basis);
    for (const auto &[P, Theta] : Sched)
      Scalar.applyPauliExpAll(P, Theta);
    for (const kernels::Ops *Tier : kernels::availableOps()) {
      kernels::selectTierForTesting(*Tier);
      StatePanel Simd(N, Basis);
      for (const auto &[P, Theta] : Sched)
        Simd.applyPauliExpAll(P, Theta);
      ASSERT_TRUE(panelsBitIdentical(Scalar, Simd))
          << "tier " << Tier->Name << ", " << N << " qubits";
    }
    kernels::selectAuto();
  }
}

// The fused evolve+overlap tail vs the unfused sweep-then-overlapWith
// path: panel planes and every per-column overlap must agree bit for bit,
// for butterfly, diagonal, and identity tails, under every runnable tier.
TEST(KernelBitIdentityTest, FusedOverlapMatchesUnfusedBitwise) {
  DispatchRestorer Restore;
  const unsigned N = 5;
  RNG Rng(60606);
  std::vector<PauliString> Tails(3);
  Tails[0].setOp(2, PauliOpKind::X); // butterfly tail
  Tails[0].setOp(0, PauliOpKind::Z);
  Tails[1].setOp(1, PauliOpKind::Z); // diagonal tail
  // Tails[2] stays the identity (global-phase tail).
  for (size_t Cols : {size_t(1), size_t(3), size_t(8)}) {
    const auto Basis = randomBasis(N, Cols, Rng);
    std::vector<CVector> Targets;
    for (size_t C = 0; C < Cols; ++C)
      Targets.push_back(randomState(N, Rng));
    const auto Pre = mixedSchedule(N, Rng);
    for (const kernels::Ops *Tier : kernels::availableOps()) {
      kernels::selectTierForTesting(*Tier);
      for (const PauliString &Tail : Tails) {
        const double Theta = 0.31;
        StatePanel A(N, Basis), B(N, Basis);
        for (unsigned I = 0; I < 4; ++I) {
          A.applyPauliExpAll(Pre[I].first, Pre[I].second);
          B.applyPauliExpAll(Pre[I].first, Pre[I].second);
        }
        A.applyPauliExpAll(Tail, Theta);
        std::vector<Complex> Unfused(Cols);
        for (size_t C = 0; C < Cols; ++C)
          Unfused[C] = A.overlapWith(Targets[C], C);
        TargetPanel Packed(Targets.data(), Cols, B.laneStride());
        std::vector<Complex> Fused(Cols);
        B.applyPauliExpAllFused(Tail, Theta, Packed, Fused.data());
        ASSERT_TRUE(panelsBitIdentical(A, B))
            << "tier " << Tier->Name << ", " << Cols << " columns";
        for (size_t C = 0; C < Cols; ++C) {
          ASSERT_EQ(serial::doubleBits(Unfused[C].real()),
                    serial::doubleBits(Fused[C].real()))
              << "tier " << Tier->Name << ", column " << C;
          ASSERT_EQ(serial::doubleBits(Unfused[C].imag()),
                    serial::doubleBits(Fused[C].imag()))
              << "tier " << Tier->Name << ", column " << C;
        }
      }
    }
    kernels::selectAuto();
  }
}

// The FP32 fused tail holds the same contract among FP32 implementations:
// fused == unfused (overlaps accumulate in double either way), and every
// tier == scalar, bit for bit.
TEST(KernelBitIdentityTest, Fp32FusedOverlapMatchesUnfusedBitwise) {
  DispatchRestorer Restore;
  const unsigned N = 5;
  RNG Rng(70707);
  const size_t Cols = 5;
  const auto Basis = randomBasis(N, Cols, Rng);
  std::vector<CVector> Targets;
  for (size_t C = 0; C < Cols; ++C)
    Targets.push_back(randomState(N, Rng));
  const auto Pre = mixedSchedule(N, Rng);
  PauliString Tail;
  Tail.setOp(3, PauliOpKind::Y);
  Tail.setOp(1, PauliOpKind::X);
  auto evalFused = [&](const kernels::Ops &Tier, std::vector<Complex> &Out,
                       bool Fuse) {
    kernels::selectTierForTesting(Tier);
    StatePanelF32 Panel(N, Basis);
    for (unsigned I = 0; I < 6; ++I)
      Panel.applyPauliExpAll(Pre[I].first, Pre[I].second);
    Out.assign(Cols, Complex(0.0, 0.0));
    if (Fuse) {
      TargetPanel Packed(Targets.data(), Cols, Panel.laneStride());
      Panel.applyPauliExpAllFused(Tail, 0.41, Packed, Out.data());
    } else {
      Panel.applyPauliExpAll(Tail, 0.41);
      for (size_t C = 0; C < Cols; ++C)
        Out[C] = Panel.overlapWith(Targets[C], C);
    }
    kernels::selectAuto();
  };
  std::vector<Complex> ScalarUnfused;
  evalFused(kernels::scalarOps(), ScalarUnfused, /*Fuse=*/false);
  for (const kernels::Ops *Tier : kernels::availableOps()) {
    for (bool Fuse : {false, true}) {
      std::vector<Complex> Out;
      evalFused(*Tier, Out, Fuse);
      for (size_t C = 0; C < Cols; ++C) {
        ASSERT_EQ(serial::doubleBits(ScalarUnfused[C].real()),
                  serial::doubleBits(Out[C].real()))
            << "tier " << Tier->Name << ", fused=" << Fuse << ", column "
            << C;
        ASSERT_EQ(serial::doubleBits(ScalarUnfused[C].imag()),
                  serial::doubleBits(Out[C].imag()))
            << "tier " << Tier->Name << ", fused=" << Fuse << ", column "
            << C;
      }
    }
  }
}

// The FP32 interleaved walk (the width-1 fidelity block) is bit-identical
// to a width-1 FP32 panel column: both mirror the same scalar arithmetic,
// so the production mix of walk and panel blocks stays self-consistent.
TEST(KernelBitIdentityTest, Fp32WalkMatchesWidthOnePanelColumn) {
  const unsigned N = 6;
  RNG Rng(141414);
  const auto Sched = mixedSchedule(N, Rng);
  const uint64_t Basis = 23;
  StateVectorF32 Walk(N, Basis);
  StatePanelF32 Panel(N, std::vector<uint64_t>{Basis});
  for (const auto &[P, Theta] : Sched) {
    Walk.applyPauliExp(P, Theta);
    Panel.applyPauliExpAll(P, Theta);
  }
  for (uint64_t X = 0; X < Walk.amplitudes().size(); ++X) {
    ASSERT_EQ(floatBits(Walk.amplitudes()[X].real()),
              floatBits(static_cast<float>(Panel.at(0, X).real())))
        << "amp " << X;
    ASSERT_EQ(floatBits(Walk.amplitudes()[X].imag()),
              floatBits(static_cast<float>(Panel.at(0, X).imag())))
        << "amp " << X;
  }
  // And the walk's target overlap runs the panel's ascending double chain.
  const CVector Target = randomState(N, Rng);
  EXPECT_EQ(serial::doubleBits(Walk.overlapWithTarget(Target).real()),
            serial::doubleBits(Panel.overlapWith(Target, 0).real()));
  EXPECT_EQ(serial::doubleBits(Walk.overlapWithTarget(Target).imag()),
            serial::doubleBits(Panel.overlapWith(Target, 0).imag()));
}

// End to end: a 17-column fidelity evaluation (two fused panel blocks
// plus the width-1 walk tail) under live dispatch must reproduce a serial
// single-state replay bit for bit, for every EvalJobs fan-out.
TEST(KernelBitIdentityTest, FidelityWithFusedTailMatchesSerialReference) {
  Hamiltonian H = makeHeisenbergXXZ(6, 1.0, 0.8, 0.6, 0.3);
  const double T = 0.7;
  std::vector<ScheduledRotation> Schedule;
  for (const auto &Term : H.terms())
    Schedule.emplace_back(Term.String, Term.Coeff * T);
  FidelityEvaluator Eval(H, T, /*NumColumns=*/17, /*Seed=*/11);
  ASSERT_EQ(Eval.numColumns(), 17u);
  Complex Acc = 0.0;
  for (size_t C = 0; C < Eval.numColumns(); ++C) {
    StateVector SV(Eval.numQubits(), Eval.columns()[C]);
    for (const ScheduledRotation &Step : Schedule)
      SV.applyPauliExp(Step.String, Step.Tau);
    Acc += innerProduct(Eval.targets()[C], SV.amplitudes());
  }
  const double Ref = std::abs(Acc) / 17.0;
  EXPECT_EQ(serial::doubleBits(Ref),
            serial::doubleBits(Eval.fidelity(Schedule, 1)));
  EXPECT_EQ(serial::doubleBits(Ref),
            serial::doubleBits(Eval.fidelity(Schedule, 4)));
}

// Satellite: amplitude storage is 64-byte aligned everywhere the kernels
// load from — interleaved CVectors and both panel planes — and the panel
// stride honors the lane-multiple contract.
TEST(AlignmentTest, AmplitudeStorageIs64ByteAligned) {
  CVector V(37);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(V.data()) % 64, 0u);
  StateVector SV(6, 11);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(SV.amplitudes().data()) % 64, 0u);
  for (size_t Cols : {size_t(1), size_t(5), size_t(8), size_t(9)}) {
    StatePanel P(4, std::vector<uint64_t>(Cols, 0));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P.realPlane()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P.imagPlane()) % 64, 0u);
    EXPECT_EQ(P.laneStride() % StatePanel::LaneMultiple, 0u);
    EXPECT_GE(P.laneStride(), Cols);
    StatePanelF32 Q(4, std::vector<uint64_t>(Cols, 0));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Q.realPlane()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Q.imagPlane()) % 64, 0u);
  }
}
