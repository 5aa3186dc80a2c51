//===- core/Emitter.cpp - Schedule-to-circuit lowering -----------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Emitter.h"

using namespace marqsim;

namespace {

/// A gate sink that only counts: the gate-builder surface of Circuit that
/// the lowering body uses, with no gate storage. Run through the same body
/// as a Circuit, its totals equal Circuit::counts() of that circuit.
struct GateCounter {
  GateCounts Counts;

  void h(unsigned) { ++Counts.SingleQubit; }
  void s(unsigned) { ++Counts.SingleQubit; }
  void sdg(unsigned) { ++Counts.SingleQubit; }
  void rz(unsigned, double) { ++Counts.SingleQubit; }
  void cnot(unsigned, unsigned) { ++Counts.CNOTs; }
};

/// Mask of qubits where \p A and \p B carry the same non-identity operator.
uint64_t matchedMask(const PauliString &A, const PauliString &B) {
  uint64_t SameX = ~(A.xMask() ^ B.xMask());
  uint64_t SameZ = ~(A.zMask() ^ B.zMask());
  return SameX & SameZ & A.supportMask() & B.supportMask();
}

/// Single-qubit gates one basis-change layer spends on operator \p K (H
/// costs 1, the Y pair costs 2, Z/I cost 0) — used only for cancellation
/// statistics, and read off the rule itself so the two cannot drift.
unsigned basisGateCount(PauliOpKind K) {
  GateCounter C;
  appendBasisChange(C, K, 0, /*Inverse=*/false);
  return static_cast<unsigned>(C.Counts.SingleQubit);
}

unsigned highestBit(uint64_t Mask) {
  assert(Mask != 0 && "highestBit of zero mask");
  return 63 - __builtin_clzll(Mask);
}

unsigned lowestBit(uint64_t Mask) {
  assert(Mask != 0 && "lowestBit of zero mask");
  return static_cast<unsigned>(__builtin_ctzll(Mask));
}

/// The lowering body, shared by emitSchedule (Sink = Circuit) and
/// countSchedule (Sink = GateCounter). Every qubit loop walks set bits in
/// ascending order, so the gate order is the order of a 0..n-1 scan.
template <typename Sink>
void lowerSchedule(Sink &Out, const std::vector<ScheduledRotation> &Schedule,
                   const EmitOptions &Opts, EmitStats *Stats) {
  // Normalize: drop identity strings (global phase only) and fold runs of
  // equal strings into one rotation (paper Section 5.2: CNOT_count(i,i)=0).
  std::vector<ScheduledRotation> Steps;
  Steps.reserve(Schedule.size());
  for (const ScheduledRotation &Step : Schedule) {
    if (Step.String.isIdentity())
      continue;
    if (!Steps.empty() && Steps.back().String == Step.String)
      Steps.back().Tau += Step.Tau;
    else
      Steps.push_back(Step);
  }

  PauliString Prev;
  unsigned PrevRoot = 0;
  // Local accumulators: the counting sink's totals then stay in registers
  // instead of being reloaded around every store through Stats.
  size_t CancelledCNOTs = 0, CancelledSingles = 0;

  // Emits the trailing half of the previous snippet (ladder + leave layer),
  // skipping the gates cancelled against the incoming string.
  auto FlushPrevTail = [&](uint64_t SkipCNOTMask, uint64_t SkipBasisMask) {
    const uint64_t Support = Prev.supportMask();
    for (uint64_t M = Support & ~SkipCNOTMask & ~(1ULL << PrevRoot); M != 0;
         M &= M - 1)
      Out.cnot(lowestBit(M), PrevRoot);
    for (uint64_t M = Support & ~SkipBasisMask; M != 0; M &= M - 1) {
      unsigned Q = lowestBit(M);
      appendBasisChange(Out, Prev.op(Q), Q, /*Inverse=*/true);
    }
  };

  for (size_t K = 0; K < Steps.size(); ++K) {
    const PauliString &P = Steps[K].String;
    const uint64_t Support = P.supportMask();

    // Root selection with one step of lookahead. Priorities:
    //  1. keep the previous root when the operator on it matches — that is
    //     what unlocks ladder CNOT cancellation at this boundary;
    //  2. otherwise move the root into the set matched with the *next*
    //     string, so the following boundary can cancel;
    //  3. otherwise any qubit matched with the previous string;
    //  4. otherwise the highest support qubit.
    uint64_t MPrev = 0, MNext = 0;
    if (Opts.CrossCancellation) {
      if (K > 0)
        MPrev = matchedMask(Prev, P);
      if (K + 1 < Steps.size())
        MNext = matchedMask(P, Steps[K + 1].String);
    }
    unsigned Root;
    uint64_t CancelCNOTs = 0;
    if (K > 0 && ((MPrev >> PrevRoot) & 1)) {
      Root = PrevRoot;
      CancelCNOTs = MPrev & ~(1ULL << Root);
    } else if (MNext != 0) {
      uint64_t Both = MNext & MPrev;
      Root = highestBit(Both != 0 ? Both : MNext);
    } else if (MPrev != 0) {
      Root = highestBit(MPrev);
    } else {
      Root = highestBit(Support);
    }

    if (K > 0) {
      // Both masks are empty without cross-cancellation.
      FlushPrevTail(CancelCNOTs, MPrev);
      CancelledCNOTs += 2 * __builtin_popcountll(CancelCNOTs);
      for (uint64_t M = MPrev; M != 0; M &= M - 1)
        CancelledSingles += 2 * basisGateCount(P.op(lowestBit(M)));
    }

    // Enter layer for qubits whose basis change was not cancelled.
    for (uint64_t M = Support & ~MPrev; M != 0; M &= M - 1) {
      unsigned Q = lowestBit(M);
      appendBasisChange(Out, P.op(Q), Q, /*Inverse=*/false);
    }
    // Leading ladder minus cancelled pairs.
    for (uint64_t M = Support & ~CancelCNOTs & ~(1ULL << Root); M != 0;
         M &= M - 1)
      Out.cnot(lowestBit(M), Root);
    // Rz(-2 tau) realizes exp(i tau P) (Rz(phi) = e^{-i phi Z / 2}).
    Out.rz(Root, -2.0 * Steps[K].Tau);

    Prev = P;
    PrevRoot = Root;
  }

  if (!Steps.empty())
    FlushPrevTail(/*SkipCNOTMask=*/0, /*SkipBasisMask=*/0);
  if (Stats) {
    Stats->CancelledCNOTs = CancelledCNOTs;
    Stats->CancelledSingles = CancelledSingles;
  }
}

} // namespace

Circuit marqsim::emitSchedule(const std::vector<ScheduledRotation> &Schedule,
                              unsigned NumQubits, const EmitOptions &Opts,
                              EmitStats *Stats) {
  Circuit C(NumQubits);
  lowerSchedule(C, Schedule, Opts, Stats);
  return C;
}

GateCounts
marqsim::countSchedule(const std::vector<ScheduledRotation> &Schedule,
                       const EmitOptions &Opts, EmitStats *Stats) {
  GateCounter C;
  lowerSchedule(C, Schedule, Opts, Stats);
  return C.Counts;
}
