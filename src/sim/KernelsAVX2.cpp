//===- sim/KernelsAVX2.cpp - AVX2 kernel tier --------------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The shared kernel bodies (sim/KernelBody.h) at 32 bytes: 4 double / 8
// float lanes per vector. The translation unit is compiled with -mavx2
// -mfma (CMake sets the flags per file on x86-64 hosts whose compiler
// accepts them); everywhere else the #if below leaves only the null stub,
// so the file builds on every platform. The bodies never fuse a multiply
// into an add (-ffp-contract=off); the FMA feature bit is still required
// for dispatch ("avx2-fma") so the tier name pins the microarchitecture
// class benchmarks report.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include "sim/KernelBody.h"
#include "support/CpuFeatures.h"

namespace {
constexpr marqsim::kernels::Ops AVX2Ops = kernel_body::opsAt<32>("avx2-fma");
} // namespace

const marqsim::kernels::Ops *marqsim::kernels::detail::avx2Ops() {
  const CpuFeatures &F = cpuFeatures();
  return (F.AVX2 && F.FMA) ? &AVX2Ops : nullptr;
}

#else // !(x86-64 with AVX2+FMA codegen)

const marqsim::kernels::Ops *marqsim::kernels::detail::avx2Ops() {
  return nullptr;
}

#endif
