//===- sim/KernelsAVX512.cpp - AVX-512 kernel tier ---------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The shared kernel bodies (sim/KernelBody.h) at 64 bytes: 8 double / 16
// float lanes per vector. The translation unit is compiled with -mavx512f
// -mavx512dq (CMake sets the flags per file on x86-64 hosts whose compiler
// accepts them); everywhere else the #if below leaves only the null stub.
// Dispatch additionally requires the OS XSAVE state (CpuFeatures::AVX512OS)
// so ZMM registers are actually preserved across context switches.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#if defined(__x86_64__) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include "sim/KernelBody.h"
#include "support/CpuFeatures.h"

namespace {
constexpr marqsim::kernels::Ops AVX512Ops = kernel_body::opsAt<64>("avx512");
} // namespace

const marqsim::kernels::Ops *marqsim::kernels::detail::avx512Ops() {
  const CpuFeatures &F = cpuFeatures();
  return (F.AVX512F && F.AVX512DQ && F.AVX512OS) ? &AVX512Ops : nullptr;
}

#else // !(x86-64 with AVX-512F/DQ codegen)

const marqsim::kernels::Ops *marqsim::kernels::detail::avx512Ops() {
  return nullptr;
}

#endif
