//===- sim/KernelsNEON.cpp - NEON kernel tier --------------------------------===//
//
// Part of the MarQSim reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The shared kernel bodies (sim/KernelBody.h) at 16 bytes: 2 double / 4
// float lanes per vector, AArch64 AdvSIMD. AdvSIMD is baseline on AArch64,
// so no per-file flags are needed; on other architectures only the null
// stub is compiled. The project-wide -ffp-contract=off keeps both the
// vector bodies and the scalar tier free of fused multiply-adds, so they
// round identically.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernels.h"

#if defined(__aarch64__)

#include "sim/KernelBody.h"
#include "support/CpuFeatures.h"

namespace {
constexpr marqsim::kernels::Ops NEONOps = kernel_body::opsAt<16>("neon");
} // namespace

const marqsim::kernels::Ops *marqsim::kernels::detail::neonOps() {
  return cpuFeatures().NEON ? &NEONOps : nullptr;
}

#else // !__aarch64__

const marqsim::kernels::Ops *marqsim::kernels::detail::neonOps() {
  return nullptr;
}

#endif
