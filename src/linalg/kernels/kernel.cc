#include "linalg/kernels/kernel.h"

#include <atomic>
#include <cmath>

namespace charles {
namespace kernels {

// Defined in simd_kernel.cc (possibly compiled with a wider ISA than the
// rest of the library — see CHARLES_KERNEL_AVX2 in CMakeLists.txt).
extern const bool kSimdKernelNeedsAvx2;
const Kernel& SimdKernelTable();

namespace {

/// Whether dispatching into the simd translation unit is safe on this CPU.
/// The baseline build (no ISA flags) is always safe; an AVX2 build is safe
/// only where the CPU agrees — otherwise the registry silently serves the
/// scalar kernel, which is bit-identical anyway.
bool SimdKernelUsable() {
  if (!kSimdKernelNeedsAvx2) return true;
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::atomic<const Kernel*> g_active_kernel{nullptr};

}  // namespace

Result<KernelBackend> ParseKernelBackend(const std::string& name) {
  if (name == "auto") return KernelBackend::kAuto;
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "simd") return KernelBackend::kSimd;
  return Status::InvalidArgument(
      "kernel_backend must be \"auto\", \"scalar\", or \"simd\"; got \"" +
      name + "\"");
}

const Kernel& SimdKernel() {
  return SimdKernelUsable() ? SimdKernelTable() : ScalarKernel();
}

const Kernel& ResolveKernel(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return ScalarKernel();
    case KernelBackend::kSimd:
    case KernelBackend::kAuto:
      return SimdKernel();
  }
  return ScalarKernel();  // unreachable
}

const Kernel& ActiveKernel() {
  const Kernel* kernel = g_active_kernel.load(std::memory_order_relaxed);
  return kernel != nullptr ? *kernel : ResolveKernel(KernelBackend::kAuto);
}

const Kernel& SetActiveKernel(KernelBackend backend) {
  const Kernel& kernel = ResolveKernel(backend);
  g_active_kernel.store(&kernel, std::memory_order_relaxed);
  return kernel;
}

double NeumaierSum(const double* values, int64_t count) {
  double sum = 0.0;
  double compensation = 0.0;
  for (int64_t i = 0; i < count; ++i) {
    double v = values[i];
    double t = sum + v;
    if (std::abs(sum) >= std::abs(v)) {
      compensation += (sum - t) + v;
    } else {
      compensation += (v - t) + sum;
    }
    sum = t;
  }
  return sum + compensation;
}

}  // namespace kernels
}  // namespace charles
