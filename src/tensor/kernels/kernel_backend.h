#ifndef PRESTROID_TENSOR_KERNELS_KERNEL_BACKEND_H_
#define PRESTROID_TENSOR_KERNELS_KERNEL_BACKEND_H_

#include <optional>
#include <string>

#include "util/status.h"

namespace prestroid {

/// Implementation family for the hot numeric kernels.
///
/// kScalar is the historical reference substrate: branchy, one float at a
/// time, bit-for-bit reproducible against every pre-kernel-layer release.
/// kBlocked is the register-tiled, cache-blocked, auto-vectorized layer in
/// tensor/kernels/ (packed panels, fused epilogues); it changes float
/// accumulation order, so results agree with kScalar to ~1e-5 relative, not
/// bit-for-bit (see DESIGN.md §5.2/§5.3).
enum class KernelBackend { kScalar, kBlocked };

/// "scalar" / "blocked" <-> KernelBackend.
const char* KernelBackendName(KernelBackend backend);
std::optional<KernelBackend> ParseKernelBackend(const std::string& name);

/// Resolves a PRESTROID_KERNEL value: null (unset) is kBlocked, a known
/// backend name is that backend, anything else is kInvalidArgument with the
/// accepted set spelled out.
Result<KernelBackend> ParseKernelEnv(const char* value);

/// Process-wide default backend: ParseKernelEnv(getenv("PRESTROID_KERNEL")),
/// resolved once, at first use. An unrecognized value CHECK-fails there, so a
/// typo can never silently run the other backend. Every ExecutionContext
/// starts from this value.
KernelBackend DefaultKernelBackend();

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_KERNELS_KERNEL_BACKEND_H_
