#include "tensor/kernels/kernel_backend.h"

#include <cstdlib>

#include "util/logging.h"

namespace prestroid {

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kBlocked:
      return "blocked";
  }
  return "unknown";
}

std::optional<KernelBackend> ParseKernelBackend(const std::string& name) {
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "blocked") return KernelBackend::kBlocked;
  return std::nullopt;
}

Result<KernelBackend> ParseKernelEnv(const char* value) {
  if (value == nullptr) return KernelBackend::kBlocked;
  std::optional<KernelBackend> parsed = ParseKernelBackend(value);
  if (parsed.has_value()) return *parsed;
  return Status::InvalidArgument(
      std::string("unrecognized PRESTROID_KERNEL value \"") + value +
      "\"; accepted values: scalar, blocked");
}

KernelBackend DefaultKernelBackend() {
  static const KernelBackend resolved = [] {
    Result<KernelBackend> parsed =
        ParseKernelEnv(std::getenv("PRESTROID_KERNEL"));
    PRESTROID_CHECK(parsed.ok()) << parsed.status().message();
    return *parsed;
  }();
  return resolved;
}

}  // namespace prestroid
