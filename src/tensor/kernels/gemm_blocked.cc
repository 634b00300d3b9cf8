// Blocked-GEMM entry points: the baseline-ISA instantiation of the tiled
// kernel plus the runtime ISA dispatcher. The kernel body itself lives in
// gemm_blocked_impl.inc, compiled here at the build's default ISA and again
// in gemm_blocked_avx2.cc at -mavx2 -mfma (x86-64 builds only). Dispatch is
// decided once per process from CPUID, so all the entry points — tile,
// packed size, pack, and every compute — always agree on the micro-tile
// geometry.
//
// Determinism: a given process always runs one instantiation, so results
// stay bit-identical across thread counts and run-to-run. This pick is the
// numeric stack's only kernel choice. The AVX2 path's FMA contraction
// rounds differently from the baseline path (same k-ascending order), which
// stays inside the 1e-5 relative envelope kernel_test holds both to against
// its naive oracles; set PRESTROID_GEMM_ISA=base to force the baseline tile
// when comparing against baseline-ISA runs bit-for-bit.

#define PRESTROID_GEMM_ISA_NS gemm_base
#include "tensor/kernels/gemm_blocked_impl.inc"
#undef PRESTROID_GEMM_ISA_NS

#include <cstdlib>
#include <string_view>

namespace prestroid {

#if defined(PRESTROID_GEMM_AVX2_TU)
// Compiled in gemm_blocked_avx2.cc with -mavx2 -mfma.
namespace gemm_avx2 {
size_t GemmBlockedRowTile();
size_t GemmPackedBSize(size_t k, size_t n);
void GemmPackB(size_t k, size_t n, const float* b, size_t rsb, size_t csb,
               float* packed);
void GemmBlockedRows(size_t i0, size_t i1, size_t k, size_t n, const float* a,
                     size_t rsa, size_t csa, const float* packed_b, float* c,
                     size_t ldc, const float* bias, bool accumulate);
void GemmTreeWindowRows(size_t r0, size_t r1, size_t in, size_t n,
                        const RowNonzeros& x, const int* left,
                        const int* right, const float* packed_b, float* c,
                        size_t ldc, const float* bias);
void GemmSparseRowsAccumulate(size_t i0, size_t i1, size_t k, size_t n,
                              const RowNonzeros& a, const float* packed_b,
                              float* c, size_t ldc);
}  // namespace gemm_avx2
#endif

namespace {

/// True when the AVX2+FMA instantiation exists, the CPU supports it, and it
/// is not disabled via PRESTROID_GEMM_ISA=base. Evaluated once per process.
bool UseAvx2Path() {
#if defined(PRESTROID_GEMM_AVX2_TU) && defined(__GNUC__) && \
    defined(__x86_64__)
  static const bool use = [] {
    const char* env = std::getenv("PRESTROID_GEMM_ISA");
    if (env != nullptr && std::string_view(env) == "base") return false;
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return use;
#else
  return false;
#endif
}

}  // namespace

size_t GemmBlockedRowTile() {
#if defined(PRESTROID_GEMM_AVX2_TU)
  if (UseAvx2Path()) return gemm_avx2::GemmBlockedRowTile();
#endif
  return gemm_base::GemmBlockedRowTile();
}

const char* GemmBlockedIsaName() { return UseAvx2Path() ? "avx2" : "base"; }

size_t GemmPackedBSize(size_t k, size_t n) {
#if defined(PRESTROID_GEMM_AVX2_TU)
  if (UseAvx2Path()) return gemm_avx2::GemmPackedBSize(k, n);
#endif
  return gemm_base::GemmPackedBSize(k, n);
}

void GemmPackB(size_t k, size_t n, const float* b, size_t rsb, size_t csb,
               float* packed) {
#if defined(PRESTROID_GEMM_AVX2_TU)
  if (UseAvx2Path()) {
    gemm_avx2::GemmPackB(k, n, b, rsb, csb, packed);
    return;
  }
#endif
  gemm_base::GemmPackB(k, n, b, rsb, csb, packed);
}

void GemmBlockedRows(size_t i0, size_t i1, size_t k, size_t n, const float* a,
                     size_t rsa, size_t csa, const float* packed_b, float* c,
                     size_t ldc, const float* bias, bool accumulate) {
#if defined(PRESTROID_GEMM_AVX2_TU)
  if (UseAvx2Path()) {
    gemm_avx2::GemmBlockedRows(i0, i1, k, n, a, rsa, csa, packed_b, c, ldc,
                               bias, accumulate);
    return;
  }
#endif
  gemm_base::GemmBlockedRows(i0, i1, k, n, a, rsa, csa, packed_b, c, ldc,
                             bias, accumulate);
}

void GemmTreeWindowRows(size_t r0, size_t r1, size_t in, size_t n,
                        const RowNonzeros& x, const int* left,
                        const int* right, const float* packed_b, float* c,
                        size_t ldc, const float* bias) {
#if defined(PRESTROID_GEMM_AVX2_TU)
  if (UseAvx2Path()) {
    gemm_avx2::GemmTreeWindowRows(r0, r1, in, n, x, left, right, packed_b, c,
                                  ldc, bias);
    return;
  }
#endif
  gemm_base::GemmTreeWindowRows(r0, r1, in, n, x, left, right, packed_b, c,
                                ldc, bias);
}

void GemmSparseRowsAccumulate(size_t i0, size_t i1, size_t k, size_t n,
                              const RowNonzeros& a, const float* packed_b,
                              float* c, size_t ldc) {
#if defined(PRESTROID_GEMM_AVX2_TU)
  if (UseAvx2Path()) {
    gemm_avx2::GemmSparseRowsAccumulate(i0, i1, k, n, a, packed_b, c, ldc);
    return;
  }
#endif
  gemm_base::GemmSparseRowsAccumulate(i0, i1, k, n, a, packed_b, c, ldc);
}

}  // namespace prestroid
