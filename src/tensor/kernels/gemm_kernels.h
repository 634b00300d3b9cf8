#ifndef PRESTROID_TENSOR_KERNELS_GEMM_KERNELS_H_
#define PRESTROID_TENSOR_KERNELS_GEMM_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace prestroid {

// ---------------------------------------------------------------------------
// Blocked kernels (gemm_blocked.cc), the one kernel family of the numeric
// stack.
//
// Register-tiled MR x NR micro-kernel over panels of B packed column-strip
// by column-strip ([strip][kk][jj] with jj contiguous, zero-padded to NR) and
// per-tile packed A ([kk][ii], zero-padded to MR). The micro-kernel keeps an
// MR x NR accumulator block in registers across the full reduction, so every
// output element accumulates k-ascending — results are bit-identical across
// thread counts and chunk boundaries; only the ISA instantiation picked at
// startup changes the bits (DESIGN.md §5.3).
//
// Strides (`rs*` = stride between reduction steps, `cs*` = stride between
// rows/columns) let the same kernel serve A, A^T and B^T operand layouts
// without materializing transposes. No data-dependent branches: zeros get
// multiplied like any other value, so measured GFLOP/s reflect true work.
// ---------------------------------------------------------------------------

/// Row-tile height MR of the blocked micro-kernel (ISA-dependent).
size_t GemmBlockedRowTile();

/// Which instantiation the one-time CPUID dispatch selected for this process:
/// "avx2" or "base". Stamped into BENCH_*.json provenance so kernel numbers
/// are comparable across machines.
const char* GemmBlockedIsaName();

/// Floats needed for a packed image of B ([k, n] logical): n rounded up to
/// the panel width NR.
size_t GemmPackedBSize(size_t k, size_t n);

/// Packs logical B ([k, n], element (kk, j) at b[kk * rsb + j * csb]) into
/// `packed` (size >= GemmPackedBSize(k, n)). Pass (rsb=ldb, csb=1) for
/// row-major B and (rsb=1, csb=ldb) for B^T. Padding columns are zeroed.
void GemmPackB(size_t k, size_t n, const float* b, size_t rsb, size_t csb,
               float* packed);

/// Rows [i0, i1) of C (+)= A @ B_packed (+ bias). Logical A is [m, k] with
/// element (i, kk) at a[i * rsa + kk * csa]; pass (rsa=lda, csa=1) for
/// row-major A and (rsa=1, csa=lda) for A^T. C is row-major with leading
/// dimension `ldc`. A non-null `bias` ([n]) is added to every row while the
/// accumulators are still in registers, saving a second pass over C. With
/// `accumulate` the k-complete register block is added onto C (bias must be
/// null). Safe to call concurrently on disjoint row ranges; uses a
/// thread-local pack buffer for A tiles.
void GemmBlockedRows(size_t i0, size_t i1, size_t k, size_t n, const float* a,
                     size_t rsa, size_t csa, const float* packed_b, float* c,
                     size_t ldc, const float* bias, bool accumulate);

/// The nonzero entries of a row-major matrix, row by row: row q holds
/// (index[e], value[e]) for e in [begin[q], begin[q + 1]), index ascending.
struct RowNonzeros {
  const uint32_t* begin;
  const uint32_t* index;
  const float* value;
};

/// Rows [r0, r1) of the fused tree-convolution window product over sparse
/// input rows x (each `in` wide):
///   C[r] = max(0, x[r] B_s + x[left[r]] B_l + x[right[r]] B_r + bias)
/// with packed_b GemmPackB's image of the stacked [B_s; B_l; B_r]
/// ([3 * in, n]); a child of -1 contributes nothing. Each output element
/// sums the window's nonzero terms in ascending k with GemmBlockedRows' own
/// multiply-add. A skipped term has x == +-0; for finite B the dense kernel
/// adds an exact zero there, which can change only the sign of a zero sum,
/// and the bias+ReLU epilogue gives the same bits for either sign. So C
/// equals max(0, .) of GemmBlockedRows over the gathered [rows, 3 * in]
/// windows with the bias bit for bit, on the same ISA. Work per row is the
/// window's nonzero count times n. Safe to call concurrently on disjoint
/// row ranges.
void GemmTreeWindowRows(size_t r0, size_t r1, size_t in, size_t n,
                        const RowNonzeros& x, const int* left,
                        const int* right, const float* packed_b, float* c,
                        size_t ldc, const float* bias);

/// Rows [i0, i1) of C += A @ B_packed for a sparse A ([m, k], row i's
/// nonzeros in `a`, index = column of A) and packed_b GemmPackB's image of
/// B ([k, n]). Each output element sums its row's nonzero terms in
/// ascending k from zero with GemmBlockedRows' own multiply-add and adds the
/// sum onto C, as GemmBlockedRows' accumulate mode does. A skipped term has
/// a == +-0; for finite B it can change only the sign of a zero sum, and
/// adding a zero sum onto a C element that is not -0 gives that element's
/// bits for either sign. So on a C holding no -0 (a zeroed buffer, say) the
/// result equals the accumulate-mode GemmBlockedRows over the dense A bit
/// for bit, on the same ISA. Work per row is its nonzero count times n.
/// Safe to call concurrently on disjoint row ranges.
void GemmSparseRowsAccumulate(size_t i0, size_t i1, size_t k, size_t n,
                              const RowNonzeros& a, const float* packed_b,
                              float* c, size_t ldc);

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_KERNELS_GEMM_KERNELS_H_
