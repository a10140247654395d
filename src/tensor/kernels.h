#ifndef VSD_TENSOR_KERNELS_H_
#define VSD_TENSOR_KERNELS_H_

#include <cstdint>

namespace vsd::tensor::kernels {

// ---- Shared compute kernels (backend-dispatched) ----
//
// Every op that appears both in the eager tensor/autograd forward pass and
// in the compiled graph executor (`nn::graph`) is reached exactly once
// through the entry points below. Each calls its kernel directly: the ops
// with a simd-backend variant (all but Tanh and Sigmoid) pick a simd copy
// or `scalar::` by `ActiveBackend()`, the rest always call `scalar::`.
// Under the simd backend, x86-64 GCC/Clang builds run the 8-lane copy on
// CPUs with AVX2 when the width a call vectorises is a multiple of 8 (for
// the fp32 MatMuls, also when it is at least 64), and the 4-lane copy
// otherwise (kernels.cc).
// Bit-identity between the execution modes is therefore structural: both
// reach the same function for a given backend, and the simd kernels are
// required to be bit-identical to the scalar reference (fixed k-order
// accumulation, separate mul/add rounding — see docs/INTERNALS.md
// "Kernels, dtypes & backends").
// `tests/graph_exec_test.cc` and `tests/quant_test.cc` pin the contract.
//
// Kernels fully define their output range (zero-initializing first where
// the loop accumulates or writes sparsely), so callers may hand them
// arbitrary dirty memory — e.g. a reused arena slot. Dispatch reads the
// active backend and branches: no heap allocation, safe inside Execute's
// zero-allocation contract.

enum class Backend {
  kScalar = 0,  ///< Reference implementation.
  kSimd = 1,    ///< Vectorized / blocked variants; bit-identical to scalar.
};

constexpr const char* BackendName(Backend backend) {
  return backend == Backend::kSimd ? "simd" : "scalar";
}

/// True when the vectorized backend was compiled in (GCC/Clang vector
/// extensions; lowered to whatever SIMD ISA the build targets, or scalar
/// code on targets without one — the "portable vector path").
bool SimdCompiled();

/// The backend the entry points use: a SetBackend override wins, else the
/// VSD_BACKEND environment variable ("scalar" | "simd"), else kSimd when
/// compiled in (safe because fp32 SIMD is bit-identical to scalar).
Backend ActiveBackend();

/// Runtime override of VSD_BACKEND (tests, benches). Requesting kSimd
/// when it is not compiled in resolves to scalar.
void SetBackend(Backend backend);

/// Drops the SetBackend override, returning control to the environment.
void ClearBackendOverride();

/// [M,K]x[K,N] -> [M,N]. Each out[i,j] starts at +0.0f and adds
/// a[i,p] * b[p,j] for p ascending, skipping the entries of `a` equal to
/// zero (-0.0f included). The skip changes a result only when `b` holds an
/// inf or a NaN, which a skipped zero keeps out of the product.
void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n);

/// aᵀ·b for a [M,K] and b [M,N] -> out [K,N], reading `a` in place: the
/// weight gradient Xᵀ·dY of the eager backward, without a transposed copy
/// of X. Each out[p,j] is bit-identical to MatMulInto over a transposed
/// copy of `a`: it starts at +0.0f and adds a[i,p] * b[i,j] for i
/// ascending, skipping the i with a[i,p] == 0.
void MatMulTransAInto(const float* a, const float* b, float* out, int m,
                      int k, int n);

/// [M,K]x[K,N] -> [M,N] where b is int8 row-quantized: bq[p*n+j] with
/// per-k-row scale/zero_point (tensor/quant.h format). Dequantizes inline
/// in the same fixed k-order as the fp32 kernel and accumulates in fp32,
/// so the result is bit-identical to MatMulInto over the dequantized b.
void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n);

/// Row-broadcast sum: out[i,j] = a[i,j] + bias[j] for a [rows,cols].
/// `out` may be `a` (autograd::Conv2d adds its bias in place).
void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols);

/// Element-wise maps over `n` contiguous floats.
void ReluInto(const float* x, float* out, int n);
void TanhInto(const float* x, float* out, int n);
void SigmoidInto(const float* x, float* out, int n);
/// GELU, tanh approximation — the only form the model uses.
void GeluInto(const float* x, float* out, int n);

/// Row-wise concat of a [rows,da] and b [rows,db] into out [rows,da+db].
void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db);

/// im2col over NHWC input x [n,h,w,c] into out [n*oh*ow, kh*kw*c] where
/// oh/ow follow `autograd::ConvOutDim`. Out-of-bounds taps read as zero.
/// The window must fit the padded image (kh <= h + 2*pad, kw <= w +
/// 2*pad); `autograd::Im2Col` and `GraphBuilder::Im2Col` check it.
/// `plane` is scratch of Im2ColPlaneSize(h, w, c, pad) floats, owned by
/// the caller and used by one call at a time: the simd backend reads each
/// image through it with a zero border. What it holds on entry does not
/// matter.
void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad, float* plane);

/// Floats of Im2ColInto's `plane`: one image with `pad` zeros on each
/// side, (h+2*pad) x (w+2*pad) x c.
constexpr int Im2ColPlaneSize(int h, int w, int c, int pad) {
  return (h + 2 * pad) * (w + 2 * pad) * c;
}

}  // namespace vsd::tensor::kernels

#endif  // VSD_TENSOR_KERNELS_H_
