#ifndef VSD_TENSOR_KERNELS_BACKENDS_H_
#define VSD_TENSOR_KERNELS_BACKENDS_H_

#include <cstdint>

namespace vsd::tensor::kernels {

// ---- Backend implementations (internal) ----
//
// Declarations shared between the backend translation units and the entry
// points in kernels.cc, which call them directly. Callers outside
// src/tensor/ go through tensor/kernels.h; these symbols are not part of
// the public kernel API (tests call them to check the dispatch).
//
// Both backends are compiled with -ffp-contract=off (see
// src/tensor/CMakeLists.txt): the bit-identity contract requires every
// multiply-accumulate to round the product and the sum separately, and a
// build with FMA enabled (-mfma / -march=native) must not contract one
// backend differently from the other.
//
// kernels_simd.cc is compiled twice on x86-64 GCC/Clang, which define
// VSD_SIMD_AVX2 (src/tensor/CMakeLists.txt): as `simd` at the build's
// baseline ISA (4 lanes on x86-64) and as `simd_avx2` with -mavx2 (8
// lanes). The entry points call `simd_avx2` only on a CPU with AVX2; in a
// build without the second copy the name refers to `simd`.

namespace scalar {

void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n);
void MatMulTransAInto(const float* a, const float* b, float* out, int m,
                      int k, int n);
void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n);
void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols);
void ReluInto(const float* x, float* out, int n);
void TanhInto(const float* x, float* out, int n);
void SigmoidInto(const float* x, float* out, int n);
void GeluInto(const float* x, float* out, int n);
void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db);
/// Reads `x` directly and leaves `plane` untouched.
void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad, float* plane);

}  // namespace scalar

namespace simd {

/// False when the translation unit was built without vector-extension
/// support; ActiveBackend() then resolves to scalar.
bool Available();

void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n);
void MatMulTransAInto(const float* a, const float* b, float* out, int m,
                      int k, int n);
void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n);
void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols);
void ReluInto(const float* x, float* out, int n);
void GeluInto(const float* x, float* out, int n);
void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db);
/// Copies each image into the interior of `plane`, whose border it zeroes
/// once per call, and then copies every kernel row of every window as one
/// run of kw*c floats, with no bounds test.
void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad, float* plane);
// Tanh/Sigmoid have no vector variant: the transcendental maps must call
// the exact same libm function per element to stay bit-identical. Their
// entry points call the scalar functions under either backend.

}  // namespace simd

#ifdef VSD_SIMD_AVX2
/// The same kernels at 8 lanes (kernels_simd.cc built with -mavx2). Call
/// them only where EightLanesUsable() holds.
namespace simd_avx2 {

void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n);
void MatMulTransAInto(const float* a, const float* b, float* out, int m,
                      int k, int n);
void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n);
void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols);
void ReluInto(const float* x, float* out, int n);
void GeluInto(const float* x, float* out, int n);
void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db);
void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad, float* plane);

}  // namespace simd_avx2
#else
namespace simd_avx2 = simd;
#endif

/// True when the 8-lane copy is compiled in and this CPU runs AVX2
/// (checked once per process).
bool EightLanesUsable();

}  // namespace vsd::tensor::kernels

#endif  // VSD_TENSOR_KERNELS_BACKENDS_H_
