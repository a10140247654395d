// Scalar reference backend, the backend switch and the public entry
// points. The scalar loops are the semantic definition of every kernel:
// the simd backend must be bit-identical to them (tests/quant_test.cc
// sweeps the contract).
#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/math_util.h"
#include "tensor/kernels_backends.h"

namespace vsd::tensor::kernels {

namespace scalar {

void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n) {
  std::fill(out, out + static_cast<long long>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      float* orow = out + i * n;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

// The same products, in the same i order per element, as MatMulInto over
// a transposed copy of `a`.
void MatMulTransAInto(const float* a, const float* b, float* out, int m,
                      int k, int n) {
  std::fill(out, out + static_cast<long long>(k) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<long long>(i) * k;
    const float* brow = b + static_cast<long long>(i) * n;
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      float* orow = out + static_cast<long long>(p) * n;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n) {
  std::fill(out, out + static_cast<long long>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const int8_t* brow = bq + p * n;
      const float scale = bscale[p];
      const int32_t zero = bzero[p];
      float* orow = out + i * n;
      // Dequantize inline with the exact op order of
      // quant.h::DequantizeRowInt8 (scale * (q - zero), then av * w), so
      // the fused kernel is bit-identical to dequantize-then-MatMulInto.
      for (int j = 0; j < n; ++j) {
        const float w =
            scale * static_cast<float>(static_cast<int32_t>(brow[j]) - zero);
        orow[j] += av * w;
      }
    }
  }
}

void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols) {
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      out[i * cols + j] = a[i * cols + j] + bias[j];
    }
  }
}

void ReluInto(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void TanhInto(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

void SigmoidInto(const float* x, float* out, int n) {
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<float>(vsd::Sigmoid(static_cast<double>(x[i])));
  }
}

void GeluInto(const float* x, float* out, int n) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  for (int i = 0; i < n; ++i) {
    const float v = x[i];
    const float inner = kC * (v + 0.044715f * v * v * v);
    out[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db) {
  const int d = da + db;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < da; ++j) out[i * d + j] = a[i * da + j];
    for (int j = 0; j < db; ++j) out[i * d + da + j] = b[i * db + j];
  }
}

void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad, float* /*plane*/) {
  const int oh = (h + 2 * pad - kh) / stride + 1;
  const int ow = (w + 2 * pad - kw) / stride + 1;
  const int patch = kh * kw * c;
  std::fill(out, out + static_cast<long long>(n) * oh * ow * patch, 0.0f);
  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const int row = (b * oh + oy) * ow + ox;
        int col = 0;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * stride + ky - pad;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ox * stride + kx - pad;
            for (int ch = 0; ch < c; ++ch, ++col) {
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                out[row * patch + col] =
                    x[((b * h + iy) * w + ix) * c + ch];
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace scalar

// ---- Backend switch ----

namespace {

int EnvBackend() {
  const char* env = std::getenv("VSD_BACKEND");
  if (env == nullptr || env[0] == '\0') return -1;
  if (std::strcmp(env, "scalar") == 0) return 0;
  if (std::strcmp(env, "simd") == 0) return 1;
  VSD_CHECK(false) << "VSD_BACKEND must be 'scalar' or 'simd', got '" << env
                   << "'";
  return -1;
}

/// -1 = unset (fall back to the environment); set by SetBackend.
std::atomic<int>& BackendOverrideSlot() {
  static std::atomic<int> override_flag{-1};
  return override_flag;
}

Backend ClampToCompiled(int flag) {
  if (flag == 1 && simd::Available()) return Backend::kSimd;
  return Backend::kScalar;
}

bool UseSimd() { return ActiveBackend() == Backend::kSimd; }

/// Whether a simd call runs the 8-lane copy. `width` is the length the
/// kernel vectorises: output columns, a map's element count, or Im2Col's
/// kw*c run. The 8-lane copy takes it only when it is a multiple of 8, so
/// that no column falls to the 8-lane scalar tail: the heads' 12-wide
/// products take 1.8-2.9x as long at 8 lanes (docs/INTERNALS.md).
bool EightLanes(int width) { return width % 8 == 0 && EightLanesUsable(); }

/// The MatMuls also run 8 lanes on outputs of kWideOutput columns or more,
/// whose scalar tail of up to 7 columns is a small share of the row: the
/// Assess and Highlight layer-1 input gradients (228 and 218 wide) take
/// about 0.6 of their 4-lane time there.
constexpr int kWideOutput = 64;
bool EightLanesMatMul(int n) {
  return (n % 8 == 0 || n >= kWideOutput) && EightLanesUsable();
}

}  // namespace

bool SimdCompiled() { return simd::Available(); }

bool EightLanesUsable() {
#ifdef VSD_SIMD_AVX2
  // libgcc and compiler-rt report AVX2 only when the OS saves the ymm
  // registers too.
  static const bool usable = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return usable;
#else
  return false;
#endif
}

Backend ActiveBackend() {
  const int override_flag =
      BackendOverrideSlot().load(std::memory_order_relaxed);
  if (override_flag >= 0) return ClampToCompiled(override_flag);
  static const int env_flag = EnvBackend();
  if (env_flag >= 0) return ClampToCompiled(env_flag);
  // Default: prefer the vectorized backend. Safe because fp32 SIMD is
  // bit-identical to scalar (the equivalence suites pin this).
  return ClampToCompiled(1);
}

void SetBackend(Backend backend) {
  BackendOverrideSlot().store(backend == Backend::kSimd ? 1 : 0,
                              std::memory_order_relaxed);
}

void ClearBackendOverride() {
  BackendOverrideSlot().store(-1, std::memory_order_relaxed);
}

// ---- Entry points ----
//
// Under the simd backend each call picks the 4- or the 8-lane copy by
// EightLanes(width); both give the scalar bits.

void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n) {
  if (!UseSimd()) return scalar::MatMulInto(a, b, out, m, k, n);
  EightLanesMatMul(n) ? simd_avx2::MatMulInto(a, b, out, m, k, n)
                : simd::MatMulInto(a, b, out, m, k, n);
}

void MatMulTransAInto(const float* a, const float* b, float* out, int m,
                      int k, int n) {
  if (!UseSimd()) return scalar::MatMulTransAInto(a, b, out, m, k, n);
  EightLanesMatMul(n) ? simd_avx2::MatMulTransAInto(a, b, out, m, k, n)
                : simd::MatMulTransAInto(a, b, out, m, k, n);
}

void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n) {
  if (!UseSimd()) {
    return scalar::MatMulI8Into(a, bq, bscale, bzero, out, m, k, n);
  }
  EightLanes(n) ? simd_avx2::MatMulI8Into(a, bq, bscale, bzero, out, m, k, n)
                : simd::MatMulI8Into(a, bq, bscale, bzero, out, m, k, n);
}

void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols) {
  if (!UseSimd()) return scalar::AddRowsInto(a, bias, out, rows, cols);
  EightLanes(cols) ? simd_avx2::AddRowsInto(a, bias, out, rows, cols)
                   : simd::AddRowsInto(a, bias, out, rows, cols);
}

void ReluInto(const float* x, float* out, int n) {
  if (!UseSimd()) return scalar::ReluInto(x, out, n);
  EightLanes(n) ? simd_avx2::ReluInto(x, out, n) : simd::ReluInto(x, out, n);
}

// Tanh and Sigmoid have no vector variant (see kernels_backends.h), so
// both backends run the scalar loop.
void TanhInto(const float* x, float* out, int n) {
  scalar::TanhInto(x, out, n);
}

void SigmoidInto(const float* x, float* out, int n) {
  scalar::SigmoidInto(x, out, n);
}

void GeluInto(const float* x, float* out, int n) {
  if (!UseSimd()) return scalar::GeluInto(x, out, n);
  EightLanes(n) ? simd_avx2::GeluInto(x, out, n) : simd::GeluInto(x, out, n);
}

// Two memcpy calls per row at either width.
void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db) {
  UseSimd() ? simd::ConcatRowsInto(a, b, out, rows, da, db)
            : scalar::ConcatRowsInto(a, b, out, rows, da, db);
}

void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad, float* plane) {
  if (!UseSimd()) {
    return scalar::Im2ColInto(x, out, n, h, w, c, kh, kw, stride, pad, plane);
  }
  EightLanes(kw * c)
      ? simd_avx2::Im2ColInto(x, out, n, h, w, c, kh, kw, stride, pad, plane)
      : simd::Im2ColInto(x, out, n, h, w, c, kh, kw, stride, pad, plane);
}

}  // namespace vsd::tensor::kernels
