// Vectorized backend via GCC/Clang vector extensions (portable: the
// compiler lowers vf to AVX when targeted, SSE pairs or scalar code
// otherwise). Every loop keeps the scalar backend's exact rounding:
//   * accumulation stays in fixed k-order (vectorization is along the
//     row-independent output columns only),
//   * multiply and add round separately — this TU is compiled with
//     -ffp-contract=off (src/tensor/CMakeLists.txt) so no FMA contraction
//     can merge them even under -march=native,
//   * tails reuse the same per-element expression as the vector body.
// The scalar/simd bitwise sweeps in tests/quant_test.cc and
// tests/graph_exec_test.cc pin the contract.
//
// This file is compiled once per vector width: as namespace `simd` with
// the build's flags, and on x86-64 GCC/Clang a second time with -mavx2
// and VSD_SIMD_NAMESPACE=simd_avx2 (src/tensor/CMakeLists.txt), which
// kernels.cc calls on CPUs with AVX2. Everything else here is either in
// that namespace or TU-local, so the two copies share no symbol.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/kernels_backends.h"

#if defined(__GNUC__) || defined(__clang__)
#define VSD_SIMD_VECTOR_EXT 1
#endif

#ifdef __AVX2__
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

#ifndef VSD_SIMD_NAMESPACE
#define VSD_SIMD_NAMESPACE simd
#endif

namespace vsd::tensor::kernels::VSD_SIMD_NAMESPACE {

#ifdef VSD_SIMD_VECTOR_EXT

namespace {

// Vector width follows the target ISA: 8 lanes (32-byte ymm) only when
// AVX2 is compiled in — without it GCC *scalarizes* 32-byte compares,
// selects, and integer ops instead of splitting them, which is slower
// than the plain loops. The 4-lane (16-byte xmm) types lower to single
// SSE2 instructions on every x86-64 baseline build.
#ifdef __AVX2__
typedef float vf __attribute__((vector_size(32)));
typedef int32_t vs __attribute__((vector_size(32)));
constexpr int kLanes = 8;
#else
typedef float vf __attribute__((vector_size(16)));
typedef int32_t vs __attribute__((vector_size(16)));
constexpr int kLanes = 4;
#endif

// Scalar-vector binary ops broadcast, so these work at either width.
inline vf Splat(float s) { return vf{} + s; }
inline vs SplatI(int32_t s) { return vs{} + s; }

// Unaligned load/store through memcpy — compiles to single vector moves.
inline vf LoadF(const float* p) {
  vf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreF(float* p, vf v) { std::memcpy(p, &v, sizeof(v)); }

#ifdef __AVX2__
// Sign-extending load of 8 int8 lanes into int32 lanes. GCC scalarizes
// __builtin_convertvector out of narrow int8 vectors, so use the
// single-instruction widen (vpmovsxbd) instead.
inline vs LoadQ(const int8_t* p) {
  return (vs)_mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
#endif

// ---- Register-blocked MatMul ----
//
// Every out[i, j] is computed exactly as scalar::MatMulInto computes it:
// start at +0.0f, then for p = 0..k-1 in order add a[i, p] * b[p, j],
// skipping p where a[i, p] == 0, the product and the sum each rounded
// once. Only the loop nest differs. The scalar loop reads and writes a
// whole output row for every p; here a block of `out` stays in registers
// for the whole k loop and is stored once (register blocking, Goto & van
// de Geijn, ACM TOMS 2008). Row i of the product reads only row i of `a`,
// so no result depends on m or on which rows share a block.
//
// The skip changes a result only when b holds an inf or a NaN. An
// accumulator that starts at +0.0f never becomes -0.0f: under round to
// nearest a sum is -0.0f only when both terms are, and gradual underflow
// rounds a nonzero sum to a nonzero value. So adding a[i, p] * b[p, j] =
// ±0.0f for a zero a[i, p] and a finite b[p, j] leaves every accumulator
// as it was, and a tile may add it instead of testing for it. The
// argument needs IEEE arithmetic: no flush-to-zero or denormals-are-zero
// mode, no -ffast-math, and -ffp-contract=off as above.
//
// A row's full vectors split into blocks of at most kTileVectors; the last
// n % kLanes columns are a scalar tail. Each call picks one of three k
// loops from what it observes (ChoosePath; docs/INTERNALS.md has the
// per-shape timings behind the rule):
//   * Lists (ReLU outputs and their gradients: more than one zero in
//     kListZeroShare among the first kZeroCountRows rows of `a`, rows of
//     at least kListMinK): each row lists its nonzero p's once per chunk
//     of k, branch-free, and every block of the row walks the list, so it
//     does no work for a zero a value and has no branch to mispredict.
//   * Branch-free tiles (any other `a` times a finite b, with at least as
//     many rows as vectors per row, so that the pass checking b costs less
//     than the tests it saves): R rows share each V-vector block and add
//     every a value, zero or not.
//   * Skipping tiles (the rest): the same tiles, each (row, p) testing its
//     a value first.

/// Accumulators per block. SSE and AVX2 both have 16 vector registers;
/// this leaves room for the broadcast a[i, p] and a product.
constexpr int kTileVectors = 12;
/// Rows per block are capped where each row costs more than its
/// accumulators: one more skip test per p, or in A·B one more row of `a`
/// to read a value from per p. A branch-free Aᵀ·B tile reads its rows'
/// values from one run of a row of `a`, so it fills the block.
constexpr int kMaxTileRows = 4;
/// `a` takes the list path when more than one value in this many is zero
/// and its rows are at least kListMinK long.
constexpr int kListZeroShare = 8;
constexpr int kListMinK = 16;
/// The list path lists nonzero p's in chunks of this many (on the stack).
constexpr int kChunk = 256;
/// The zero share is counted over `a`'s first rows only: a pass over all
/// of conv1's [36864, 25] patches cost about a fifth of the product.
constexpr int kZeroCountRows = 256;

constexpr int TileRows(int vectors, int max_rows = kMaxTileRows) {
  return std::min(kTileVectors / vectors, max_rows);
}

/// Calls fn.template operator()<V>(j) for each block of `vectors` full
/// vectors, j being the block's first column: blocks of kTileVectors, then
/// one of the rest.
template <typename Fn>
inline void ForEachBlock(int vectors, Fn&& fn) {
  int j = 0;
  for (; vectors >= kTileVectors; vectors -= kTileVectors) {
    fn.template operator()<kTileVectors>(j);
    j += kTileVectors * kLanes;
  }
  switch (vectors) {
    case 1: fn.template operator()<1>(j); break;
    case 2: fn.template operator()<2>(j); break;
    case 3: fn.template operator()<3>(j); break;
    case 4: fn.template operator()<4>(j); break;
    case 5: fn.template operator()<5>(j); break;
    case 6: fn.template operator()<6>(j); break;
    case 7: fn.template operator()<7>(j); break;
    case 8: fn.template operator()<8>(j); break;
    case 9: fn.template operator()<9>(j); break;
    case 10: fn.template operator()<10>(j); break;
    case 11: fn.template operator()<11>(j); break;
    default: break;
  }
}

/// How many of x[0..count) compare equal to zero (-0.0f included).
long long CountZeros(const float* x, long long count) {
  const vf zero = vf{};
  vs zeros = vs{};
  long long i = 0;
  for (; i + kLanes <= count; i += kLanes) zeros -= LoadF(x + i) == zero;
  long long total = 0;
  for (int l = 0; l < kLanes; ++l) total += zeros[l];
  for (; i < count; ++i) total += x[i] == 0.0f;
  return total;
}

/// Whether every one of x[0..count) is finite. x - x is +0.0f for a
/// finite x and NaN for an inf or a NaN, and a NaN survives the sum of
/// four such differences, which then compares unequal to zero. Four
/// vectors per compare take 0.35 of the time of one per compare at 4
/// lanes, and 0.74 at 8.
bool AllFinite(const float* x, long long count) {
  const vf zero = vf{};
  vs bad = vs{};
  long long i = 0;
  for (; i + 4 * kLanes <= count; i += 4 * kLanes) {
    const vf v0 = LoadF(x + i);
    const vf v1 = LoadF(x + i + kLanes);
    const vf v2 = LoadF(x + i + 2 * kLanes);
    const vf v3 = LoadF(x + i + 3 * kLanes);
    bad |= ((v0 - v0) + (v1 - v1)) + ((v2 - v2) + (v3 - v3)) != zero;
  }
  for (; i + kLanes <= count; i += kLanes) {
    const vf v = LoadF(x + i);
    bad |= v - v != zero;
  }
  int any = 0;
  for (int l = 0; l < kLanes; ++l) any |= bad[l];
  for (; i < count; ++i) any |= x[i] - x[i] != 0.0f;
  return any == 0;
}

/// Tile path: rows [0, R) x vector columns [0, V * kLanes) of `out`, with
/// `a`, `b` and `out` offset to the tile's first row and column. kSkip
/// compiles in the a[i, p] == 0 test.
template <int R, int V, bool kSkip>
inline void MatMulTile(const float* a, const float* b, float* out, int k,
                       int n) {
  vf acc[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) acc[r][v] = vf{};
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<long long>(p) * n;
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const float av = a[static_cast<long long>(r) * k + p];
      if (kSkip && av == 0.0f) continue;
      const vf avv = Splat(av);
      const float* bv = brow;
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v, bv += kLanes) acc[r][v] += avv * LoadF(bv);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    float* ov = out + static_cast<long long>(r) * n;
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v, ov += kLanes) StoreF(ov, acc[r][v]);
  }
}

/// Tile path: the V-vector column block at `b`/`out` for every row,
/// TileRows(V) rows per tile. Not inlined, so that each V gets a register
/// allocation of its own.
template <int V, bool kSkip>
__attribute__((noinline)) void MatMulTileColumns(const float* a,
                                                 const float* b, float* out,
                                                 int m, int k, int n) {
  constexpr int kRows = TileRows(V);
  int i = 0;
  for (; i + kRows <= m; i += kRows) {
    MatMulTile<kRows, V, kSkip>(a + static_cast<long long>(i) * k, b,
                                out + static_cast<long long>(i) * n, k, n);
  }
  for (; i < m; ++i) {
    MatMulTile<1, V, kSkip>(a + static_cast<long long>(i) * k, b,
                            out + static_cast<long long>(i) * n, k, n);
  }
}

/// Lists the nonzero p's in [p0, end) of `arow` into `ps`, in order, and
/// returns how many: the p's whose a value fails `== 0.0f`, as the scalar
/// loop's skip test. No branch depends on the values. With SSE2, four
/// values at a time: their nonzero mask picks the left-packed lane indices
/// to store, and the mask's popcount advances the count.
inline int ListNonzero(const float* arow, int p0, int end, int* ps) {
  int count = 0;
  int p = p0;
#ifdef __SSE2__
  alignas(16) static constexpr int kPacked[16][4] = {
      {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},
      {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},
      {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},
      {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3}};
  static constexpr int kPopcount[16] = {0, 1, 1, 2, 1, 2, 2, 3,
                                        1, 2, 2, 3, 2, 3, 3, 4};
  const __m128 zero = _mm_setzero_ps();
  for (; p + 4 <= end; p += 4) {
    const int mask =
        _mm_movemask_ps(_mm_cmpneq_ps(_mm_loadu_ps(arow + p), zero));
    const __m128i lanes =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kPacked[mask]));
    // Writes four indices; only the first kPopcount[mask] are kept.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ps + count),
                     _mm_add_epi32(lanes, _mm_set1_epi32(p)));
    count += kPopcount[mask];
  }
#endif
  for (; p < end; ++p) {
    ps[count] = p;
    count += arow[p] != 0.0f;
  }
  return count;
}

/// List path: the V-vector column block at `b`/`out` for every row alone,
/// k in chunks of kChunk, each chunk adding its listed p's to the block
/// the last chunk left (+0.0f before the first).
template <int V>
__attribute__((noinline)) void MatMulListColumns(const float* a,
                                                 const float* b, float* out,
                                                 int m, int k, int n) {
  int ps[kChunk];
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<long long>(i) * k;
    vf acc[V];
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) acc[v] = vf{};
    for (int p0 = 0; p0 < k; p0 += kChunk) {
      const int count =
          ListNonzero(arow, p0, k - p0 < kChunk ? k : p0 + kChunk, ps);
      for (int q = 0; q < count; ++q) {
        const vf avv = Splat(arow[ps[q]]);
        const float* bv = b + static_cast<long long>(ps[q]) * n;
#pragma GCC unroll 16
        for (int v = 0; v < V; ++v, bv += kLanes) acc[v] += avv * LoadF(bv);
      }
    }
    float* ov = out + static_cast<long long>(i) * n;
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v, ov += kLanes) StoreF(ov, acc[v]);
  }
}

/// Every path: the last `cols` (< kLanes) columns of every row, with `b`
/// and `out` offset to the first of them, one float accumulator per
/// element.
template <bool kSkip>
void MatMulTailColumns(const float* a, const float* b, float* out, int m,
                       int k, int n, int cols) {
  for (int i = 0; i < m; ++i) {
    float acc[kLanes] = {};
    for (int p = 0; p < k; ++p) {
      const float av = a[static_cast<long long>(i) * k + p];
      if (kSkip && av == 0.0f) continue;
      const float* brow = b + static_cast<long long>(p) * n;
      for (int j = 0; j < cols; ++j) acc[j] += av * brow[j];
    }
    float* orow = out + static_cast<long long>(i) * n;
    for (int j = 0; j < cols; ++j) orow[j] = acc[j];
  }
}

enum class Path { kTiles, kSkippingTiles, kLists };

/// The k loop for an [m, k] x [k, n] product.
Path ChoosePath(const float* a, const float* b, int m, int k, int n) {
  if (k >= kListMinK) {
    const long long counted =
        static_cast<long long>(std::min(m, kZeroCountRows)) * k;
    if (CountZeros(a, counted) * kListZeroShare > counted) return Path::kLists;
  }
  // The pass over b reads about k * vectors vectors and saves m * k tests.
  if (m >= n / kLanes && AllFinite(b, static_cast<long long>(k) * n)) {
    return Path::kTiles;
  }
  return Path::kSkippingTiles;
}

// ---- Aᵀ·B: weight gradients ----
//
// out[p, j] = sum over i of a[i, p] * b[i, j], with a [m, k] read in place:
// the weight gradient Xᵀ·dY without a transposed copy of X. A tile of R
// output rows (p) x V vectors (j) accumulates in registers as in
// MatMulTile, reading R adjacent values of row i of `a` and V vectors of
// row i of `b` for each i. The i range is walked in chunks of
// kTransAChunkRows: every block takes a chunk before the next chunk
// begins, and its accumulators wait in `out` in between, so each chunk of
// `a` and `b` is read from cache by every block rather than from memory
// (conv1's `a` is [36864, 25] at batch 64). A float stored and loaded back
// keeps its bits, so chunking changes no result. kFirst (the first chunk)
// starts the accumulators at +0.0f. It is a template argument, not a
// runtime flag: merging the two starts made GCC spill every accumulator
// around the i loop, and a 1-row call took ~1.8x the time of the
// transposed-copy path.

constexpr int kTransAChunkRows = 256;

/// Rows [0, R) x vector columns [0, V * kLanes) of `out` over `rows` rows
/// of `a` and `b`, each offset to the tile's first column.
template <int R, int V, bool kFirst, bool kSkip>
inline void MatMulTransATile(const float* a, const float* b, float* out,
                             int rows, int k, int n) {
  vf acc[R][V];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    const float* ov = out + static_cast<long long>(r) * n;
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v, ov += kLanes) {
      acc[r][v] = kFirst ? vf{} : LoadF(ov);
    }
  }
  for (int i = 0; i < rows; ++i) {
    const float* arow = a + static_cast<long long>(i) * k;
    const float* brow = b + static_cast<long long>(i) * n;
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const float av = arow[r];
      if (kSkip && av == 0.0f) continue;
      const vf avv = Splat(av);
      const float* bv = brow;
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v, bv += kLanes) acc[r][v] += avv * LoadF(bv);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    float* ov = out + static_cast<long long>(r) * n;
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v, ov += kLanes) StoreF(ov, acc[r][v]);
  }
}

/// The V-vector column block at `b`/`out` for every output row,
/// TileRows(V) rows per tile when they skip, a full block when they do
/// not, over one chunk of `rows` rows.
template <int V, bool kFirst, bool kSkip>
__attribute__((noinline)) void MatMulTransAColumns(const float* a,
                                                   const float* b,
                                                   float* out, int rows,
                                                   int k, int n) {
  constexpr int kRows = TileRows(V, kSkip ? kMaxTileRows : kTileVectors);
  int p = 0;
  for (; p + kRows <= k; p += kRows) {
    MatMulTransATile<kRows, V, kFirst, kSkip>(
        a + p, b, out + static_cast<long long>(p) * n, rows, k, n);
  }
  for (; p < k; ++p) {
    MatMulTransATile<1, V, kFirst, kSkip>(
        a + p, b, out + static_cast<long long>(p) * n, rows, k, n);
  }
}

/// The last `cols` (< kLanes) columns of every output row over one chunk,
/// with `b` and `out` offset to the first of them.
template <bool kFirst, bool kSkip>
void MatMulTransATailColumns(const float* a, const float* b, float* out,
                             int rows, int k, int n, int cols) {
  for (int p = 0; p < k; ++p) {
    float* orow = out + static_cast<long long>(p) * n;
    float acc[kLanes] = {};
    if (!kFirst) {
      for (int j = 0; j < cols; ++j) acc[j] = orow[j];
    }
    for (int i = 0; i < rows; ++i) {
      const float av = a[static_cast<long long>(i) * k + p];
      if (kSkip && av == 0.0f) continue;
      const float* brow = b + static_cast<long long>(i) * n;
      for (int j = 0; j < cols; ++j) acc[j] += av * brow[j];
    }
    for (int j = 0; j < cols; ++j) orow[j] = acc[j];
  }
}

/// One chunk of `rows` rows of `a` and `b` into every block of `out`.
template <bool kFirst, bool kSkip>
void MatMulTransAChunk(const float* a, const float* b, float* out, int rows,
                       int k, int n) {
  ForEachBlock(n / kLanes, [&]<int V>(int j) {
    MatMulTransAColumns<V, kFirst, kSkip>(a, b + j, out + j, rows, k, n);
  });
  const int vector_cols = n - n % kLanes;
  if (vector_cols < n) {
    MatMulTransATailColumns<kFirst, kSkip>(
        a, b + vector_cols, out + vector_cols, rows, k, n, n - vector_cols);
  }
}

/// One chunk, by the skipping tiles when its rows of `b` hold an inf or a
/// NaN.
template <bool kFirst>
void MatMulTransAChunk(const float* a, const float* b, float* out, int rows,
                       int k, int n) {
  if (AllFinite(b, static_cast<long long>(rows) * n)) {
    MatMulTransAChunk<kFirst, false>(a, b, out, rows, k, n);
  } else {
    MatMulTransAChunk<kFirst, true>(a, b, out, rows, k, n);
  }
}

// ---- Im2Col's copies ----
//
// A run of `count` floats moves as whole vectors, the last one ending at
// the run's end: it may overlap the one before it, which writes the same
// floats again. Runs shorter than four floats move one float at a time.
// Loads and stores move bits, so every float arrives unchanged (NaN and
// -0.0f included).

typedef float v4f __attribute__((vector_size(16)));

template <typename V>
inline void CopyVectors(const float* src, float* dst, int count) {
  constexpr int kFloats = sizeof(V) / sizeof(float);
  V v;
  for (int t = 0; t + kFloats < count; t += kFloats) {
    std::memcpy(&v, src + t, sizeof(v));
    std::memcpy(dst + t, &v, sizeof(v));
  }
  std::memcpy(&v, src + count - kFloats, sizeof(v));
  std::memcpy(dst + count - kFloats, &v, sizeof(v));
}

inline void CopyRun(const float* src, float* dst, int count) {
  if (count >= kLanes) {
    CopyVectors<vf>(src, dst, count);
  } else if (count >= 4) {
    CopyVectors<v4f>(src, dst, count);
  } else {
    for (int t = 0; t < count; ++t) dst[t] = src[t];
  }
}

inline void ZeroRun(float* dst, int count) {
  for (int t = 0; t < count; ++t) dst[t] = 0.0f;
}

}  // namespace

bool Available() { return true; }

void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n) {
  const Path path = ChoosePath(a, b, m, k, n);
  ForEachBlock(n / kLanes, [&]<int V>(int j) {
    switch (path) {
      case Path::kTiles:
        return MatMulTileColumns<V, false>(a, b + j, out + j, m, k, n);
      case Path::kSkippingTiles:
        return MatMulTileColumns<V, true>(a, b + j, out + j, m, k, n);
      case Path::kLists:
        return MatMulListColumns<V>(a, b + j, out + j, m, k, n);
    }
  });
  const int vector_cols = n - n % kLanes;
  if (vector_cols == n) return;
  path == Path::kTiles
      ? MatMulTailColumns<false>(a, b + vector_cols, out + vector_cols, m, k,
                                 n, n - vector_cols)
      : MatMulTailColumns<true>(a, b + vector_cols, out + vector_cols, m, k,
                                n, n - vector_cols);
}

void MatMulTransAInto(const float* a, const float* b, float* out, int m,
                      int k, int n) {
  // The first chunk also runs when m == 0, to store the zeros.
  MatMulTransAChunk<true>(a, b, out, std::min(m, kTransAChunkRows), k, n);
  for (int i0 = kTransAChunkRows; i0 < m; i0 += kTransAChunkRows) {
    MatMulTransAChunk<false>(a + static_cast<long long>(i0) * k,
                             b + static_cast<long long>(i0) * n, out,
                             std::min(kTransAChunkRows, m - i0), k, n);
  }
}

void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n) {
#ifndef __AVX2__
  // Without the single-instruction int8 widen (vpmovsxbd) the hand-rolled
  // loop loses to what the auto-vectorizer makes of the scalar reference;
  // delegate rather than ship a slower "optimized" path. (Bit-identical
  // either way — it is the same arithmetic.)
  scalar::MatMulI8Into(a, bq, bscale, bzero, out, m, k, n);
#else
  std::memset(out, 0, static_cast<size_t>(m) * n * sizeof(float));
  const int n8 = n - n % kLanes;
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const int8_t* brow = bq + static_cast<long long>(p) * n;
      const float scale = bscale[p];
      const int32_t zero = bzero[p];
      float* orow = out + static_cast<long long>(i) * n;
      const vf avv = Splat(av);
      const vf scv = Splat(scale);
      const vs zv = SplatI(zero);
      int j = 0;
      for (; j < n8; j += kLanes) {
        // Same op order as scalar::MatMulI8Into: widen, subtract the zero
        // point exactly in int32, convert, one rounding for scale*(q-z).
        const vf w = scv * __builtin_convertvector(LoadQ(brow + j) - zv, vf);
        StoreF(orow + j, LoadF(orow + j) + avv * w);
      }
      for (; j < n; ++j) {
        const float w =
            scale * static_cast<float>(static_cast<int32_t>(brow[j]) - zero);
        orow[j] += av * w;
      }
    }
  }
#endif  // __AVX2__
}

void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols) {
  const int c8 = cols - cols % kLanes;
  for (int i = 0; i < rows; ++i) {
    const float* arow = a + static_cast<long long>(i) * cols;
    float* orow = out + static_cast<long long>(i) * cols;
    int j = 0;
    for (; j < c8; j += kLanes) {
      StoreF(orow + j, LoadF(arow + j) + LoadF(bias + j));
    }
    for (; j < cols; ++j) orow[j] = arow[j] + bias[j];
  }
}

void ReluInto(const float* x, float* out, int n) {
  const int n8 = n - n % kLanes;
  const vf zero = Splat(0.0f);
  int i = 0;
  for (; i < n8; i += kLanes) {
    const vf v = LoadF(x + i);
    // The vector ternary reproduces the scalar `v > 0 ? v : 0.0f` exactly
    // (NaN and -0.0f compare false and collapse to +0.0f, positive values
    // pass through bit-unchanged) and stays in the vector domain on SSE2
    // and AVX alike — an explicit int-mask formulation scalarizes to
    // per-lane comiss without AVX.
    StoreF(out + i, v > zero ? v : zero);
  }
  for (; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void GeluInto(const float* x, float* out, int n) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  constexpr float kCube = 0.044715f;
  const int n8 = n - n % kLanes;
  const vf kcv = Splat(kC);
  const vf cubev = Splat(kCube);
  const vf halfv = Splat(0.5f);
  const vf onev = Splat(1.0f);
  int i = 0;
  for (; i < n8; i += kLanes) {
    const vf v = LoadF(x + i);
    // Same association as scalar::GeluInto: ((kCube*v)*v)*v, then kC*(...).
    const vf inner = kcv * (v + ((cubev * v) * v) * v);
    // tanh must hit the exact same libm call per element; no vector libm.
    alignas(sizeof(vf)) float lanes[kLanes];
    StoreF(lanes, inner);
    for (int l = 0; l < kLanes; ++l) lanes[l] = std::tanh(lanes[l]);
    const vf t = LoadF(lanes);
    StoreF(out + i, (halfv * v) * (onev + t));
  }
  for (; i < n; ++i) {
    const float v = x[i];
    const float inner = kC * (v + kCube * v * v * v);
    out[i] = 0.5f * v * (1.0f + std::tanh(inner));
  }
}

void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db) {
  const int d = da + db;
  for (int i = 0; i < rows; ++i) {
    std::memcpy(out + static_cast<long long>(i) * d,
                a + static_cast<long long>(i) * da,
                static_cast<size_t>(da) * sizeof(float));
    std::memcpy(out + static_cast<long long>(i) * d + da,
                b + static_cast<long long>(i) * db,
                static_cast<size_t>(db) * sizeof(float));
  }
}

// The scalar loop zero-fills the whole output and then gathers every tap
// through a bounds test. Here each image is first copied into the interior
// of `plane`, whose border of `pad` zeros on every side is written once
// per call, so every window lies inside the plane and each of its kernel
// rows is one run of kw*c floats (5 for conv1, 24 for conv2), copied with
// no test. Every float is copied bit for bit or written as +0.0f, as in
// the scalar loop. The plane holds one image, so it stays in L1 for the
// whole batch. src/tensor/CMakeLists.txt stops GCC turning the short
// zeroing and copy loops into memset and memcpy calls, which cost more
// than the loops.
void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad, float* plane) {
  const int oh = (h + 2 * pad - kh) / stride + 1;
  const int ow = (w + 2 * pad - kw) / stride + 1;
  const int image_row = w * c;
  const int margin = pad * c;
  const int plane_row = image_row + 2 * margin;
  const int run = kw * c;
  ZeroRun(plane, pad * plane_row);
  for (int y = 0; y < h; ++y) {
    float* prow = plane + static_cast<long long>(pad + y) * plane_row;
    ZeroRun(prow, margin);
    ZeroRun(prow + margin + image_row, margin);
  }
  ZeroRun(plane + static_cast<long long>(pad + h) * plane_row,
          pad * plane_row);
  float* interior = plane + static_cast<long long>(pad) * plane_row + margin;
  float* row = out;
  for (int b = 0; b < n; ++b) {
    const float* image = x + static_cast<long long>(b) * h * image_row;
    for (int y = 0; y < h; ++y) {
      CopyRun(image + static_cast<long long>(y) * image_row,
              interior + static_cast<long long>(y) * plane_row, image_row);
    }
    for (int oy = 0; oy < oh; ++oy) {
      const float* window =
          plane + static_cast<long long>(oy) * stride * plane_row;
      for (int ox = 0; ox < ow; ++ox, window += stride * c) {
        const float* taps = window;
        for (int ky = 0; ky < kh; ++ky, taps += plane_row, row += run) {
          CopyRun(taps, row, run);
        }
      }
    }
  }
}

#else  // !VSD_SIMD_VECTOR_EXT — forward to scalar so the symbols exist.

bool Available() { return false; }

void MatMulInto(const float* a, const float* b, float* out, int m, int k,
                int n) {
  scalar::MatMulInto(a, b, out, m, k, n);
}
void MatMulTransAInto(const float* a, const float* b, float* out, int m,
                      int k, int n) {
  scalar::MatMulTransAInto(a, b, out, m, k, n);
}
void MatMulI8Into(const float* a, const int8_t* bq, const float* bscale,
                  const int32_t* bzero, float* out, int m, int k, int n) {
  scalar::MatMulI8Into(a, bq, bscale, bzero, out, m, k, n);
}
void AddRowsInto(const float* a, const float* bias, float* out, int rows,
                 int cols) {
  scalar::AddRowsInto(a, bias, out, rows, cols);
}
void ReluInto(const float* x, float* out, int n) {
  scalar::ReluInto(x, out, n);
}
void GeluInto(const float* x, float* out, int n) {
  scalar::GeluInto(x, out, n);
}
void ConcatRowsInto(const float* a, const float* b, float* out, int rows,
                    int da, int db) {
  scalar::ConcatRowsInto(a, b, out, rows, da, db);
}
void Im2ColInto(const float* x, float* out, int n, int h, int w, int c,
                int kh, int kw, int stride, int pad, float* plane) {
  scalar::Im2ColInto(x, out, n, h, w, c, kh, kw, stride, pad, plane);
}

#endif  // VSD_SIMD_VECTOR_EXT

}  // namespace vsd::tensor::kernels::VSD_SIMD_NAMESPACE
