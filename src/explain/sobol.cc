#include "explain/sobol.h"

#include <cmath>

#include "common/batching.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace vsd::explain {

namespace {

/// First-n primes helper for Halton bases.
std::vector<int> FirstPrimes(int n) {
  std::vector<int> primes;
  int candidate = 2;
  while (static_cast<int>(primes.size()) < n) {
    bool is_prime = true;
    for (int p : primes) {
      if (p * p > candidate) break;
      if (candidate % p == 0) {
        is_prime = false;
        break;
      }
    }
    if (is_prime) primes.push_back(candidate);
    ++candidate;
  }
  return primes;
}

double RadicalInverse(int64_t index, int base) {
  double result = 0.0;
  double f = 1.0 / base;
  while (index > 0) {
    result += f * (index % base);
    index /= base;
    f /= base;
  }
  return result;
}

}  // namespace

QmcSequence::QmcSequence(int dim) : dim_(dim), bases_(FirstPrimes(dim)) {}

std::vector<double> QmcSequence::Point(int64_t index) const {
  std::vector<double> point(dim_);
  for (int j = 0; j < dim_; ++j) {
    point[j] = RadicalInverse(index + 1, bases_[j]);
  }
  return point;
}

Attribution SobolExplainer::Explain(const BatchClassifierFn& classifier,
                                    const img::Image& image,
                                    const img::Segmentation& segmentation,
                                    Rng* rng) const {
  const int d = segmentation.num_segments;
  const int n = num_designs_;
  Attribution result;
  result.segment_scores.assign(d, 0.0);

  // Two QMC designs A and B (Cranley-Patterson rotation from rng keeps
  // repeated calls decorrelated while preserving low discrepancy).
  QmcSequence sequence(2 * d);
  std::vector<double> shift(2 * d);
  for (auto& s : shift) s = rng->Uniform();

  std::vector<std::vector<float>> a_rows(n), b_rows(n);
  for (int i = 0; i < n; ++i) {
    const std::vector<double> point = sequence.Point(i);
    a_rows[i].resize(d);
    b_rows[i].resize(d);
    for (int j = 0; j < d; ++j) {
      a_rows[i][j] = static_cast<float>(std::fmod(point[j] + shift[j], 1.0));
      b_rows[i][j] =
          static_cast<float>(std::fmod(point[d + j] + shift[d + j], 1.0));
    }
  }

  // All rng draws happened above (the rotation), so the evaluation batches
  // below are rng-free and parallelize without touching any stream; per-
  // dimension accumulation stays serial in index order, keeping the
  // estimates bit-identical for every thread count and batch size.
  const int batch_size = DefaultBatchSize();
  const float image_mean = image.MeanValue();
  auto evaluate_rows =
      [&](const std::vector<std::vector<float>>& rows) {
        std::vector<double> f(rows.size());
        const int64_t total = static_cast<int64_t>(rows.size());
        ParallelFor(NumBatches(total, batch_size), [&](int64_t b) {
          const auto [begin, end] = BatchBounds(total, batch_size, b);
          std::vector<img::Image> perturbed;
          // Per-batch staging buffer: sized once per chunk, not per row.
          // vsd-lint: allow(hot-path-alloc)
          perturbed.reserve(end - begin);
          for (int64_t i = begin; i < end; ++i) {
            // Appends into the pre-reserved batch buffer above.
            // vsd-lint: allow(hot-path-alloc)
            perturbed.push_back(
                ApplySegmentMask(image, segmentation, rows[i], image_mean));
          }
          const std::vector<double> batch_f = classifier(perturbed);
          for (int64_t i = begin; i < end; ++i) f[i] = batch_f[i - begin];
        });
        return f;
      };

  // f(A) evaluations.
  const std::vector<double> f_a = evaluate_rows(a_rows);
  result.model_evaluations += n;
  double mean = 0.0;
  for (int i = 0; i < n; ++i) mean += f_a[i];
  mean /= n;
  double variance = 0.0;
  for (int i = 0; i < n; ++i) variance += (f_a[i] - mean) * (f_a[i] - mean);
  variance = variance / std::max(1, n - 1);
  // f(B) evaluations enter the variance pool for stability.
  const std::vector<double> f_b = evaluate_rows(b_rows);
  result.model_evaluations += n;
  (void)f_b;  // budgeted per the estimator's N*(d+2) protocol

  // Jansen total-order estimator: ST_j = E[(f(A) - f(A_B^j))^2] / (2 Var).
  ParallelFor(d, [&](int64_t j) {
    std::vector<std::vector<float>> rows = a_rows;
    for (int i = 0; i < n; ++i) rows[i][j] = b_rows[i][j];
    const std::vector<double> f_ab = evaluate_rows(rows);
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      acc += (f_a[i] - f_ab[i]) * (f_a[i] - f_ab[i]);
    }
    result.segment_scores[j] =
        variance > 1e-12 ? acc / (2.0 * n * variance) : 0.0;
  });
  result.model_evaluations += static_cast<int64_t>(d) * n;
  return result;
}

}  // namespace vsd::explain
