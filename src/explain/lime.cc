#include "explain/lime.h"

#include <cmath>

#include "common/batching.h"
#include "common/math_util.h"
#include "common/thread_pool.h"

namespace vsd::explain {

Attribution LimeExplainer::Explain(const BatchClassifierFn& classifier,
                                   const img::Image& image,
                                   const img::Segmentation& segmentation,
                                   Rng* rng) const {
  const int d = segmentation.num_segments;
  Attribution result;
  result.segment_scores.assign(d, 0.0);

  // One child stream per perturbation, forked in index order from the
  // caller's stream. The fork order is the determinism contract (pinned in
  // tests/explain_test.cc): per-index streams make the evaluation batch
  // parallelizable while every draw stays identical to the serial run.
  std::vector<Rng> streams;
  streams.reserve(num_samples_);
  for (int s = 0; s < num_samples_; ++s) streams.push_back(rng->Fork());

  std::vector<std::vector<float>> masks(num_samples_);
  std::vector<double> responses(num_samples_, 0.0);
  std::vector<double> weights(num_samples_, 0.0);
  const float image_mean = image.MeanValue();

  // Batches parallelize across the pool; within a batch the perturbed
  // images are generated from their per-index streams and evaluated in a
  // single classifier call.
  const int batch_size = DefaultBatchSize();
  ParallelFor(NumBatches(num_samples_, batch_size), [&](int64_t b) {
    const auto [begin, end] = BatchBounds(num_samples_, batch_size, b);
    std::vector<img::Image> perturbed;
    // Per-batch staging buffer: sized once per chunk, not per sample.
    // vsd-lint: allow(hot-path-alloc)
    perturbed.reserve(end - begin);
    for (int64_t s = begin; s < end; ++s) {
      Rng& stream = streams[s];
      std::vector<float> keep(d);
      int kept = 0;
      for (int j = 0; j < d; ++j) {
        keep[j] = stream.Bernoulli(0.5) ? 1.0f : 0.0f;
        kept += keep[j] > 0.0f;
      }
      // Appends into the pre-reserved batch buffer; capacity never grows.
      // vsd-lint: allow(hot-path-alloc)
      perturbed.push_back(
          ApplySegmentMask(image, segmentation, keep, image_mean));
      // Exponential kernel on cosine distance to the all-ones mask:
      // cos(z, 1) = |z| / sqrt(|z| * d) = sqrt(|z| / d).
      const double cos_sim =
          kept > 0 ? std::sqrt(static_cast<double>(kept) / d) : 0.0;
      const double dist = 1.0 - cos_sim;
      weights[s] = std::exp(-(dist * dist) / (kernel_width_ * kernel_width_));
      masks[s] = std::move(keep);
    }
    const std::vector<double> batch_responses = classifier(perturbed);
    for (int64_t s = begin; s < end; ++s) {
      responses[s] = batch_responses[s - begin];
    }
  });
  result.model_evaluations += num_samples_;

  // Weighted ridge with intercept: features are [1, z_1..z_d]. Accumulated
  // serially in index order so the fit is bit-identical for every thread
  // count.
  const int p = d + 1;
  std::vector<std::vector<double>> xtx(p, std::vector<double>(p, 0.0));
  std::vector<double> xty(p, 0.0);
  for (size_t s = 0; s < masks.size(); ++s) {
    const double w = weights[s];
    const auto& z = masks[s];
    // Row vector x = (1, z); accumulate w * x^T x and w * x^T y.
    xtx[0][0] += w;
    xty[0] += w * responses[s];
    for (int j = 0; j < d; ++j) {
      if (z[j] == 0.0f) continue;
      xtx[0][j + 1] += w;
      xtx[j + 1][0] += w;
      xty[j + 1] += w * responses[s];
      for (int k = j; k < d; ++k) {
        if (z[k] == 0.0f) continue;
        xtx[j + 1][k + 1] += w;
        if (k != j) xtx[k + 1][j + 1] += w;
      }
    }
  }
  for (int j = 1; j < p; ++j) xtx[j][j] += ridge_lambda_;
  std::vector<double> beta = xty;
  if (SolveLinearSystem(&xtx, &beta)) {
    for (int j = 0; j < d; ++j) result.segment_scores[j] = beta[j + 1];
  }
  return result;
}

}  // namespace vsd::explain
