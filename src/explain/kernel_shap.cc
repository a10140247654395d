#include "explain/kernel_shap.h"

#include <algorithm>
#include <cmath>

#include "common/batching.h"
#include "common/math_util.h"
#include "common/thread_pool.h"

namespace vsd::explain {

Attribution KernelShapExplainer::Explain(
    const BatchClassifierFn& classifier, const img::Image& image,
    const img::Segmentation& segmentation, Rng* rng) const {
  const int d = segmentation.num_segments;
  Attribution result;
  result.segment_scores.assign(d, 0.0);
  if (d < 2) return result;

  // Base values: empty and full coalitions, one two-image batch.
  const float image_mean = image.MeanValue();
  std::vector<img::Image> anchors;
  anchors.push_back(ApplySegmentMask(
      image, segmentation, std::vector<float>(d, 0.0f), image_mean));
  anchors.push_back(image);
  const std::vector<double> anchor_probs = classifier(anchors);
  const double f_empty = anchor_probs[0];
  const double f_full = anchor_probs[1];
  result.model_evaluations += 2;

  // Shapley-kernel weights by coalition size s in [1, d-1]:
  // w(s) = (d-1) / (C(d,s) * s * (d-s)); sampling sizes proportional to
  // s*(d-s) inverse is equivalent to weighting; we sample sizes from the
  // normalized kernel over sizes (the C(d,s) cancels when sampling
  // uniformly within a size class).
  std::vector<double> size_weights(d - 1);
  for (int s = 1; s <= d - 1; ++s) {
    size_weights[s - 1] = static_cast<double>(d - 1) /
                          (static_cast<double>(s) * (d - s));
  }

  // One child stream per sampled coalition, forked in index order from the
  // caller's stream (the fork order is the determinism contract, pinned in
  // tests/explain_test.cc); the coalition draw and the model query then
  // parallelize without changing any draw.
  const int num_coalitions = std::max(0, num_samples_ - 2);
  std::vector<Rng> streams;
  streams.reserve(num_coalitions);
  for (int i = 0; i < num_coalitions; ++i) streams.push_back(rng->Fork());

  std::vector<std::vector<float>> masks(num_coalitions);
  std::vector<double> responses(num_coalitions, 0.0);
  const int batch_size = DefaultBatchSize();
  ParallelFor(NumBatches(num_coalitions, batch_size), [&](int64_t b) {
    const auto [begin, end] = BatchBounds(num_coalitions, batch_size, b);
    std::vector<img::Image> perturbed;
    // Per-batch staging buffer: sized once per chunk, not per sample.
    // vsd-lint: allow(hot-path-alloc)
    perturbed.reserve(end - begin);
    for (int64_t i = begin; i < end; ++i) {
      Rng& stream = streams[i];
      const int size = 1 + stream.SampleIndex(size_weights);
      const std::vector<int> chosen =
          stream.SampleWithoutReplacement(d, size);
      std::vector<float> keep(d, 0.0f);
      for (int j : chosen) keep[j] = 1.0f;
      // Appends into the pre-reserved batch buffer; capacity never grows.
      // vsd-lint: allow(hot-path-alloc)
      perturbed.push_back(
          ApplySegmentMask(image, segmentation, keep, image_mean));
      masks[i] = std::move(keep);
    }
    const std::vector<double> batch_responses = classifier(perturbed);
    for (int64_t i = begin; i < end; ++i) {
      responses[i] = batch_responses[i - begin];
    }
  });
  result.model_evaluations += num_coalitions;

  // Weighted least squares for phi with intercept phi0 tied to f_empty:
  // model y - f_empty = sum_j z_j * phi_j. Sampling already followed the
  // kernel over sizes, so each sampled row gets unit weight.
  std::vector<std::vector<double>> xtx(d, std::vector<double>(d, 0.0));
  std::vector<double> xty(d, 0.0);
  for (size_t s = 0; s < masks.size(); ++s) {
    const auto& z = masks[s];
    const double y = responses[s] - f_empty;
    for (int j = 0; j < d; ++j) {
      if (z[j] == 0.0f) continue;
      xty[j] += y;
      for (int k = j; k < d; ++k) {
        if (z[k] == 0.0f) continue;
        xtx[j][k] += 1.0;
        if (k != j) xtx[k][j] += 1.0;
      }
    }
  }
  // Soft efficiency constraint: sum(phi) ~= f_full - f_empty with a large
  // weight, implemented as an extra all-ones row.
  const double kConstraintWeight = 64.0;
  const double y_full = f_full - f_empty;
  for (int j = 0; j < d; ++j) {
    xty[j] += kConstraintWeight * y_full;
    for (int k = 0; k < d; ++k) xtx[j][k] += kConstraintWeight;
  }
  for (int j = 0; j < d; ++j) xtx[j][j] += ridge_lambda_;
  std::vector<double> phi = xty;
  if (SolveLinearSystem(&xtx, &phi)) {
    result.segment_scores = phi;
  }
  return result;
}

}  // namespace vsd::explain
