#include "explain/occlusion.h"

#include <cmath>

#include "common/batching.h"

namespace vsd::explain {

Attribution OcclusionExplainer::Explain(
    const BatchClassifierFn& classifier, const img::Image& image,
    const img::Segmentation& segmentation, Rng* rng) const {
  const int d = segmentation.num_segments;
  Attribution result;
  result.segment_scores.assign(d, 0.0);
  const double f_full =
      classifier(std::vector<img::Image>{image}).front();
  ++result.model_evaluations;
  const int batch_size = DefaultBatchSize();
  const float image_mean = image.MeanValue();
  for (int64_t b = 0; b < NumBatches(d, batch_size); ++b) {
    const auto [begin, end] = BatchBounds(d, batch_size, b);
    std::vector<img::Image> perturbed;
    perturbed.reserve(end - begin);
    for (int64_t j = begin; j < end; ++j) {
      std::vector<float> keep(d, 1.0f);
      keep[j] = 0.0f;
      perturbed.push_back(
          ApplySegmentMask(image, segmentation, keep, image_mean));
    }
    const std::vector<double> f = classifier(perturbed);
    for (int64_t j = begin; j < end; ++j) {
      result.segment_scores[j] = std::abs(f_full - f[j - begin]);
    }
    result.model_evaluations += end - begin;
  }
  return result;
}

}  // namespace vsd::explain
