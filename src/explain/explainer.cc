#include "explain/explainer.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/logging.h"

namespace vsd::explain {

BatchClassifierFn ToBatchClassifier(ClassifierFn classifier) {
  return [classifier =
              std::move(classifier)](std::span<const img::Image> images) {
    std::vector<double> probs;
    probs.reserve(images.size());
    for (const img::Image& image : images) probs.push_back(classifier(image));
    return probs;
  };
}

std::vector<int> Attribution::RankedSegments() const {
  std::vector<int> order(segment_scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    return segment_scores[a] > segment_scores[b];
  });
  return order;
}

img::Image ApplySegmentMask(const img::Image& image,
                            const img::Segmentation& segmentation,
                            const std::vector<float>& keep) {
  return ApplySegmentMask(image, segmentation, keep, image.MeanValue());
}

img::Image ApplySegmentMask(const img::Image& image,
                            const img::Segmentation& segmentation,
                            const std::vector<float>& keep, float image_mean) {
  VSD_CHECK(static_cast<int>(keep.size()) == segmentation.num_segments)
      << "keep vector size";
  img::Image out = image;
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      const int segment = segmentation.LabelAt(y, x);
      const float k = keep[segment];
      if (k < 1.0f) {
        out.at(y, x) = k * image.at(y, x) + (1.0f - k) * image_mean;
      }
    }
  }
  return out;
}

}  // namespace vsd::explain
