#ifndef VSD_EXPLAIN_EXPLAINER_H_
#define VSD_EXPLAIN_EXPLAINER_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "img/image.h"
#include "img/slic.h"

namespace vsd::explain {

/// A black-box image classifier: returns p(stressed) for a (possibly
/// perturbed) expressive frame. The non-perturbed inputs (neutral frame,
/// description, ...) are closed over by the caller.
using ClassifierFn = std::function<double(const img::Image&)>;

/// Batched black-box classifier: p(stressed) per image, entry i
/// bit-identical to the single-image call on `images[i]`. This is the
/// explainers' native query surface — perturbation sets are evaluated one
/// batch forward at a time instead of one image at a time.
using BatchClassifierFn =
    std::function<std::vector<double>(std::span<const img::Image>)>;

/// Wraps a single-image classifier as a (looping) batch classifier; the
/// back-compat adapter behind `Explainer::Explain(ClassifierFn, ...)`.
BatchClassifierFn ToBatchClassifier(ClassifierFn classifier);

/// Attribution over superpixel segments, higher = more important.
struct Attribution {
  std::vector<double> segment_scores;  ///< One score per segment.
  int64_t model_evaluations = 0;       ///< Black-box calls consumed.

  /// Segments sorted by descending score.
  std::vector<int> RankedSegments() const;
};

/// \brief Interface of a post-hoc segment-attribution explainer.
///
/// All three baselines (LIME, KernelSHAP, SOBOL) perturb the image over a
/// SLIC segmentation and fit attribution scores from the classifier's
/// responses; they differ in the sampling scheme and estimator.
class Explainer {
 public:
  virtual ~Explainer() = default;

  virtual std::string name() const = 0;

  /// Explains `classifier` at `image` over the given segmentation.
  /// Perturbations are generated per-index (one forked stream each) and
  /// evaluated in batches of `DefaultBatchSize()`, so attributions are
  /// bit-identical at every batch size and thread count.
  virtual Attribution Explain(const BatchClassifierFn& classifier,
                              const img::Image& image,
                              const img::Segmentation& segmentation,
                              Rng* rng) const = 0;

  /// Back-compat single-image entry point: adapts `classifier` with
  /// `ToBatchClassifier` and runs the batched overload. Derived classes
  /// re-expose it with `using Explainer::Explain;`.
  Attribution Explain(const ClassifierFn& classifier,
                      const img::Image& image,
                      const img::Segmentation& segmentation,
                      Rng* rng) const {
    return Explain(ToBatchClassifier(classifier), image, segmentation, rng);
  }
};

/// Replaces every masked-out segment (mask bit 0) by the image mean; the
/// shared perturbation operator of LIME/SHAP/SOBOL.
img::Image ApplySegmentMask(const img::Image& image,
                            const img::Segmentation& segmentation,
                            const std::vector<float>& keep);

/// As above with the mean given: `image_mean` must be `image.MeanValue()`.
/// An explainer perturbs one image many times, so it computes the mean
/// once per Explain rather than once per perturbation.
img::Image ApplySegmentMask(const img::Image& image,
                            const img::Segmentation& segmentation,
                            const std::vector<float>& keep, float image_mean);

}  // namespace vsd::explain

#endif  // VSD_EXPLAIN_EXPLAINER_H_
