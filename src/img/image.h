#ifndef VSD_IMG_IMAGE_H_
#define VSD_IMG_IMAGE_H_

#include <string>
#include <vector>

#include "common/rng.h"

namespace vsd::img {

/// \brief A grayscale float image with intensities in [0, 1], row-major.
///
/// The face renderer, the SLIC segmenter, the explainers, and every model's
/// vision path all operate on this type.
class Image {
 public:
  Image() = default;
  /// Black image of the given size.
  Image(int width, int height);
  /// Constant image.
  Image(int width, int height, float value);

  int width() const { return width_; }
  int height() const { return height_; }
  int size() const { return width_ * height_; }
  bool empty() const { return size() == 0; }

  float& at(int y, int x) { return pixels_[y * width_ + x]; }
  float at(int y, int x) const { return pixels_[y * width_ + x]; }

  /// Clamped read: out-of-bounds coordinates return the nearest edge pixel.
  float AtClamped(int y, int x) const;

  const std::vector<float>& pixels() const { return pixels_; }
  std::vector<float>& mutable_pixels() { return pixels_; }

  /// Clamps every pixel into [0, 1].
  void ClampValues();

  /// Mean intensity.
  float MeanValue() const;

  /// ASCII-art rendering for debugging (downsampled to ~40 cols).
  std::string ToAscii() const;

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<float> pixels_;
};

// ---- Drawing primitives (used by the parametric face renderer). ----

/// Fills an axis-aligned ellipse centered at (cx, cy).
void FillEllipse(Image* image, float cx, float cy, float rx, float ry,
                 float value);

/// Draws a line segment with the given thickness (in pixels).
void DrawLine(Image* image, float x0, float y0, float x1, float y1,
              float thickness, float value);

/// Draws a quadratic Bezier curve through control points with thickness.
void DrawQuadCurve(Image* image, float x0, float y0, float cx, float cy,
                   float x1, float y1, float thickness, float value);

/// Fills a rectangle [x0,x1) x [y0,y1).
void FillRect(Image* image, int x0, int y0, int x1, int y1, float value);

// ---- Filters / transforms. ----

/// Adds i.i.d. Gaussian noise with the given stddev, then clamps to [0,1].
void AddGaussianNoise(Image* image, float stddev, Rng* rng);

/// Separable Gaussian blur.
Image GaussianBlur(const Image& image, float sigma);

/// Bilinear resize into `out`: new_height rows of new_width floats,
/// row-major. Each output column's source taps and weights are computed
/// once per call, and no Image is built, so callers can resample straight
/// into a tensor.
void ResizeInto(const Image& image, int new_width, int new_height,
                float* out);

// ---- Masked perturbations (used by explainers & faithfulness eval). ----

/// Adds Gaussian noise only where mask != 0.
void NoiseMaskedRegion(Image* image, const std::vector<uint8_t>& mask,
                       float stddev, Rng* rng);

/// Replaces masked pixels by mid-gray Gaussian noise (signal destruction:
/// the segment's content is gone, not just jittered). This is the
/// perturbation used by the faithfulness protocol — additive noise alone
/// barely moves a compact robust model.
void RandomizeMaskedRegion(Image* image, const std::vector<uint8_t>& mask,
                           float stddev, Rng* rng);

/// Replaces masked pixels by the image mean ("gray-out" perturbation).
void MeanFillMaskedRegion(Image* image, const std::vector<uint8_t>& mask);

/// Pixelates (mosaics) masked pixels with `block`-sized cells.
void MosaicMaskedRegion(Image* image, const std::vector<uint8_t>& mask,
                        int block);

}  // namespace vsd::img

#endif  // VSD_IMG_IMAGE_H_
