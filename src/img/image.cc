#include "img/image.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace vsd::img {

Image::Image(int width, int height)
    : width_(width), height_(height), pixels_(width * height, 0.0f) {
  VSD_CHECK(width >= 0 && height >= 0) << "negative image size";
}

Image::Image(int width, int height, float value)
    : width_(width), height_(height), pixels_(width * height, value) {}

float Image::AtClamped(int y, int x) const {
  y = std::clamp(y, 0, height_ - 1);
  x = std::clamp(x, 0, width_ - 1);
  return at(y, x);
}

void Image::ClampValues() {
  for (auto& p : pixels_) p = std::clamp(p, 0.0f, 1.0f);
}

float Image::MeanValue() const {
  if (pixels_.empty()) return 0.0f;
  double sum = 0.0;
  for (float p : pixels_) sum += p;
  return static_cast<float>(sum / pixels_.size());
}

std::string Image::ToAscii() const {
  static const char* kRamp = " .:-=+*#%@";
  const int cols = std::min(width_, 40);
  const int rows = std::min(height_, 20);
  std::string out;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int y = r * height_ / rows;
      const int x = c * width_ / cols;
      const int level =
          std::clamp(static_cast<int>(at(y, x) * 9.99f), 0, 9);
      out += kRamp[level];
    }
    out += '\n';
  }
  return out;
}

void FillEllipse(Image* image, float cx, float cy, float rx, float ry,
                 float value) {
  if (rx <= 0.0f || ry <= 0.0f) return;
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - ry)));
  const int y1 =
      std::min(image->height() - 1, static_cast<int>(std::ceil(cy + ry)));
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - rx)));
  const int x1 =
      std::min(image->width() - 1, static_cast<int>(std::ceil(cx + rx)));
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const float dx = (x - cx) / rx;
      const float dy = (y - cy) / ry;
      if (dx * dx + dy * dy <= 1.0f) image->at(y, x) = value;
    }
  }
}

namespace {

void StampDisk(Image* image, float cx, float cy, float radius, float value) {
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - radius)));
  const int y1 = std::min(image->height() - 1,
                          static_cast<int>(std::ceil(cy + radius)));
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - radius)));
  const int x1 =
      std::min(image->width() - 1, static_cast<int>(std::ceil(cx + radius)));
  const float r2 = radius * radius;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const float dx = x - cx;
      const float dy = y - cy;
      if (dx * dx + dy * dy <= r2) image->at(y, x) = value;
    }
  }
}

}  // namespace

void DrawLine(Image* image, float x0, float y0, float x1, float y1,
              float thickness, float value) {
  const float dx = x1 - x0;
  const float dy = y1 - y0;
  const float len = std::sqrt(dx * dx + dy * dy);
  const int steps = std::max(1, static_cast<int>(len * 2.0f));
  const float radius = std::max(0.5f, thickness * 0.5f);
  for (int i = 0; i <= steps; ++i) {
    const float t = static_cast<float>(i) / steps;
    StampDisk(image, x0 + t * dx, y0 + t * dy, radius, value);
  }
}

void DrawQuadCurve(Image* image, float x0, float y0, float cx, float cy,
                   float x1, float y1, float thickness, float value) {
  const int steps = 48;
  const float radius = std::max(0.5f, thickness * 0.5f);
  for (int i = 0; i <= steps; ++i) {
    const float t = static_cast<float>(i) / steps;
    const float mt = 1.0f - t;
    const float x = mt * mt * x0 + 2.0f * mt * t * cx + t * t * x1;
    const float y = mt * mt * y0 + 2.0f * mt * t * cy + t * t * y1;
    StampDisk(image, x, y, radius, value);
  }
}

void FillRect(Image* image, int x0, int y0, int x1, int y1, float value) {
  y0 = std::max(0, y0);
  x0 = std::max(0, x0);
  y1 = std::min(image->height(), y1);
  x1 = std::min(image->width(), x1);
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) image->at(y, x) = value;
  }
}

void AddGaussianNoise(Image* image, float stddev, Rng* rng) {
  for (auto& p : image->mutable_pixels()) {
    p += static_cast<float>(rng->Normal(0.0, stddev));
  }
  image->ClampValues();
}

Image GaussianBlur(const Image& image, float sigma) {
  if (sigma <= 0.0f || image.empty()) return image;
  const int radius = std::max(1, static_cast<int>(std::ceil(2.5f * sigma)));
  std::vector<float> kernel(2 * radius + 1);
  float sum = 0.0f;
  for (int i = -radius; i <= radius; ++i) {
    kernel[i + radius] = std::exp(-0.5f * i * i / (sigma * sigma));
    sum += kernel[i + radius];
  }
  for (auto& k : kernel) k /= sum;

  Image horizontal(image.width(), image.height());
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      float acc = 0.0f;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[i + radius] * image.AtClamped(y, x + i);
      }
      horizontal.at(y, x) = acc;
    }
  }
  Image out(image.width(), image.height());
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      float acc = 0.0f;
      for (int i = -radius; i <= radius; ++i) {
        acc += kernel[i + radius] * horizontal.AtClamped(y + i, x);
      }
      out.at(y, x) = acc;
    }
  }
  return out;
}

void ResizeInto(const Image& image, int new_width, int new_height,
                float* out) {
  VSD_CHECK(new_width > 0 && new_height > 0) << "Resize to empty";
  const int width = image.width();
  const int height = image.height();
  const float sx = static_cast<float>(width) / new_width;
  const float sy = static_cast<float>(height) / new_height;
  // Output column x blends source columns x0 and x1 (clamped to the
  // image) with weights 1 - wx and wx.
  struct ColumnTaps {
    int x0, x1;
    float w0, w1;
  };
  std::vector<ColumnTaps> columns(new_width);
  for (int x = 0; x < new_width; ++x) {
    const float fx = (x + 0.5f) * sx - 0.5f;
    const int x0 = static_cast<int>(std::floor(fx));
    const float wx = fx - x0;
    columns[x] = {std::clamp(x0, 0, width - 1),
                  std::clamp(x0 + 1, 0, width - 1), 1 - wx, wx};
  }
  const float* pixels = image.pixels().data();
  for (int y = 0; y < new_height; ++y) {
    const float fy = (y + 0.5f) * sy - 0.5f;
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = fy - y0;
    const float* row0 =
        pixels + static_cast<size_t>(std::clamp(y0, 0, height - 1)) * width;
    const float* row1 =
        pixels + static_cast<size_t>(std::clamp(y0 + 1, 0, height - 1)) * width;
    float* dst = out + static_cast<size_t>(y) * new_width;
    for (int x = 0; x < new_width; ++x) {
      const ColumnTaps& t = columns[x];
      dst[x] = (1 - wy) * (t.w0 * row0[t.x0] + t.w1 * row0[t.x1]) +
               wy * (t.w0 * row1[t.x0] + t.w1 * row1[t.x1]);
    }
  }
}

void NoiseMaskedRegion(Image* image, const std::vector<uint8_t>& mask,
                       float stddev, Rng* rng) {
  VSD_CHECK(static_cast<int>(mask.size()) == image->size())
      << "mask size mismatch";
  auto& pixels = image->mutable_pixels();
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      pixels[i] = std::clamp(
          pixels[i] + static_cast<float>(rng->Normal(0.0, stddev)), 0.0f,
          1.0f);
    }
  }
}

void RandomizeMaskedRegion(Image* image, const std::vector<uint8_t>& mask,
                           float stddev, Rng* rng) {
  VSD_CHECK(static_cast<int>(mask.size()) == image->size())
      << "mask size mismatch";
  auto& pixels = image->mutable_pixels();
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      pixels[i] = std::clamp(
          0.5f + static_cast<float>(rng->Normal(0.0, stddev)), 0.0f, 1.0f);
    }
  }
}

void MeanFillMaskedRegion(Image* image, const std::vector<uint8_t>& mask) {
  VSD_CHECK(static_cast<int>(mask.size()) == image->size())
      << "mask size mismatch";
  const float mean = image->MeanValue();
  auto& pixels = image->mutable_pixels();
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) pixels[i] = mean;
  }
}

void MosaicMaskedRegion(Image* image, const std::vector<uint8_t>& mask,
                        int block) {
  VSD_CHECK(static_cast<int>(mask.size()) == image->size())
      << "mask size mismatch";
  VSD_CHECK(block > 0) << "mosaic block must be positive";
  const int w = image->width();
  const int h = image->height();
  for (int by = 0; by < h; by += block) {
    for (int bx = 0; bx < w; bx += block) {
      float sum = 0.0f;
      int count = 0;
      for (int y = by; y < std::min(by + block, h); ++y) {
        for (int x = bx; x < std::min(bx + block, w); ++x) {
          sum += image->at(y, x);
          ++count;
        }
      }
      const float avg = count > 0 ? sum / count : 0.0f;
      for (int y = by; y < std::min(by + block, h); ++y) {
        for (int x = bx; x < std::min(bx + block, w); ++x) {
          if (mask[y * w + x]) image->at(y, x) = avg;
        }
      }
    }
  }
}

}  // namespace vsd::img
