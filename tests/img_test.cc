#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.h"
#include "img/image.h"
#include "img/slic.h"

namespace vsd::img {
namespace {

TEST(ImageTest, ConstructionAndAccess) {
  Image image(4, 3);
  EXPECT_EQ(image.width(), 4);
  EXPECT_EQ(image.height(), 3);
  EXPECT_EQ(image.size(), 12);
  image.at(2, 3) = 0.5f;
  EXPECT_EQ(image.at(2, 3), 0.5f);
  EXPECT_EQ(image.pixels()[2 * 4 + 3], 0.5f);
}

TEST(ImageTest, ConstantFill) {
  Image image(2, 2, 0.7f);
  EXPECT_NEAR(image.MeanValue(), 0.7f, 1e-6f);
}

TEST(ImageTest, ClampedReads) {
  Image image(2, 2);
  image.at(0, 0) = 1.0f;
  EXPECT_EQ(image.AtClamped(-5, -5), 1.0f);
  EXPECT_EQ(image.AtClamped(10, 0), image.at(1, 0));
}

TEST(ImageTest, ClampValues) {
  Image image(1, 2);
  image.at(0, 0) = -0.5f;
  image.at(0, 1) = 1.5f;
  image.ClampValues();
  EXPECT_EQ(image.at(0, 0), 0.0f);
  EXPECT_EQ(image.at(0, 1), 1.0f);
}

TEST(DrawTest, FillEllipseCoversCenter) {
  Image image(20, 20);
  FillEllipse(&image, 10, 10, 5, 3, 1.0f);
  EXPECT_EQ(image.at(10, 10), 1.0f);
  EXPECT_EQ(image.at(10, 14), 1.0f);  // inside rx
  EXPECT_EQ(image.at(10, 16), 0.0f);  // outside rx
  EXPECT_EQ(image.at(14, 10), 0.0f);  // outside ry
}

TEST(DrawTest, LineConnectsEndpoints) {
  Image image(20, 20);
  DrawLine(&image, 2, 2, 17, 17, 1.0f, 1.0f);
  EXPECT_GT(image.at(2, 2), 0.0f);
  EXPECT_GT(image.at(17, 17), 0.0f);
  EXPECT_GT(image.at(10, 10), 0.0f);  // on the diagonal
  EXPECT_EQ(image.at(2, 17), 0.0f);   // far off the line
}

TEST(DrawTest, QuadCurvePassesThroughEndpoints) {
  Image image(30, 30);
  DrawQuadCurve(&image, 5, 20, 15, 0, 25, 20, 1.0f, 1.0f);
  EXPECT_GT(image.at(20, 5), 0.0f);
  EXPECT_GT(image.at(20, 25), 0.0f);
  // The curve bends toward the control point: the midpoint is above y=20.
  EXPECT_GT(image.at(10, 15), 0.0f);
}

TEST(DrawTest, FillRectClips) {
  Image image(4, 4);
  FillRect(&image, -2, -2, 2, 2, 1.0f);
  EXPECT_EQ(image.at(0, 0), 1.0f);
  EXPECT_EQ(image.at(1, 1), 1.0f);
  EXPECT_EQ(image.at(2, 2), 0.0f);
}

TEST(FilterTest, GaussianNoiseChangesPixelsWithinBounds) {
  Image image(16, 16, 0.5f);
  Rng rng(3);
  AddGaussianNoise(&image, 0.1f, &rng);
  int changed = 0;
  for (float p : image.pixels()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
    changed += (p != 0.5f);
  }
  EXPECT_GT(changed, 200);
}

TEST(FilterTest, BlurPreservesConstantImage) {
  Image image(10, 10, 0.6f);
  Image blurred = GaussianBlur(image, 1.5f);
  for (float p : blurred.pixels()) EXPECT_NEAR(p, 0.6f, 1e-4f);
}

TEST(FilterTest, BlurSpreadsImpulse) {
  Image image(11, 11);
  image.at(5, 5) = 1.0f;
  Image blurred = GaussianBlur(image, 1.0f);
  EXPECT_LT(blurred.at(5, 5), 1.0f);
  EXPECT_GT(blurred.at(5, 6), 0.0f);
  EXPECT_GT(blurred.at(6, 5), 0.0f);
}

TEST(FilterTest, ResizePreservesConstant) {
  Image image(8, 8, 0.3f);
  Image resized(5, 11);
  ResizeInto(image, 5, 11, resized.mutable_pixels().data());
  EXPECT_EQ(resized.width(), 5);
  EXPECT_EQ(resized.height(), 11);
  for (float p : resized.pixels()) EXPECT_NEAR(p, 0.3f, 1e-5f);
}

TEST(FilterTest, ResizeDownPreservesMean) {
  Rng rng(4);
  Image image(32, 32);
  for (auto& p : image.mutable_pixels()) {
    p = static_cast<float>(rng.Uniform());
  }
  Image resized(16, 16);
  ResizeInto(image, 16, 16, resized.mutable_pixels().data());
  EXPECT_NEAR(resized.MeanValue(), image.MeanValue(), 0.03f);
}

/// Bilinear resize straight from the per-pixel formula: the reference that
/// ResizeInto, which computes each column's taps and weights once, must
/// match bit for bit.
Image ResizeReference(const Image& image, int new_width, int new_height) {
  Image out(new_width, new_height);
  const float sx = static_cast<float>(image.width()) / new_width;
  const float sy = static_cast<float>(image.height()) / new_height;
  for (int y = 0; y < new_height; ++y) {
    for (int x = 0; x < new_width; ++x) {
      const float fy = (y + 0.5f) * sy - 0.5f;
      const float fx = (x + 0.5f) * sx - 0.5f;
      const int y0 = static_cast<int>(std::floor(fy));
      const int x0 = static_cast<int>(std::floor(fx));
      const float wy = fy - y0;
      const float wx = fx - x0;
      out.at(y, x) = (1 - wy) * ((1 - wx) * image.AtClamped(y0, x0) +
                                 wx * image.AtClamped(y0, x0 + 1)) +
                     wy * ((1 - wx) * image.AtClamped(y0 + 1, x0) +
                           wx * image.AtClamped(y0 + 1, x0 + 1));
    }
  }
  return out;
}

TEST(FilterTest, ResizeIntoMatchesPerPixelFormulaBitwise) {
  struct Case {
    int width, height, new_width, new_height;
  };
  // The vision tower's 96->48, a non-integer ratio, an upsample, a tiny
  // odd one, a same-size one and a non-square one.
  const Case cases[] = {{96, 96, 48, 48}, {96, 96, 40, 40}, {48, 48, 96, 96},
                        {7, 7, 3, 3},     {48, 48, 48, 48}, {7, 5, 3, 4}};
  Rng rng(6);
  for (const Case& c : cases) {
    Image image(c.width, c.height);
    for (auto& p : image.mutable_pixels()) {
      p = static_cast<float>(rng.Uniform());
    }
    const Image expected = ResizeReference(image, c.new_width, c.new_height);
    const size_t size = expected.pixels().size();
    std::vector<float> into(size, -7.5f);  // Dirty: every float is written.
    ResizeInto(image, c.new_width, c.new_height, into.data());
    EXPECT_EQ(0, std::memcmp(into.data(), expected.pixels().data(),
                             size * sizeof(float)))
        << c.width << "x" << c.height << " -> " << c.new_width << "x"
        << c.new_height;
  }
}

TEST(MaskTest, NoiseMaskedRegionOnlyTouchesMask) {
  Image image(8, 8, 0.5f);
  std::vector<uint8_t> mask(64, 0);
  for (int x = 0; x < 8; ++x) mask[x] = 1;  // first row only
  Rng rng(5);
  NoiseMaskedRegion(&image, mask, 0.3f, &rng);
  for (int y = 1; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) EXPECT_EQ(image.at(y, x), 0.5f);
  }
  int changed = 0;
  for (int x = 0; x < 8; ++x) changed += (image.at(0, x) != 0.5f);
  EXPECT_GT(changed, 4);
}

TEST(MaskTest, MeanFillSetsMaskToMean) {
  Image image(2, 2);
  image.at(0, 0) = 1.0f;  // mean = 0.25
  std::vector<uint8_t> mask = {1, 0, 0, 0};
  MeanFillMaskedRegion(&image, mask);
  EXPECT_NEAR(image.at(0, 0), 0.25f, 1e-6f);
  EXPECT_EQ(image.at(1, 1), 0.0f);
}

TEST(MaskTest, MosaicAveragesBlocks) {
  Image image(4, 4);
  // Left half bright, right half dark; mosaic with block 4 over full mask.
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 2; ++x) image.at(y, x) = 1.0f;
  }
  std::vector<uint8_t> mask(16, 1);
  MosaicMaskedRegion(&image, mask, 4);
  for (float p : image.pixels()) EXPECT_NEAR(p, 0.5f, 1e-6f);
}

TEST(SlicTest, LabelsAreContiguousAndCoverImage) {
  Rng rng(6);
  Image image(48, 48);
  for (auto& p : image.mutable_pixels()) {
    p = static_cast<float>(rng.Uniform());
  }
  Segmentation seg = Slic(image, 16);
  EXPECT_EQ(static_cast<int>(seg.labels.size()), 48 * 48);
  std::set<int> seen(seg.labels.begin(), seg.labels.end());
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), seg.num_segments - 1);
  EXPECT_EQ(static_cast<int>(seen.size()), seg.num_segments);
  EXPECT_GE(seg.num_segments, 8);
}

TEST(SlicTest, SegmentsAreSpatiallyCoherent) {
  // A flat image should yield roughly grid-like segments; each segment's
  // pixels should be near its centroid.
  Image image(32, 32, 0.5f);
  Segmentation seg = Slic(image, 16);
  for (int s = 0; s < seg.num_segments; ++s) {
    auto [cy, cx] = seg.SegmentCentroid(s);
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        if (seg.LabelAt(y, x) != s) continue;
        EXPECT_LT(std::abs(y - cy) + std::abs(x - cx), 24.0f);
      }
    }
  }
}

TEST(SlicTest, RespectsIntensityBoundary) {
  // Two homogeneous halves: few segments should straddle the boundary.
  Image image(32, 32);
  for (int y = 0; y < 32; ++y) {
    for (int x = 16; x < 32; ++x) image.at(y, x) = 1.0f;
  }
  Segmentation seg = Slic(image, 8, /*compactness=*/5.0f);
  int straddlers = 0;
  for (int s = 0; s < seg.num_segments; ++s) {
    bool has_dark = false;
    bool has_bright = false;
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 32; ++x) {
        if (seg.LabelAt(y, x) != s) continue;
        (image.at(y, x) > 0.5f ? has_bright : has_dark) = true;
      }
    }
    straddlers += (has_dark && has_bright);
  }
  EXPECT_LE(straddlers, seg.num_segments / 2);
}

TEST(SlicTest, SegmentMaskMatchesSizes) {
  Image image(24, 24, 0.5f);
  Segmentation seg = Slic(image, 9);
  const auto sizes = seg.SegmentSizes();
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), 0), 24 * 24);
  for (int s = 0; s < seg.num_segments; ++s) {
    const auto mask = seg.SegmentMask(s);
    int count = 0;
    for (uint8_t m : mask) count += m;
    EXPECT_EQ(count, sizes[s]);
  }
}

TEST(SlicTest, RequestedSegmentCountApproximatelyHonored) {
  Image image(96, 96, 0.5f);
  Segmentation seg = Slic(image, 64);
  EXPECT_GE(seg.num_segments, 40);
  EXPECT_LE(seg.num_segments, 80);
}

}  // namespace
}  // namespace vsd::img
