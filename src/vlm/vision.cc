#include "vlm/vision.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/faults.h"
#include "common/logging.h"
#include "tensor/autograd.h"

namespace vsd::vlm {

namespace ag = ::vsd::autograd;
using nn::Var;
using tensor::Tensor;

VisionTower::VisionTower(int embed_dim, Rng* rng, int input_size)
    : embed_dim_(embed_dim),
      input_size_(input_size),
      encode_forward_([this](nn::graph::GraphBuilder* builder, int n) {
        return BuildEncodeGraph(builder, n);
      }) {
  VSD_CHECK(input_size_ % 4 == 0) << "input size must be divisible by 4";
  conv1_ = std::make_shared<nn::Conv2d>(1, 8, /*kernel=*/5, /*stride=*/2,
                                        /*pad=*/2, rng);
  conv2_ = std::make_shared<nn::Conv2d>(8, 16, /*kernel=*/3, /*stride=*/2,
                                        /*pad=*/1, rng);
  const int spatial = input_size_ / 4;
  proj_ = std::make_shared<nn::Linear>(spatial * spatial * 16, embed_dim,
                                       rng);
}

Var VisionTower::Forward(const Var& images) const {
  VSD_CHECK(images.value().ndim() == 4) << "VisionTower input rank";
  VSD_CHECK(images.value().dim(1) == input_size_) << "VisionTower input size";
  const int n = images.value().dim(0);
  const int spatial = input_size_ / 4;
  Var h = ag::Relu(conv1_->Forward(images));   // /2
  h = ag::Relu(conv2_->Forward(h));            // /4
  h = ag::Reshape(h, {n, spatial * spatial * 16});
  return proj_->Forward(h);                    // [N,dim]
}

Tensor VisionTower::PackImages(
    const std::vector<const img::Image*>& images) const {
  const int n = static_cast<int>(images.size());
  Tensor packed({n, input_size_, input_size_, 1});
  PackImagesInto(images, packed.data());
  return packed;
}

void VisionTower::PackImagesInto(
    const std::vector<const img::Image*>& images, float* dst) const {
  const size_t frame_size = static_cast<size_t>(input_size_) * input_size_;
  for (size_t i = 0; i < images.size(); ++i) {
    const img::Image& image = *images[i];
    float* frame = dst + i * frame_size;
    if (image.width() == input_size_ && image.height() == input_size_) {
      std::memcpy(frame, image.pixels().data(), frame_size * sizeof(float));
    } else {
      img::ResizeInto(image, input_size_, input_size_, frame);
    }
  }
}

int VisionTower::BuildEncodeGraph(nn::graph::GraphBuilder* builder,
                                  int n) const {
  const int spatial = input_size_ / 4;
  const int x = builder->Input({n, input_size_, input_size_, 1});
  int h = builder->Relu(conv1_->BuildGraph(builder, x));   // /2
  h = builder->Relu(conv2_->BuildGraph(builder, h));       // /4
  h = builder->Reshape(h, {n, spatial * spatial * 16});
  return proj_->BuildGraph(builder, h);                    // [N,dim]
}

Tensor VisionTower::EncodeRows(
    const std::vector<const img::Image*>& frames) const {
  const int n = static_cast<int>(frames.size());
  Tensor rows({n, embed_dim_});
  if (n == 0) return rows;
  if (nn::graph::GraphExecEnabled()) {
    nn::graph::CompiledForward::Lease lease = encode_forward_.Acquire(n);
    PackImagesInto(frames, lease->InputData(0));
    lease->Execute();
    std::memcpy(rows.data(), lease->OutputData(),
                static_cast<size_t>(n) * embed_dim_ * sizeof(float));
    return rows;
  }
  Var out = Forward(Var(PackImages(frames)));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < embed_dim_; ++j) {
      rows.at(i, j) = out.value().at(i, j);
    }
  }
  return rows;
}

Tensor VisionTower::EncodeBatch(
    std::span<const img::Image* const> images) const {
  return EncodeRows({images.begin(), images.end()});
}

Tensor VisionTower::EmbedPairs(
    std::span<const img::Image* const> expressive,
    std::span<const img::Image* const> neutral) const {
  VSD_CHECK(expressive.size() == neutral.size()) << "EmbedPairs size";
  const int n = static_cast<int>(expressive.size());
  // One packed forward over the 2N frames, (f_e, f_l) interleaved so that
  // rows (2i, 2i+1) hold sample i's pair.
  std::vector<const img::Image*> frames;
  frames.reserve(2 * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    frames.push_back(expressive[i]);
    frames.push_back(neutral[i]);
  }
  Tensor out = EncodeRows(frames);
  Tensor pairs({n, 2 * embed_dim_});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < embed_dim_; ++j) {
      pairs.at(i, j) = out.at(2 * i, j);
      pairs.at(i, embed_dim_ + j) = out.at(2 * i + 1, j);
    }
  }
  return pairs;
}

Tensor VisionTower::Embed(const img::Image& image) const {
  const img::Image* one[] = {&image};
  return EncodeBatch(one).Row(0);
}

Tensor VisionTower::EmbedPair(const img::Image& expressive,
                              const img::Image& neutral) const {
  const img::Image* e[] = {&expressive};
  const img::Image* l[] = {&neutral};
  return EmbedPairs(e, l).Row(0);
}

Status VisionTower::ValidateImages(
    std::span<const img::Image* const> images) {
  for (size_t i = 0; i < images.size(); ++i) {
    if (images[i] == nullptr) {
      return Status::InvalidArgument("image " + std::to_string(i) +
                                     " is null");
    }
    const img::Image& image = *images[i];
    if (image.width() <= 0 || image.height() <= 0) {
      return Status::InvalidArgument(
          "image " + std::to_string(i) + " is empty (" +
          std::to_string(image.width()) + "x" +
          std::to_string(image.height()) + ")");
    }
    for (float pixel : image.pixels()) {
      if (!std::isfinite(pixel)) {
        return Status::InvalidArgument("image " + std::to_string(i) +
                                       " has non-finite pixel values");
      }
    }
  }
  return Status::OK();
}

uint64_t VisionTower::FrameKey(const img::Image& image) {
  // FNV-1a over dims + pixel bit patterns: stable across runs, sensitive to
  // any content change, independent of batch composition and call order.
  uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](uint32_t word) {
    for (int b = 0; b < 4; ++b) {
      h ^= (word >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(static_cast<uint32_t>(image.width()));
  mix(static_cast<uint32_t>(image.height()));
  for (float pixel : image.pixels()) {
    uint32_t bits;
    std::memcpy(&bits, &pixel, sizeof(bits));
    mix(bits);
  }
  return h;
}

Status VisionTower::ProbeFrameFaults(const img::Image& image) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return Status::OK();
  const uint64_t key = FrameKey(image);
  if (injector.ShouldInject(FaultKind::kCorruptFrame, "vision.encode", key)) {
    return Status::InvalidArgument(
        "injected corrupt frame at vision.encode");
  }
  if (injector.ShouldInject(FaultKind::kNanActivation, "vision.encode",
                            key)) {
    return Status::Internal(
        "non-finite activation in vision tower output (injected)");
  }
  return Status::OK();
}

namespace {

/// Scans encoded rows for non-finite values; `poison_rows[i]` marks rows
/// whose activations were NaN-poisoned by fault injection.
Status CheckRowsFinite(tensor::Tensor* rows,
                       const std::vector<bool>& poison_rows, int dim) {
  for (size_t i = 0; i < poison_rows.size(); ++i) {
    if (!poison_rows[i]) continue;
    for (int j = 0; j < dim; ++j) {
      rows->at(static_cast<int>(i), j) =
          std::numeric_limits<float>::quiet_NaN();
    }
  }
  for (int i = 0; i < rows->dim(0); ++i) {
    for (int j = 0; j < dim; ++j) {
      if (!std::isfinite(rows->at(i, j))) {
        return Status::Internal(
            "non-finite activation in vision tower output row " +
            std::to_string(i) +
            (i < static_cast<int>(poison_rows.size()) && poison_rows[i]
                 ? " (injected)"
                 : ""));
      }
    }
  }
  return Status::OK();
}

}  // namespace

vsd::Result<Tensor> VisionTower::TryEncodeBatch(
    std::span<const img::Image* const> images) const {
  VSD_RETURN_IF_ERROR(ValidateImages(images));
  FaultInjector& injector = FaultInjector::Global();
  std::vector<bool> poison(images.size(), false);
  if (injector.enabled()) {
    for (size_t i = 0; i < images.size(); ++i) {
      const uint64_t key = FrameKey(*images[i]);
      if (injector.ShouldInject(FaultKind::kCorruptFrame, "vision.encode",
                                key)) {
        return Status::InvalidArgument("injected corrupt frame at row " +
                                       std::to_string(i));
      }
      poison[i] = injector.ShouldInject(FaultKind::kNanActivation,
                                        "vision.encode", key);
    }
  }
  Tensor rows = EncodeBatch(images);
  VSD_RETURN_IF_ERROR(CheckRowsFinite(&rows, poison, embed_dim_));
  return rows;
}

vsd::Result<Tensor> VisionTower::TryEmbedPairs(
    std::span<const img::Image* const> expressive,
    std::span<const img::Image* const> neutral) const {
  if (expressive.size() != neutral.size()) {
    return Status::InvalidArgument(
        "TryEmbedPairs: expressive/neutral size mismatch (" +
        std::to_string(expressive.size()) + " vs " +
        std::to_string(neutral.size()) + ")");
  }
  VSD_RETURN_IF_ERROR(ValidateImages(expressive));
  VSD_RETURN_IF_ERROR(ValidateImages(neutral));
  FaultInjector& injector = FaultInjector::Global();
  std::vector<bool> poison(expressive.size(), false);
  if (injector.enabled()) {
    for (size_t i = 0; i < expressive.size(); ++i) {
      for (const img::Image* frame : {expressive[i], neutral[i]}) {
        const uint64_t key = FrameKey(*frame);
        if (injector.ShouldInject(FaultKind::kCorruptFrame, "vision.encode",
                                  key)) {
          return Status::InvalidArgument("injected corrupt frame at pair " +
                                         std::to_string(i));
        }
        poison[i] = poison[i] || injector.ShouldInject(
                                     FaultKind::kNanActivation,
                                     "vision.encode", key);
      }
    }
  }
  Tensor pairs = EmbedPairs(expressive, neutral);
  VSD_RETURN_IF_ERROR(CheckRowsFinite(&pairs, poison, 2 * embed_dim_));
  return pairs;
}

std::vector<Var> VisionTower::Parameters() const {
  std::vector<Var> params;
  for (const auto& p : conv1_->Parameters()) params.push_back(p);
  for (const auto& p : conv2_->Parameters()) params.push_back(p);
  for (const auto& p : proj_->Parameters()) params.push_back(p);
  return params;
}

void VisionTower::InvalidateCompiledGraphs() { encode_forward_.Clear(); }

}  // namespace vsd::vlm
