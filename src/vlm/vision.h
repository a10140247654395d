#ifndef VSD_VLM_VISION_H_
#define VSD_VLM_VISION_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "img/image.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace vsd::vlm {

/// \brief Convolutional vision encoder (the model's "vision tower").
///
/// 96x96 frames are downsampled to 48x48 and passed through two strided
/// convolutions and a projection, yielding a `dim()`-dimensional embedding
/// per frame. The tower is trained during Describe instruction tuning and
/// then frozen for the stress stage (as is standard for VLM fine-tuning),
/// which lets callers cache per-video features.
class VisionTower : public nn::Module {
 public:
  /// `input_size` is the square side the frames are resized to before the
  /// convolutions (the VLM uses 48; baseline towers use 32, matching their
  /// original coarser preprocessing).
  VisionTower(int embed_dim, Rng* rng, int input_size = 48);

  /// Differentiable forward over a batch packed as [N,input,input,1].
  nn::Var Forward(const nn::Var& images) const;

  /// Packs images into the [N,input,input,1] tensor (resizes as needed).
  tensor::Tensor PackImages(
      const std::vector<const img::Image*>& images) const;

  int input_size() const { return input_size_; }

  /// Inference-only batched embedding: N images -> [N, dim] tensor. One
  /// packed forward for the whole batch; row i is bit-identical to
  /// `Embed(*images[i])` (every op in the tower computes row i from row i
  /// alone).
  tensor::Tensor EncodeBatch(
      std::span<const img::Image* const> images) const;

  /// Inference-only batched pair embedding: N frame pairs (f_e, f_l) ->
  /// [N, 2*dim]. Packs all 2N frames into one forward; row i is
  /// bit-identical to `EmbedPair(*expressive[i], *neutral[i])`.
  tensor::Tensor EmbedPairs(
      std::span<const img::Image* const> expressive,
      std::span<const img::Image* const> neutral) const;

  /// Inference-only embedding of a single image -> [dim] tensor
  /// (batch-of-1 through EncodeBatch).
  tensor::Tensor Embed(const img::Image& image) const;

  /// Inference-only embedding of a frame pair (f_e, f_l) -> [2*dim]
  /// (batch-of-1 through EmbedPairs).
  tensor::Tensor EmbedPair(const img::Image& expressive,
                           const img::Image& neutral) const;

  // ---- Validated / fault-aware inference surface ----
  //
  // The serving layer reaches the tower through these: inputs are validated
  // (empty or non-finite frames -> InvalidArgument instead of a silent NaN
  // forward), injected corrupt-frame faults surface as InvalidArgument, and
  // injected NaN-activation faults poison the affected row and are caught
  // by a finiteness scan of the output (-> Internal), exactly as a genuine
  // numerical blow-up would be. The plain EncodeBatch/EmbedPairs above stay
  // validation-free: they are the trusted trainer/bench hot path.

  /// Validates an inference batch: every image non-null, non-empty, and
  /// all-finite. `InvalidArgument` names the offending batch index.
  static Status ValidateImages(std::span<const img::Image* const> images);

  /// Deterministic content key of a frame (FNV-1a over dimensions and
  /// pixel bit patterns); the fault-injection key for per-frame faults, so
  /// a given frame draws the same faults regardless of which batch, call
  /// order, or thread it arrives on.
  static uint64_t FrameKey(const img::Image& image);

  /// Non-OK iff an injected per-frame fault fires for this frame under the
  /// global FaultInjector: corrupt-frame -> InvalidArgument,
  /// nan-activation -> Internal. Pure in the frame content (via FrameKey),
  /// so callers upstream of a batched forward can predict — per sample —
  /// exactly which rows the tower would reject, and route around them.
  static Status ProbeFrameFaults(const img::Image& image);

  /// Validated, fault-checked EncodeBatch. On success the tensor is
  /// bit-identical to `EncodeBatch(images)` and guaranteed all-finite;
  /// otherwise returns the first failing row's status.
  vsd::Result<tensor::Tensor> TryEncodeBatch(
      std::span<const img::Image* const> images) const;

  /// Validated, fault-checked EmbedPairs; same contract as TryEncodeBatch.
  vsd::Result<tensor::Tensor> TryEmbedPairs(
      std::span<const img::Image* const> expressive,
      std::span<const img::Image* const> neutral) const;

  int dim() const { return embed_dim_; }

  std::vector<nn::Var> Parameters() const override;

  /// Drops the compiled encode graphs (and their pooled executors) so the
  /// next encode recompiles against the parameters' current dtypes. Call
  /// after mutating parameter storage in place (vlm/quantize.h).
  void InvalidateCompiledGraphs();

  /// Lowers `Forward` for batch size `n` onto a compiled graph (packed
  /// frames input -> [n, dim] embeddings); the compiled encode runs it.
  /// Public so tests can execute the tower's own graph directly.
  int BuildEncodeGraph(nn::graph::GraphBuilder* builder, int n) const;

 private:
  /// Shared implementation of EncodeBatch/EmbedPairs: N frames -> [N,dim]
  /// rows, through the compiled graph when `graph::GraphExecEnabled()`
  /// (bit-identical — both paths run the kernels in tensor/kernels.h) and
  /// the eager autograd forward otherwise.
  tensor::Tensor EncodeRows(
      const std::vector<const img::Image*>& frames) const;

  /// Packs images into `dst` (size n*input*input floats), resizing as
  /// needed; the writing twin of PackImages, usable on arena memory.
  void PackImagesInto(const std::vector<const img::Image*>& images,
                      float* dst) const;

  int embed_dim_;
  int input_size_;
  std::shared_ptr<nn::Conv2d> conv1_;  // 1 -> 8, /2
  std::shared_ptr<nn::Conv2d> conv2_;  // 8 -> 16, /2
  std::shared_ptr<nn::Linear> proj_;   // (input/4)^2*16 -> dim
  /// Per-batch-size compiled encode graphs with pooled executors (the
  /// explainers call EncodeBatch concurrently from a ThreadPool).
  mutable nn::graph::CompiledForward encode_forward_;
};

}  // namespace vsd::vlm

#endif  // VSD_VLM_VISION_H_
