#include "workload.h"

#include "vlm/api_models.h"

namespace vsd::benchmark {

// The benchmark builds its inputs and model here instead of linking
// bench/harness: the inputs must stay fixed when bench/ changes. A cache
// added behind the harness (an on-disk model or dataset cache, say) would
// otherwise quietly turn set-up into a cache read and zero `setup_s`.

namespace {
constexpr uint64_t kBackboneSeed = 20250601;
}  // namespace

std::unique_ptr<vlm::FoundationModel> PretrainBackbone() {
  vlm::ApiModelSpec spec = vlm::BackboneInitSpec();
  spec.pretrain_epochs = 4;
  spec.corpus_size = 300;
  auto model = std::make_unique<vlm::FoundationModel>(spec.config);
  vlm::PretrainGeneralist(model.get(), spec, kBackboneSeed);
  return model;
}

cot::ChainConfig QuickChainConfig() {
  cot::ChainConfig chain;
  chain.describe_epochs = 6;
  chain.describe_augment_copies = 1;
  chain.assess_epochs = 6;
  chain.max_refine_rounds = 1;
  chain.rationale_dpo_samples = 80;
  return chain;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "serve_open") return MakeServeOpen();
  if (name == "chain_cached") return MakeChainCached();
  if (name == "explain_fig6") return MakeExplainFig6();
  if (name == "train_chain") return MakeTrainChain();
  return nullptr;
}

}  // namespace vsd::benchmark
