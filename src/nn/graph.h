#ifndef VSD_NN_GRAPH_H_
#define VSD_NN_GRAPH_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "nn/arena.h"
#include "tensor/autograd.h"
#include "tensor/dtype.h"

namespace vsd::nn::graph {

// ---- Build-once / execute-many forward graphs ----
//
// The eager forward pass re-walks the autograd graph on every call,
// allocating a fresh Tensor per op node. For inference loops that repeat
// the same graph shape thousands of times (the chain pipeline, the
// explainers' perturbation batches), this module captures the forward once
// as a static, topologically ordered op list, plans every intermediate
// buffer into a single arena up front (first-use/last-use interval
// allocation with reuse — see nn/arena.h), and then executes with zero
// heap allocations per call.
//
// The compiled path runs the exact kernels the eager ops run
// (tensor/kernels.h), so its outputs are bit-identical to eager; eager
// stays the reference implementation behind `VSD_GRAPH_EXEC=0`.
// `tests/graph_exec_test.cc` pins both the equivalence and the
// zero-allocation contract.

/// Whether wired call sites should use compiled execution. Defaults to the
/// `VSD_GRAPH_EXEC` environment variable (unset or nonzero = on, "0" =
/// off); `SetGraphExecEnabled` overrides it at runtime.
bool GraphExecEnabled();
void SetGraphExecEnabled(bool enabled);

/// Op vocabulary of the compiled forward. Exactly the inference-path ops
/// of the model: conv towers (im2col + matmul + bias), MLP heads, the
/// residual trunk's GELU/concat, and the assess head's sigmoid posterior.
enum class OpKind {
  kInput,    ///< Written by the caller before Execute.
  kWeight,   ///< Live parameter handle; resolved to fresh data at Execute.
  kMatMul,   ///< [M,K]x[K,N] -> [M,N].
  kAddRows,  ///< Row-broadcast bias add: [N,D] + [D].
  kRelu,
  kGelu,
  kTanh,
  kSigmoid,
  kConcat,   ///< [N,D1] ++ [N,D2] -> [N,D1+D2] along axis 1.
  kIm2Col,   ///< NHWC [N,H,W,C] -> [N*OH*OW, kh*kw*C] patches.
  kReshape,  ///< View: shares the operand's buffer, no compute.
};

/// One node of the captured graph. Nodes are created in topological order
/// (operands must already exist), so node id order is execution order.
struct OpNode {
  OpKind kind = OpKind::kInput;
  std::vector<int> shape;  ///< Row-major output dims.
  int size = 0;            ///< Output element count.
  /// Storage dtype of the node's value. Non-weight nodes are always fp32
  /// (compute stays float); kWeight mirrors the parameter tensor's dtype,
  /// which is kI8 for quantized frozen weights (MatMul rhs only).
  tensor::DType dtype = tensor::DType::kF32;
  int a = -1;              ///< First operand node id (-1 if none).
  int b = -1;              ///< Second operand node id (-1 if none).
  int kh = 0, kw = 0, stride = 0, pad = 0;  ///< kIm2Col parameters.
  /// Floats of scratch the op needs while it runs (kIm2Col's plane). The
  /// plan gives it arena bytes live at this node's step alone.
  int scratch = 0;
  /// kWeight only: handle to the parameter node. The executor reads
  /// `weight.value().data()` on every Execute, so in-place optimizer
  /// updates are visible without recompiling.
  autograd::Var weight;
};

/// Records a forward pass as a static op list. Returned node ids are
/// indices into the growing graph; pass the final one to CompiledGraph.
class GraphBuilder {
 public:
  /// Declares a caller-written input of the given shape. Inputs are
  /// addressed by declaration order in GraphExecutor::InputData.
  int Input(std::vector<int> shape);
  /// Declares a constant parameter (not arena-planned, never copied).
  int Weight(const autograd::Var& param);

  int MatMul(int a, int b);
  /// `bias` must be 1-D [D] against a 2-D `a` [N,D].
  int AddRows(int a, int bias);
  int Relu(int a);
  int Gelu(int a);
  int Tanh(int a);
  int Sigmoid(int a);
  int Concat(int a, int b);
  int Im2Col(int x, int kh, int kw, int stride, int pad);
  /// Aliasing view: no buffer of its own, extends the operand's lifetime.
  int Reshape(int a, std::vector<int> shape);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const OpNode& node(int id) const;

 private:
  friend class CompiledGraph;

  int Append(OpNode node);
  const OpNode& Operand(int id) const;
  /// Operand that must hold fp32 data (everything except a MatMul rhs).
  const OpNode& F32Operand(int id) const;

  std::vector<OpNode> nodes_;
  std::vector<int> inputs_;  ///< Node ids of kInput, in declaration order.
};

/// Immutable compiled form of a captured graph: the op list plus the arena
/// plan (one offset per node). Shared by any number of executors — the
/// plan is read-only at Execute time, so executors on different threads
/// can share one CompiledGraph.
class CompiledGraph {
 public:
  /// Plans buffer lifetimes for `builder`'s graph with `output` as the
  /// root. Input buffers are live from before step 0; the output buffer
  /// stays live past the last step (the caller reads it after Execute).
  CompiledGraph(GraphBuilder builder, int output);

  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  const std::vector<int>& input_shape(int input_index) const;
  const std::vector<int>& output_shape() const { return nodes_[output_].shape; }
  int output_size() const { return nodes_[output_].size; }
  /// Total arena bytes an executor allocates once at construction. Byte
  /// sizing is per-dtype accurate (`DTypeSize`), not element-count based.
  size_t arena_bytes() const { return arena_bytes_; }

 private:
  friend class GraphExecutor;

  std::vector<OpNode> nodes_;
  std::vector<int> inputs_;
  int output_;
  std::vector<size_t> node_offset_;  ///< Arena offset (bytes) per node.
  /// Arena offset (bytes) of each node's scratch (0 when it has none).
  std::vector<size_t> scratch_offset_;
  size_t arena_bytes_ = 0;
};

/// Runs a CompiledGraph. Owns the arena (allocated once, in the
/// constructor); `Execute()` performs no heap allocations — the contract
/// `tests/graph_exec_test.cc` enforces with a counting allocator. Not
/// thread-safe: Execute writes the arena, so use one executor per thread
/// (CompiledForward pools them).
class GraphExecutor {
 public:
  explicit GraphExecutor(std::shared_ptr<const CompiledGraph> graph);

  const CompiledGraph& graph() const { return *graph_; }

  /// Arena pointer for input `input_index` (declaration order); write the
  /// packed input there before Execute.
  float* InputData(int input_index);

  /// Runs every op in topological order. Allocation-free.
  void Execute();

  /// Arena pointer to the output values (valid until the next Execute).
  const float* OutputData() const;

 private:
  const float* NodeData(int id) const;
  /// Byte offset -> arena pointer (offsets are 64-byte aligned, so the
  /// conversion to a float index is exact).
  float* ArenaAt(size_t byte_offset);
  const float* ArenaAt(size_t byte_offset) const;

  std::shared_ptr<const CompiledGraph> graph_;
  std::vector<float> arena_;
};

/// \brief The user-facing handle wired into model call sites.
///
/// Lazily compiles one graph per batch size (the only shape that varies at
/// a call site) and pools executors so concurrent callers — e.g. explainer
/// perturbation loops on a ThreadPool — each run on their own arena.
/// Acquire/release costs one mutex hop; Execute itself is lock-free.
class CompiledForward {
 public:
  /// Builds the graph for batch size `n` into the builder and returns the
  /// output node id.
  using BuildFn = std::function<int(GraphBuilder* builder, int n)>;

  CompiledForward() = default;
  explicit CompiledForward(BuildFn build) : build_(std::move(build)) {}

  CompiledForward(const CompiledForward&) = delete;
  CompiledForward& operator=(const CompiledForward&) = delete;

  /// RAII lease of a pooled executor; returns it on destruction.
  class Lease {
   public:
    Lease(CompiledForward* owner, int batch,
          std::unique_ptr<GraphExecutor> exec)
        : owner_(owner), batch_(batch), exec_(std::move(exec)) {}
    ~Lease();
    Lease(Lease&& other) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    GraphExecutor* operator->() const { return exec_.get(); }
    GraphExecutor& operator*() const { return *exec_; }

   private:
    CompiledForward* owner_;
    int batch_;
    std::unique_ptr<GraphExecutor> exec_;
  };

  /// Compiles the graph for `batch` on first use, then hands out a pooled
  /// (or freshly constructed) executor for it.
  Lease Acquire(int batch);

  /// Drops every compiled graph and pooled executor, forcing the next
  /// Acquire to rebuild. Call after anything the build function captures
  /// changes shape or dtype — e.g. quantizing a model's weights in place.
  /// Outstanding leases stay valid; their executors are discarded (not
  /// pooled) on release because they reference the dropped graphs.
  void Clear();

 private:
  struct Entry {
    std::shared_ptr<const CompiledGraph> compiled;
    std::vector<std::unique_ptr<GraphExecutor>> idle;
  };

  void Release(int batch, std::unique_ptr<GraphExecutor> exec);

  BuildFn build_;
  std::mutex mu_;
  std::unordered_map<int, Entry> entries_ VSD_GUARDED_BY(mu_);  // by batch
};

}  // namespace vsd::nn::graph

#endif  // VSD_NN_GRAPH_H_
