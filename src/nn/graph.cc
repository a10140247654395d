#include "nn/graph.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace vsd::nn::graph {

namespace k = ::vsd::tensor::kernels;

namespace {

int EnvGraphExec() {
  const char* env = std::getenv("VSD_GRAPH_EXEC");
  if (env == nullptr) return 1;
  return std::atoi(env) != 0 || env[0] == '\0' ? 1 : 0;
}

/// -1 = unset (fall back to the environment); set by SetGraphExecEnabled.
std::atomic<int>& OverrideSlot() {
  static std::atomic<int> override_flag{-1};
  return override_flag;
}

int ShapeSize(const std::vector<int>& shape) {
  int n = 1;
  for (int d : shape) {
    VSD_CHECK(d >= 0) << "negative graph dim " << d;
    n *= d;
  }
  return n;
}

}  // namespace

bool GraphExecEnabled() {
  const int override_flag = OverrideSlot().load(std::memory_order_relaxed);
  if (override_flag >= 0) return override_flag != 0;
  static const int env_flag = EnvGraphExec();
  return env_flag != 0;
}

void SetGraphExecEnabled(bool enabled) {
  OverrideSlot().store(enabled ? 1 : 0, std::memory_order_relaxed);
}

// ---- GraphBuilder ----

int GraphBuilder::Append(OpNode node) {
  node.size = ShapeSize(node.shape);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

const OpNode& GraphBuilder::node(int id) const { return Operand(id); }

const OpNode& GraphBuilder::Operand(int id) const {
  VSD_CHECK(id >= 0 && id < num_nodes()) << "graph node id " << id;
  return nodes_[id];
}

const OpNode& GraphBuilder::F32Operand(int id) const {
  const OpNode& node = Operand(id);
  // Compute stays fp32 everywhere; int8 weights are legal only as the
  // rhs of MatMul, where the fused kernel dequantizes inline.
  VSD_CHECK(node.dtype == tensor::DType::kF32)
      << "graph operand " << id << " must be f32, got "
      << tensor::DTypeName(node.dtype);
  return node;
}

int GraphBuilder::Input(std::vector<int> shape) {
  OpNode node;
  node.kind = OpKind::kInput;
  node.shape = std::move(shape);
  const int id = Append(std::move(node));
  inputs_.push_back(id);
  return id;
}

int GraphBuilder::Weight(const autograd::Var& param) {
  VSD_CHECK(param.defined()) << "graph weight is undefined";
  OpNode node;
  node.kind = OpKind::kWeight;
  node.shape = param.value().shape();
  node.dtype = param.value().dtype();
  node.weight = param;
  return Append(std::move(node));
}

int GraphBuilder::MatMul(int a, int b) {
  const OpNode& av = F32Operand(a);
  const OpNode& bv = Operand(b);  // rhs may be an int8 weight
  VSD_CHECK(av.shape.size() == 2 && bv.shape.size() == 2)
      << "graph MatMul requires 2-D";
  VSD_CHECK(av.shape[1] == bv.shape[0]) << "graph MatMul inner dim";
  OpNode node;
  node.kind = OpKind::kMatMul;
  node.shape = {av.shape[0], bv.shape[1]};
  node.a = a;
  node.b = b;
  return Append(std::move(node));
}

int GraphBuilder::AddRows(int a, int bias) {
  const OpNode& av = F32Operand(a);
  const OpNode& bv = F32Operand(bias);
  VSD_CHECK(av.shape.size() == 2) << "graph AddRows requires 2-D lhs";
  VSD_CHECK(bv.size == av.shape[1]) << "graph AddRows bias width";
  OpNode node;
  node.kind = OpKind::kAddRows;
  node.shape = av.shape;
  node.a = a;
  node.b = bias;
  return Append(std::move(node));
}

namespace {

OpNode Elementwise(OpKind kind, const OpNode& operand, int a) {
  OpNode node;
  node.kind = kind;
  node.shape = operand.shape;
  node.a = a;
  return node;
}

}  // namespace

int GraphBuilder::Relu(int a) {
  return Append(Elementwise(OpKind::kRelu, F32Operand(a), a));
}

int GraphBuilder::Gelu(int a) {
  return Append(Elementwise(OpKind::kGelu, F32Operand(a), a));
}

int GraphBuilder::Tanh(int a) {
  return Append(Elementwise(OpKind::kTanh, F32Operand(a), a));
}

int GraphBuilder::Sigmoid(int a) {
  return Append(Elementwise(OpKind::kSigmoid, F32Operand(a), a));
}

int GraphBuilder::Concat(int a, int b) {
  const OpNode& av = F32Operand(a);
  const OpNode& bv = F32Operand(b);
  VSD_CHECK(av.shape.size() == 2 && bv.shape.size() == 2)
      << "graph Concat requires 2-D";
  VSD_CHECK(av.shape[0] == bv.shape[0]) << "graph Concat row mismatch";
  OpNode node;
  node.kind = OpKind::kConcat;
  node.shape = {av.shape[0], av.shape[1] + bv.shape[1]};
  node.a = a;
  node.b = b;
  return Append(std::move(node));
}

int GraphBuilder::Im2Col(int x, int kh, int kw, int stride, int pad) {
  const OpNode& xv = F32Operand(x);
  VSD_CHECK(xv.shape.size() == 4) << "graph Im2Col requires [N,H,W,C]";
  VSD_CHECK(kh <= xv.shape[1] + 2 * pad && kw <= xv.shape[2] + 2 * pad)
      << "graph Im2Col window larger than the padded image";
  const int oh = autograd::ConvOutDim(xv.shape[1], kh, stride, pad);
  const int ow = autograd::ConvOutDim(xv.shape[2], kw, stride, pad);
  VSD_CHECK(oh > 0 && ow > 0) << "graph Im2Col degenerate output";
  OpNode node;
  node.kind = OpKind::kIm2Col;
  node.shape = {xv.shape[0] * oh * ow, kh * kw * xv.shape[3]};
  node.a = x;
  node.kh = kh;
  node.kw = kw;
  node.stride = stride;
  node.pad = pad;
  node.scratch =
      k::Im2ColPlaneSize(xv.shape[1], xv.shape[2], xv.shape[3], pad);
  return Append(std::move(node));
}

int GraphBuilder::Reshape(int a, std::vector<int> shape) {
  const OpNode& av = F32Operand(a);
  VSD_CHECK(av.kind != OpKind::kWeight) << "graph Reshape of a weight";
  OpNode node;
  node.kind = OpKind::kReshape;
  node.shape = std::move(shape);
  node.a = a;
  VSD_CHECK(ShapeSize(node.shape) == av.size) << "graph Reshape size";
  return Append(std::move(node));
}

// ---- CompiledGraph ----

CompiledGraph::CompiledGraph(GraphBuilder builder, int output)
    : nodes_(std::move(builder.nodes_)),
      inputs_(std::move(builder.inputs_)),
      output_(output) {
  const int n = static_cast<int>(nodes_.size());
  VSD_CHECK(output_ >= 0 && output_ < n) << "graph output id";

  // One BufferRequest per materialized node; views alias their operand's
  // request, weights have none.
  std::vector<int> node_buffer(n, -1);
  std::vector<BufferRequest> requests;
  for (int id = 0; id < n; ++id) {
    const OpNode& node = nodes_[id];
    if (node.kind == OpKind::kWeight) continue;
    if (node.kind == OpKind::kReshape) {
      VSD_CHECK(node.a >= 0 && node_buffer[node.a] >= 0)
          << "graph Reshape operand has no buffer";
      node_buffer[id] = node_buffer[node.a];
      continue;
    }
    node_buffer[id] = static_cast<int>(requests.size());
    BufferRequest req;
    // Byte-accurate per dtype. Today every planned buffer is f32 (int8
    // lives only in weight tensors, which are not arena-planned), but the
    // sizing stays correct if a narrow-dtype intermediate ever lands here.
    req.size =
        static_cast<size_t>(node.size) * tensor::DTypeSize(node.dtype);
    // Inputs are written before execution starts, so their buffers must
    // not be handed to any op, ever earlier than their last consumer.
    req.first_use = node.kind == OpKind::kInput ? -1 : id;
    req.last_use = id;
    requests.push_back(req);
  }
  for (int id = 0; id < n; ++id) {
    for (const int operand : {nodes_[id].a, nodes_[id].b}) {
      if (operand < 0) continue;
      const int buf = node_buffer[operand];
      if (buf >= 0) {
        requests[buf].last_use = std::max(requests[buf].last_use, id);
      }
    }
  }
  const int out_buf = node_buffer[output_];
  VSD_CHECK(out_buf >= 0) << "graph output has no buffer";
  // The caller reads the output after Execute returns.
  requests[out_buf].last_use = n;
  // Scratch lives only while its op runs, so it never overlaps the op's
  // operands or output, and later steps reuse its bytes.
  std::vector<int> scratch_buffer(n, -1);
  for (int id = 0; id < n; ++id) {
    if (nodes_[id].scratch == 0) continue;
    scratch_buffer[id] = static_cast<int>(requests.size());
    requests.push_back(BufferRequest{
        static_cast<size_t>(nodes_[id].scratch) * sizeof(float), id, id});
  }

  const ArenaPlan plan = PlanBufferLifetimes(requests);
  arena_bytes_ = plan.arena_size;
  node_offset_.assign(n, 0);
  scratch_offset_.assign(n, 0);
  for (int id = 0; id < n; ++id) {
    if (node_buffer[id] >= 0) {
      node_offset_[id] = plan.offsets[node_buffer[id]];
    }
    if (scratch_buffer[id] >= 0) {
      scratch_offset_[id] = plan.offsets[scratch_buffer[id]];
    }
  }
}

const std::vector<int>& CompiledGraph::input_shape(int input_index) const {
  VSD_CHECK(input_index >= 0 && input_index < num_inputs())
      << "graph input index " << input_index;
  return nodes_[inputs_[input_index]].shape;
}

// ---- GraphExecutor ----

GraphExecutor::GraphExecutor(std::shared_ptr<const CompiledGraph> graph)
    : graph_(std::move(graph)),
      // Offsets are in bytes but the arena stays a float vector (every
      // planned buffer is f32); offsets are 64-byte aligned, so the
      // byte-to-float index conversion in ArenaAt is always exact.
      arena_((graph_->arena_bytes() + sizeof(float) - 1) / sizeof(float),
             0.0f) {}

float* GraphExecutor::ArenaAt(size_t byte_offset) {
  return arena_.data() + byte_offset / sizeof(float);
}

const float* GraphExecutor::ArenaAt(size_t byte_offset) const {
  return arena_.data() + byte_offset / sizeof(float);
}

float* GraphExecutor::InputData(int input_index) {
  VSD_CHECK(input_index >= 0 && input_index < graph_->num_inputs())
      << "graph input index " << input_index;
  return ArenaAt(graph_->node_offset_[graph_->inputs_[input_index]]);
}

const float* GraphExecutor::OutputData() const {
  return NodeData(graph_->output_);
}

const float* GraphExecutor::NodeData(int id) const {
  const OpNode& node = graph_->nodes_[id];
  if (node.kind == OpKind::kWeight) return node.weight.value().data();
  return ArenaAt(graph_->node_offset_[id]);
}

void GraphExecutor::Execute() {
  const std::vector<OpNode>& nodes = graph_->nodes_;
  for (int id = 0; id < static_cast<int>(nodes.size()); ++id) {
    const OpNode& node = nodes[id];
    if (node.kind == OpKind::kInput || node.kind == OpKind::kWeight ||
        node.kind == OpKind::kReshape) {
      continue;
    }
    float* out = ArenaAt(graph_->node_offset_[id]);
    switch (node.kind) {
      case OpKind::kMatMul: {
        const OpNode& a = nodes[node.a];
        const OpNode& b = nodes[node.b];
        if (b.dtype == tensor::DType::kI8) {
          const tensor::Tensor& w = b.weight.value();
          k::MatMulI8Into(NodeData(node.a), w.qdata(), w.qscale(),
                          w.qzero(), out, a.shape[0], a.shape[1],
                          node.shape[1]);
        } else {
          k::MatMulInto(NodeData(node.a), NodeData(node.b), out, a.shape[0],
                        a.shape[1], node.shape[1]);
        }
        break;
      }
      case OpKind::kAddRows:
        k::AddRowsInto(NodeData(node.a), NodeData(node.b), out,
                       node.shape[0], node.shape[1]);
        break;
      case OpKind::kRelu:
        k::ReluInto(NodeData(node.a), out, node.size);
        break;
      case OpKind::kGelu:
        k::GeluInto(NodeData(node.a), out, node.size);
        break;
      case OpKind::kTanh:
        k::TanhInto(NodeData(node.a), out, node.size);
        break;
      case OpKind::kSigmoid:
        k::SigmoidInto(NodeData(node.a), out, node.size);
        break;
      case OpKind::kConcat:
        k::ConcatRowsInto(NodeData(node.a), NodeData(node.b), out,
                          node.shape[0], nodes[node.a].shape[1],
                          nodes[node.b].shape[1]);
        break;
      case OpKind::kIm2Col: {
        const OpNode& x = nodes[node.a];
        k::Im2ColInto(NodeData(node.a), out, x.shape[0], x.shape[1],
                      x.shape[2], x.shape[3], node.kh, node.kw, node.stride,
                      node.pad, ArenaAt(graph_->scratch_offset_[id]));
        break;
      }
      case OpKind::kInput:
      case OpKind::kWeight:
      case OpKind::kReshape:
        break;
    }
  }
}

// ---- CompiledForward ----

CompiledForward::Lease::~Lease() {
  if (owner_ != nullptr && exec_ != nullptr) {
    owner_->Release(batch_, std::move(exec_));
  }
}

CompiledForward::Lease CompiledForward::Acquire(int batch) {
  VSD_CHECK(build_ != nullptr) << "CompiledForward has no build function";
  VSD_CHECK(batch >= 1) << "CompiledForward batch " << batch;
  std::shared_ptr<const CompiledGraph> compiled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[batch];
    if (entry.compiled == nullptr) {
      GraphBuilder builder;
      const int output = build_(&builder, batch);
      entry.compiled =
          std::make_shared<const CompiledGraph>(std::move(builder), output);
    }
    if (!entry.idle.empty()) {
      std::unique_ptr<GraphExecutor> exec = std::move(entry.idle.back());
      entry.idle.pop_back();
      return Lease(this, batch, std::move(exec));
    }
    compiled = entry.compiled;
  }
  // Arena allocation happens outside the lock.
  return Lease(this, batch, std::make_unique<GraphExecutor>(compiled));
}

void CompiledForward::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

void CompiledForward::Release(int batch,
                              std::unique_ptr<GraphExecutor> exec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(batch);
  // Discard executors whose graph is no longer the pooled one (Clear ran
  // while the lease was out) — pooling them would resurrect a graph that
  // was compiled against stale weight shapes/dtypes.
  if (it == entries_.end() || it->second.compiled.get() != &exec->graph()) {
    return;
  }
  it->second.idle.push_back(std::move(exec));
}

}  // namespace vsd::nn::graph
