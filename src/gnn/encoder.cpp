#include "gnn/encoder.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace tango::gnn {

using nn::Matrix;
using nn::Var;

namespace {

/// Row-normalized mean over sampled neighborhoods (self excluded; rows of
/// isolated nodes are zero). The layer concatenates this neighbor mean with
/// the node's own vector, per GraphSAGE's Algorithm 1 (Hamilton et al.) —
/// including self in the mean instead would make embeddings collapse on
/// dense subgraphs (e.g. a cluster's full LAN mesh), leaving the policy
/// unable to tell same-cluster workers apart.
Matrix SampledMeanMatrix(const GraphBatch& g, int sample_p, Rng& rng) {
  const int n = g.num_nodes();
  Matrix agg(n, n);
  for (int i = 0; i < n; ++i) {
    const auto& nbrs = g.adj[static_cast<std::size_t>(i)];
    std::vector<int> chosen;
    if (static_cast<int>(nbrs.size()) <= sample_p) {
      chosen.assign(nbrs.begin(), nbrs.end());
    } else {
      // Sample p without replacement (partial Fisher-Yates on a copy).
      std::vector<int> pool(nbrs);
      for (int k = 0; k < sample_p; ++k) {
        const auto j = static_cast<std::size_t>(
            rng.UniformInt(k, static_cast<std::int64_t>(pool.size()) - 1));
        std::swap(pool[static_cast<std::size_t>(k)], pool[j]);
        chosen.push_back(pool[static_cast<std::size_t>(k)]);
      }
    }
    if (chosen.empty()) continue;
    const float w = 1.0f / static_cast<float>(chosen.size());
    for (int j : chosen) agg.at(i, j) = w;
  }
  return agg;
}

/// Symmetric GCN normalization D^{-1/2}(A+I)D^{-1/2}.
Matrix GcnNormMatrix(const GraphBatch& g) {
  const int n = g.num_nodes();
  Matrix a(n, n);
  std::vector<float> deg(static_cast<std::size_t>(n), 1.0f);  // self loop
  for (int i = 0; i < n; ++i) {
    a.at(i, i) = 1.0f;
    for (int j : g.adj[static_cast<std::size_t>(i)]) {
      a.at(i, j) = 1.0f;
      deg[static_cast<std::size_t>(i)] += 1.0f;
    }
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (a.at(i, j) != 0.0f) {
        a.at(i, j) /= std::sqrt(deg[static_cast<std::size_t>(i)] *
                                deg[static_cast<std::size_t>(j)]);
      }
    }
  }
  return a;
}

/// Adjacency+self 0/1 mask for GAT attention.
Matrix AdjacencyMask(const GraphBatch& g) {
  const int n = g.num_nodes();
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) {
    m.at(i, i) = 1.0f;
    for (int j : g.adj[static_cast<std::size_t>(i)]) m.at(i, j) = 1.0f;
  }
  return m;
}

/// Horizontal concat [a | b] on raw matrices — the value half of the taped
/// nn::ConcatCols.
Matrix ConcatColsMatrix(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out.at(r, c) = a.at(r, c);
    for (int c = 0; c < b.cols(); ++c) out.at(r, a.cols() + c) = b.at(r, c);
  }
  return out;
}

/// Re-pack `layers` when `version` moved past what `packed` was built at.
void RepackLayers(const std::vector<nn::Linear>& layers,
                  std::vector<nn::PackedLinear>* packed,
                  std::uint64_t* packed_version, std::uint64_t version) {
  if (*packed_version == version && !packed->empty()) return;
  packed->clear();
  packed->reserve(layers.size());
  for (const auto& l : layers) packed->emplace_back(l.weight(), l.bias());
  *packed_version = version;
}

}  // namespace

bool Encoder::EncodeInference(const GraphBatch& /*g*/, Rng& /*rng*/,
                              std::uint64_t /*param_version*/,
                              nn::Matrix* /*out*/) {
  return false;
}

void Encoder::AdvancePastEncode(const GraphBatch& /*g*/, Rng& /*rng*/) const {}

GraphSage::GraphSage(nn::ParamStore& store, const std::string& name,
                     int in_dim, int hidden_dim, int layers, int sample_p,
                     Rng& rng)
    : hidden_(hidden_dim), sample_p_(sample_p) {
  TANGO_CHECK(layers >= 1, "need >= 1 layer");
  int d = in_dim;
  for (int l = 0; l < layers; ++l) {
    // CONCAT(self, neighbor-mean) doubles the input width.
    layers_.emplace_back(store, name + ".sage" + std::to_string(l), 2 * d,
                         hidden_dim, rng);
    d = hidden_dim;
  }
}

Var GraphSage::Encode(const GraphBatch& g, Rng& rng) {
  Var h = nn::Constant(g.features);
  for (const auto& layer : layers_) {
    const Var agg = nn::Constant(SampledMeanMatrix(g, sample_p_, rng));
    const Var neigh = nn::MatMul(agg, h);
    h = nn::Relu(layer.Forward(nn::ConcatCols(h, neigh)));
  }
  return h;
}

bool GraphSage::EncodeInference(const GraphBatch& g, Rng& rng,
                                std::uint64_t param_version,
                                nn::Matrix* out) {
  RepackLayers(layers_, &packed_, &packed_version_, param_version);
  Matrix h = g.features;
  Matrix next;
  for (std::size_t l = 0; l < packed_.size(); ++l) {
    // Same sampling call as Encode(): the RNG stream stays in lock-step.
    const Matrix agg = SampledMeanMatrix(g, sample_p_, rng);
    const Matrix neigh = agg.MatMul(h);
    packed_[l].Forward(ConcatColsMatrix(h, neigh), &next);
    nn::ReluInPlace(&next);
    h = std::move(next);
    next = Matrix();
  }
  *out = std::move(h);
  return true;
}

void GraphSage::AdvancePastEncode(const GraphBatch& g, Rng& rng) const {
  // SampledMeanMatrix, once per layer: sample_p draws for every node with
  // more than sample_p neighbors, none for the others.
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (int i = 0; i < g.num_nodes(); ++i) {
      const auto deg =
          static_cast<std::int64_t>(g.adj[static_cast<std::size_t>(i)].size());
      if (deg <= sample_p_) continue;
      for (int k = 0; k < sample_p_; ++k) rng.UniformInt(k, deg - 1);
    }
  }
}

Gcn::Gcn(nn::ParamStore& store, const std::string& name, int in_dim,
         int hidden_dim, int layers, Rng& rng)
    : hidden_(hidden_dim) {
  TANGO_CHECK(layers >= 1, "need >= 1 layer");
  int d = in_dim;
  for (int l = 0; l < layers; ++l) {
    layers_.emplace_back(store, name + ".gcn" + std::to_string(l), d,
                         hidden_dim, rng);
    d = hidden_dim;
  }
}

Var Gcn::Encode(const GraphBatch& g, Rng& /*rng*/) {
  const Var norm = nn::Constant(GcnNormMatrix(g));
  Var h = nn::Constant(g.features);
  for (const auto& layer : layers_) {
    h = nn::Relu(layer.Forward(nn::MatMul(norm, h)));
  }
  return h;
}

bool Gcn::EncodeInference(const GraphBatch& g, Rng& /*rng*/,
                          std::uint64_t param_version, nn::Matrix* out) {
  RepackLayers(layers_, &packed_, &packed_version_, param_version);
  const Matrix norm = GcnNormMatrix(g);
  Matrix h = g.features;
  Matrix next;
  for (std::size_t l = 0; l < packed_.size(); ++l) {
    packed_[l].Forward(norm.MatMul(h), &next);
    nn::ReluInPlace(&next);
    h = std::move(next);
    next = Matrix();
  }
  *out = std::move(h);
  return true;
}

Gat::Gat(nn::ParamStore& store, const std::string& name, int in_dim,
         int hidden_dim, int layers, Rng& rng)
    : hidden_(hidden_dim) {
  TANGO_CHECK(layers >= 1, "need >= 1 layer");
  int d = in_dim;
  for (int l = 0; l < layers; ++l) {
    const std::string base = name + ".gat" + std::to_string(l);
    layers_.push_back(Layer{
        nn::Linear(store, base + ".proj", d, hidden_dim, rng),
        store.Create(base + ".a_self", hidden_dim, 1, rng),
        store.Create(base + ".a_neigh", hidden_dim, 1, rng)});
    d = hidden_dim;
  }
}

Var Gat::Encode(const GraphBatch& g, Rng& /*rng*/) {
  const int n = g.num_nodes();
  const Matrix mask = AdjacencyMask(g);

  Var h = nn::Constant(g.features);
  for (const auto& layer : layers_) {
    const Var hw = layer.proj.Forward(h);               // N×D
    const Var f = nn::MatMul(hw, layer.attn_self);      // N×1: a_selfᵀ·Wh_i
    const Var gvec = nn::MatMul(hw, layer.attn_neigh);  // N×1: a_neighᵀ·Wh_j
    // Attention coefficients α_ij = softmax_j(leakyrelu(f_i + g_j)) over
    // the neighborhood (plus self). The coefficients are treated as
    // constants w.r.t. the parameters (detached attention): gradients flow
    // through the value path α·(HW), which is sufficient at the sizes the
    // ablation uses and keeps the op set small.
    Matrix alpha(n, n);
    for (int i = 0; i < n; ++i) {
      float mx = -1e30f;
      for (int j = 0; j < n; ++j) {
        if (mask.at(i, j) == 0.0f) continue;
        const float s = f->value.at(i, 0) + gvec->value.at(j, 0);
        const float e = s > 0.0f ? s : 0.2f * s;
        alpha.at(i, j) = e;
        mx = std::max(mx, e);
      }
      float denom = 0.0f;
      for (int j = 0; j < n; ++j) {
        if (mask.at(i, j) == 0.0f) continue;
        alpha.at(i, j) = std::exp(alpha.at(i, j) - mx);
        denom += alpha.at(i, j);
      }
      if (denom > 0.0f) {
        for (int j = 0; j < n; ++j) {
          if (mask.at(i, j) != 0.0f) alpha.at(i, j) /= denom;
        }
      }
    }
    h = nn::Relu(nn::MatMul(nn::Constant(std::move(alpha)), hw));
  }
  return h;
}

NativeEncoder::NativeEncoder(nn::ParamStore& store, const std::string& name,
                             int in_dim, int hidden_dim, Rng& rng)
    : proj_(store, name + ".native", in_dim, hidden_dim, rng),
      hidden_(hidden_dim) {}

Var NativeEncoder::Encode(const GraphBatch& g, Rng& /*rng*/) {
  return nn::Relu(proj_.Forward(nn::Constant(g.features)));
}

bool NativeEncoder::EncodeInference(const GraphBatch& g, Rng& /*rng*/,
                                    std::uint64_t param_version,
                                    nn::Matrix* out) {
  if (packed_version_ != param_version) {
    packed_ = nn::PackedLinear(proj_.weight(), proj_.bias());
    packed_version_ = param_version;
  }
  packed_.Forward(g.features, out);
  nn::ReluInPlace(out);
  return true;
}

const char* EncoderKindName(EncoderKind k) {
  switch (k) {
    case EncoderKind::kGraphSage:
      return "GraphSAGE";
    case EncoderKind::kGcn:
      return "GCN";
    case EncoderKind::kGat:
      return "GAT";
    case EncoderKind::kNative:
      return "Native";
  }
  return "?";
}

std::unique_ptr<Encoder> MakeEncoder(EncoderKind kind, nn::ParamStore& store,
                                     const std::string& name, int in_dim,
                                     int hidden_dim, Rng& rng) {
  switch (kind) {
    case EncoderKind::kGraphSage:
      return std::make_unique<GraphSage>(store, name, in_dim, hidden_dim,
                                         /*layers=*/2, /*sample_p=*/3, rng);
    case EncoderKind::kGcn:
      return std::make_unique<Gcn>(store, name, in_dim, hidden_dim,
                                   /*layers=*/2, rng);
    case EncoderKind::kGat:
      return std::make_unique<Gat>(store, name, in_dim, hidden_dim,
                                   /*layers=*/2, rng);
    case EncoderKind::kNative:
      return std::make_unique<NativeEncoder>(store, name, in_dim, hidden_dim,
                                             rng);
  }
  return nullptr;
}

}  // namespace tango::gnn
