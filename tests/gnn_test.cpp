// Tests for the graph encoders (GraphSAGE, GCN, GAT, Native).
#include <gtest/gtest.h>

#include <cmath>

#include "gnn/encoder.h"

namespace tango::gnn {
namespace {

using nn::Matrix;
using nn::Var;

/// A 6-node graph: two triangles bridged by one edge (0-1-2, 3-4-5, 2-3).
GraphBatch TwoTriangles() {
  GraphBatch g;
  g.features = Matrix(6, 4);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 4; ++j) {
      g.features.at(i, j) = static_cast<float>(i * 4 + j) / 24.0f;
    }
  }
  g.adj = {{1, 2}, {0, 2}, {0, 1, 3}, {2, 4, 5}, {3, 5}, {3, 4}};
  return g;
}

class EncoderKindTest : public ::testing::TestWithParam<EncoderKind> {};

TEST_P(EncoderKindTest, OutputShape) {
  Rng rng(1);
  nn::ParamStore store;
  auto enc = MakeEncoder(GetParam(), store, "e", 4, 16, rng);
  ASSERT_NE(enc, nullptr);
  Rng fwd(2);
  const GraphBatch g = TwoTriangles();
  const Var h = enc->Encode(g, fwd);
  EXPECT_EQ(h->value.rows(), 6);
  EXPECT_EQ(h->value.cols(), 16);
  EXPECT_EQ(enc->out_dim(), 16);
}

TEST_P(EncoderKindTest, GradientsReachParameters) {
  Rng rng(3);
  nn::ParamStore store;
  auto enc = MakeEncoder(GetParam(), store, "e", 4, 8, rng);
  Rng fwd(4);
  Var loss = nn::Sum(enc->Encode(TwoTriangles(), fwd));
  nn::Backward(loss);
  float total = 0.0f;
  for (const auto& p : store.params()) {
    if (!p->grad.SameShape(p->value)) continue;
    for (int r = 0; r < p->grad.rows(); ++r) {
      for (int c = 0; c < p->grad.cols(); ++c) {
        total += std::abs(p->grad.at(r, c));
      }
    }
  }
  EXPECT_GT(total, 0.0f) << EncoderKindName(GetParam());
}

TEST_P(EncoderKindTest, DeterministicUnderSameSeeds) {
  const GraphBatch g = TwoTriangles();
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    nn::ParamStore store;
    auto enc = MakeEncoder(GetParam(), store, "e", 4, 8, rng);
    Rng fwd(seed + 1);
    return enc->Encode(g, fwd)->value;
  };
  const Matrix a = run(42);
  const Matrix b = run(42);
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      EXPECT_FLOAT_EQ(a.at(r, c), b.at(r, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, EncoderKindTest,
                         ::testing::Values(EncoderKind::kGraphSage,
                                           EncoderKind::kGcn,
                                           EncoderKind::kGat,
                                           EncoderKind::kNative),
                         [](const auto& param_info) {
                           return std::string(
                               EncoderKindName(param_info.param));
                         });

TEST(GraphSage, UsesTopologyNativeDoesNot) {
  // Changing a *neighbor's* features must change a node's embedding under
  // GraphSAGE but not under the Native encoder.
  GraphBatch g = TwoTriangles();
  auto embed_node0 = [&](EncoderKind kind, const GraphBatch& graph) {
    Rng rng(7);
    nn::ParamStore store;
    auto enc = MakeEncoder(kind, store, "e", 4, 8, rng);
    Rng fwd(8);
    const Var h = enc->Encode(graph, fwd);
    float sum = 0.0f;
    for (int c = 0; c < 8; ++c) sum += h->value.at(0, c);
    return sum;
  };
  GraphBatch g2 = g;
  for (int j = 0; j < 4; ++j) g2.features.at(1, j) += 5.0f;  // node 1 changes
  EXPECT_NE(embed_node0(EncoderKind::kGraphSage, g),
            embed_node0(EncoderKind::kGraphSage, g2));
  EXPECT_FLOAT_EQ(embed_node0(EncoderKind::kNative, g),
                  embed_node0(EncoderKind::kNative, g2));
}

TEST(GraphSage, SamplingBoundsNeighborCount) {
  // With p = 3 and a hub of degree 10, each forward must still work and mix
  // at most 3 neighbors + self (checked indirectly: encode succeeds and
  // differs across RNG draws because sampling picks different neighbors).
  GraphBatch g;
  const int n = 11;
  g.features = Matrix(n, 2);
  for (int i = 0; i < n; ++i) g.features.at(i, 0) = static_cast<float>(i);
  g.adj.assign(static_cast<std::size_t>(n), {});
  for (int i = 1; i < n; ++i) {
    g.adj[0].push_back(i);
    g.adj[static_cast<std::size_t>(i)].push_back(0);
  }
  Rng rng(9);
  nn::ParamStore store;
  GraphSage sage(store, "s", 2, 8, /*layers=*/1, /*sample_p=*/3, rng);
  Rng fwd1(1), fwd2(2);
  const Var h1 = sage.Encode(g, fwd1);
  const Var h2 = sage.Encode(g, fwd2);
  // Hub row (degree 10 > p) should differ between draws.
  float diff = 0.0f;
  for (int c = 0; c < 8; ++c) {
    diff += std::abs(h1->value.at(0, c) - h2->value.at(0, c));
  }
  EXPECT_GT(diff, 0.0f);
  // Leaf rows (degree 1 ≤ p) are sampled deterministically.
  for (int c = 0; c < 8; ++c) {
    EXPECT_FLOAT_EQ(h1->value.at(5, c), h2->value.at(5, c));
  }
}

TEST(Gcn, IsolatedNodeSeesOnlyItself) {
  GraphBatch g;
  g.features = Matrix(3, 2);
  g.features.at(0, 0) = 1.0f;
  g.features.at(1, 0) = 2.0f;
  g.features.at(2, 0) = 100.0f;  // isolated, feature much larger
  g.adj = {{1}, {0}, {}};
  Rng rng(10);
  nn::ParamStore store;
  Gcn gcn(store, "g", 2, 4, 1, rng);
  Rng fwd(11);
  const Var h = gcn.Encode(g, fwd);
  // Altering the isolated node's features must not change node 0's output.
  GraphBatch g2 = g;
  g2.features.at(2, 0) = 500.0f;
  const Var h2 = gcn.Encode(g2, fwd);
  for (int c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(h->value.at(0, c), h2->value.at(0, c));
  }
}

TEST(Gat, OneLayerRespectsLocality) {
  // On a path 0-1-2-3 a single GAT layer must propagate a change at node 1
  // into node 0 but keep node 0 blind to changes at node 3 (two hops away).
  GraphBatch g;
  g.features = Matrix(4, 2, 0.5f);
  g.adj = {{1}, {0, 2}, {1, 3}, {2}};
  Rng rng(12);
  nn::ParamStore store;
  Gat gat(store, "a", 2, 4, 1, rng);
  Rng fwd(13);
  const Var base = gat.Encode(g, fwd);
  auto row_delta = [&](const GraphBatch& variant, int row) {
    const Var h = gat.Encode(variant, fwd);
    float d = 0.0f;
    for (int c = 0; c < 4; ++c) {
      d += std::abs(h->value.at(row, c) - base->value.at(row, c));
    }
    return d;
  };
  GraphBatch near = g;
  near.features.at(1, 0) += 3.0f;
  EXPECT_GT(row_delta(near, 0), 1e-6f);  // neighbor change propagates
  GraphBatch far = g;
  far.features.at(3, 0) += 3.0f;
  EXPECT_FLOAT_EQ(row_delta(far, 0), 0.0f);  // two hops away: invisible
}

TEST(EncoderFactory, NamesAreStable) {
  EXPECT_STREQ(EncoderKindName(EncoderKind::kGraphSage), "GraphSAGE");
  EXPECT_STREQ(EncoderKindName(EncoderKind::kGcn), "GCN");
  EXPECT_STREQ(EncoderKindName(EncoderKind::kGat), "GAT");
  EXPECT_STREQ(EncoderKindName(EncoderKind::kNative), "Native");
}

// ---- TangoSolve packed inference ------------------------------------------

TEST_P(EncoderKindTest, PackedInferenceMatchesTapedEncodeExactly) {
  Rng rng(7);
  nn::ParamStore store;
  auto enc = MakeEncoder(GetParam(), store, "e", 4, 16, rng);
  const GraphBatch g = TwoTriangles();
  // Identical RNG streams: the packed path promises to consume exactly the
  // draws Encode() would (GraphSAGE's neighbor sampling).
  Rng fwd_taped(11);
  Rng fwd_packed(11);
  const nn::Var taped = enc->Encode(g, fwd_taped);

  nn::Matrix packed;
  const auto before = nn::NodeCount();
  const bool supported = enc->EncodeInference(g, fwd_packed, 0, &packed);
  if (GetParam() == EncoderKind::kGat) {
    // GAT's data-dependent attention has no packed path; the fallback
    // contract is a clean false with the RNG untouched.
    EXPECT_FALSE(supported);
    EXPECT_EQ(fwd_packed.NextDouble(), Rng(11).NextDouble());
    return;
  }
  ASSERT_TRUE(supported);
  EXPECT_EQ(nn::NodeCount(), before)
      << "EncodeInference must not allocate tape nodes";
  ASSERT_EQ(packed.rows(), taped->value.rows());
  ASSERT_EQ(packed.cols(), taped->value.cols());
  for (int r = 0; r < packed.rows(); ++r) {
    for (int c = 0; c < packed.cols(); ++c) {
      ASSERT_EQ(packed.at(r, c), taped->value.at(r, c))
          << "entry (" << r << "," << c << ")";
    }
  }
  // Both paths must leave the RNG in the same state.
  EXPECT_EQ(fwd_taped.NextDouble(), fwd_packed.NextDouble());
}

TEST_P(EncoderKindTest, AdvancePastEncodeSkipsExactlyTheEncodeDraws) {
  Rng rng(5);
  nn::ParamStore store;
  auto enc = MakeEncoder(GetParam(), store, "e", 4, 8, rng);
  // TwoTriangles plus a hub of degree 6 > sample_p, so GraphSAGE samples.
  GraphBatch g = TwoTriangles();
  g.features = Matrix(7, 4, 0.25f);
  g.adj.push_back({});
  for (int i = 0; i < 6; ++i) {
    g.adj[6].push_back(i);
    g.adj[static_cast<std::size_t>(i)].push_back(6);
  }
  Rng encoded(23);
  Rng advanced(23);
  enc->Encode(g, encoded);
  enc->AdvancePastEncode(g, advanced);
  const std::uint64_t next = encoded.NextU64();
  EXPECT_EQ(next, advanced.NextU64());
  // GraphSAGE draws for the hub; the other encoders draw nothing.
  EXPECT_EQ(next == Rng(23).NextU64(),
            GetParam() != EncoderKind::kGraphSage);
}

TEST(GraphSage, PackedCacheRepacksWhenParamVersionMoves) {
  Rng rng(19);
  nn::ParamStore store;
  auto enc = MakeEncoder(EncoderKind::kGraphSage, store, "e", 4, 8, rng);
  const GraphBatch g = TwoTriangles();
  nn::Matrix before_update;
  Rng f1(3);
  ASSERT_TRUE(enc->EncodeInference(g, f1, /*param_version=*/0,
                                   &before_update));
  // Perturb a weight (as a training step would), keep the version: the
  // stale pack must still be served (repack is version-driven, not
  // value-driven)...
  store.params()[0]->value.at(0, 0) += 1.0f;
  nn::Matrix stale;
  Rng f2(3);
  ASSERT_TRUE(enc->EncodeInference(g, f2, /*param_version=*/0, &stale));
  for (int r = 0; r < stale.rows(); ++r) {
    for (int c = 0; c < stale.cols(); ++c) {
      ASSERT_EQ(stale.at(r, c), before_update.at(r, c));
    }
  }
  // ...and bumping the version must re-pack and match a fresh taped pass.
  nn::Matrix repacked;
  Rng f3(3);
  ASSERT_TRUE(enc->EncodeInference(g, f3, /*param_version=*/1, &repacked));
  Rng f4(3);
  const nn::Var taped = enc->Encode(g, f4);
  bool any_diff = false;
  for (int r = 0; r < repacked.rows(); ++r) {
    for (int c = 0; c < repacked.cols(); ++c) {
      ASSERT_EQ(repacked.at(r, c), taped->value.at(r, c));
      any_diff = any_diff || repacked.at(r, c) != before_update.at(r, c);
    }
  }
  EXPECT_TRUE(any_diff) << "weight perturbation should change embeddings";
}

}  // namespace
}  // namespace tango::gnn
