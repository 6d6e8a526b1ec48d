// Tests for the RL agents: action-masking guarantees, the Act/Observe
// protocol, and learning on a trivial "good node" bandit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "rl/agent.h"

namespace tango::rl {
namespace {

/// Fully-connected 4-node graph whose features mark one "good" node.
GraphState BanditState(int good_node) {
  GraphState s;
  s.graph.features = nn::Matrix(4, 3);
  for (int i = 0; i < 4; ++i) {
    s.graph.features.at(i, 0) = i == good_node ? 1.0f : 0.0f;
    s.graph.features.at(i, 1) = 0.5f;
    s.graph.features.at(i, 2) = static_cast<float>(i) / 4.0f;
  }
  s.graph.adj = {{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}};
  return s;
}

TEST(MaskRow, AllValidWhenEmpty) {
  const nn::Matrix m = MaskRow({}, 3);
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(m.at(0, i), 1.0f);
}

TEST(MaskRow, ReflectsValidity) {
  const nn::Matrix m = MaskRow({true, false, true}, 3);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 1.0f);
}

TEST(MaskRow, FullyMaskedFallsBackToAllValid) {
  const nn::Matrix m = MaskRow({false, false}, 2);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(0, 1), 1.0f);
}

template <class AgentT, class ConfigT>
std::unique_ptr<AgentT> MakeSmallAgent() {
  ConfigT cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 16;
  cfg.seed = 5;
  return std::make_unique<AgentT>(cfg);
}

TEST(A2cAgent, NeverPicksMaskedAction) {
  auto agent = MakeSmallAgent<A2cAgent, A2cConfig>();
  GraphState s = BanditState(0);
  s.valid = {false, true, false, false};  // only node 1 allowed
  for (int i = 0; i < 50; ++i) {
    const int a = agent->Act(s);
    EXPECT_EQ(a, 1);
    agent->Observe(0.0f, s, false);
  }
}

TEST(SacAgent, NeverPicksMaskedAction) {
  auto agent = MakeSmallAgent<SacAgent, SacConfig>();
  GraphState s = BanditState(0);
  s.valid = {false, false, true, false};
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(agent->Act(s), 2);
    agent->Observe(0.0f, s, false);
  }
}

TEST(A2cAgent, ActionsWithinRange) {
  auto agent = MakeSmallAgent<A2cAgent, A2cConfig>();
  const GraphState s = BanditState(2);
  for (int i = 0; i < 20; ++i) {
    const int a = agent->Act(s);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
    agent->Observe(0.1f, s, false);
  }
}

TEST(A2cAgent, LearnsBanditPreference) {
  // Reward 1 for picking the flagged node, 0 otherwise; after training the
  // greedy policy should pick it.
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 16;
  cfg.train_interval = 8;
  cfg.gamma = 0.0f;     // bandit: credit is single-step
  cfg.adam.lr = 5e-3f;  // faster than the paper's 2e-4 for a tiny test
  cfg.entropy_coef = 0.003f;
  cfg.seed = 21;
  A2cAgent agent(cfg);
  const GraphState s = BanditState(1);
  int hits_late = 0;
  for (int t = 0; t < 800; ++t) {
    const int a = agent.Act(s);
    const float r = a == 1 ? 1.0f : 0.0f;
    agent.Observe(r, s, false);
    if (t >= 700 && a == 1) ++hits_late;
  }
  EXPECT_GT(agent.train_steps(), 10);
  EXPECT_GT(hits_late, 60);  // >60% of the last 100 actions
  EXPECT_EQ(agent.Act(s, /*greedy=*/true), 1);
}

TEST(A2cAgent, TrainStepsAdvanceAtInterval) {
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.train_interval = 4;
  cfg.seed = 3;
  A2cAgent agent(cfg);
  const GraphState s = BanditState(0);
  for (int t = 0; t < 12; ++t) {
    agent.Act(s);
    agent.Observe(0.0f, s, false);
  }
  EXPECT_EQ(agent.train_steps(), 3);
}

TEST(A2cAgent, DoneFlushesPartialRollout) {
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.train_interval = 100;
  cfg.seed = 4;
  A2cAgent agent(cfg);
  const GraphState s = BanditState(0);
  agent.Act(s);
  agent.Observe(1.0f, s, /*done=*/true);
  EXPECT_EQ(agent.train_steps(), 1);
}

TEST(A2cAgent, NameReflectsEncoder) {
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.encoder = gnn::EncoderKind::kGcn;
  A2cAgent agent(cfg);
  EXPECT_EQ(agent.name(), "GCN-A2C");
}

TEST(SacAgent, TrainsAfterEnoughReplay) {
  SacConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.batch_size = 8;
  cfg.train_every = 4;
  cfg.seed = 6;
  SacAgent agent(cfg);
  const GraphState s = BanditState(0);
  for (int t = 0; t < 24; ++t) {
    agent.Act(s);
    agent.Observe(0.5f, s, false);
  }
  EXPECT_GT(agent.train_steps(), 0);
}

TEST(SacAgent, LearnsBanditPreference) {
  SacConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 16;
  cfg.batch_size = 16;
  cfg.train_every = 4;
  cfg.alpha = 0.01f;
  cfg.adam.lr = 5e-3f;
  cfg.seed = 23;
  SacAgent agent(cfg);
  const GraphState s = BanditState(2);
  int hits_late = 0;
  for (int t = 0; t < 500; ++t) {
    const int a = agent.Act(s);
    agent.Observe(a == 2 ? 1.0f : 0.0f, s, false);
    if (t >= 400 && a == 2) ++hits_late;
  }
  EXPECT_GT(hits_late, 55);
}

TEST(Agents, DeterministicUnderSeed) {
  auto run = [](std::uint64_t seed) {
    A2cConfig cfg;
    cfg.feature_dim = 3;
    cfg.embed_dim = 8;
    cfg.seed = seed;
    A2cAgent agent(cfg);
    const GraphState s = BanditState(1);
    std::vector<int> actions;
    for (int t = 0; t < 20; ++t) {
      actions.push_back(agent.Act(s));
      agent.Observe(0.3f, s, false);
    }
    return actions;
  };
  EXPECT_EQ(run(11), run(11));
}

TEST(A2cAgent, PackedInferenceMatchesTapedActionsAcrossTraining) {
  // TangoSolve equivalence bar: with identical seeds, the packed (tape-
  // free) Act path and the taped path pick identical actions through
  // multiple interleaved training steps (which change the weights and
  // force re-packs).
  auto run = [](bool packed) {
    A2cConfig cfg;
    cfg.feature_dim = 3;
    cfg.embed_dim = 8;
    cfg.seed = 23;
    cfg.train_interval = 8;
    cfg.packed_inference = packed;
    A2cAgent agent(cfg);
    std::vector<int> actions;
    for (int t = 0; t < 48; ++t) {
      const GraphState s = BanditState(t % 4);
      actions.push_back(agent.Act(s));
      agent.Observe(actions.back() == t % 4 ? 1.0f : -0.1f, s, false);
    }
    return actions;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(A2cAgent, PackedActDoesNotTouchTheTape) {
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.seed = 9;
  cfg.packed_inference = true;
  A2cAgent agent(cfg);
  const GraphState s = BanditState(2);
  agent.Act(s);  // first call packs the weights
  agent.Observe(0.1f, s, false);
  const auto before = nn::NodeCount();
  for (int t = 0; t < 5; ++t) agent.Act(s);
  EXPECT_EQ(nn::NodeCount(), before)
      << "steady-state packed Act must allocate zero autograd nodes";
}

TEST(A2cAgent, GatEncoderFallsBackToTapedActPath) {
  A2cConfig cfg;
  cfg.feature_dim = 3;
  cfg.embed_dim = 8;
  cfg.seed = 13;
  cfg.encoder = gnn::EncoderKind::kGat;
  cfg.packed_inference = true;
  A2cAgent packed_agent(cfg);
  cfg.packed_inference = false;
  A2cAgent taped_agent(cfg);
  const GraphState s = BanditState(1);
  for (int t = 0; t < 10; ++t) {
    EXPECT_EQ(packed_agent.Act(s), taped_agent.Act(s));
    packed_agent.Observe(0.2f, s, false);
    taped_agent.Observe(0.2f, s, false);
  }
}

/// FNV-1a over the raw bytes of `v`.
template <class T>
std::uint64_t Fold(std::uint64_t h, const T& v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  for (unsigned char b : bytes) h = (h ^ b) * 1099511628211ULL;
  return h;
}

/// A graph of `n` nodes (n varies with `t`) whose nodes 0 and 1 are hubs
/// of degree n - 1 > sample_p, so GraphSAGE sampling draws the RNG, plus
/// a ring; features and validity derive from `rng`.
GraphState DriftingState(int t, Rng& rng) {
  const int n = 5 + (t * 7) % 8;
  GraphState s;
  s.graph.features = nn::Matrix(n, 4);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 4; ++c) {
      s.graph.features.at(i, c) = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
  }
  s.graph.adj.assign(static_cast<std::size_t>(n), {});
  const auto link = [&s](int a, int b) {
    auto& la = s.graph.adj[static_cast<std::size_t>(a)];
    if (a == b || std::find(la.begin(), la.end(), b) != la.end()) return;
    la.push_back(b);
    s.graph.adj[static_cast<std::size_t>(b)].push_back(a);
  };
  for (int i = 0; i < n; ++i) {
    link(0, i);
    link(1, i);
    link(i, (i + 1) % n);
  }
  s.valid.assign(static_cast<std::size_t>(n), true);
  s.valid[static_cast<std::size_t>(t % n)] = rng.Bernoulli(0.5);
  return s;
}

class A2cAgentDigest : public ::testing::TestWithParam<gnn::EncoderKind> {};

TEST_P(A2cAgentDigest, TrainingMatchesPinnedDigest) {
  // A seeded Act/Observe sequence with drifting graph sizes, two full
  // rollouts and two `done` flushes of 5 and 3 steps. The digest folds
  // every action, both losses and every parameter's bits after each
  // Train; the constants were captured from the single-tape training step,
  // so any change to RNG consumption, gradient accumulation order or the
  // optimizer step moves them.
  A2cConfig cfg;
  cfg.feature_dim = 4;
  cfg.embed_dim = 16;
  cfg.encoder = GetParam();
  cfg.seed = 41;
  A2cAgent agent(cfg);
  Rng env(97);
  std::uint64_t digest = 14695981039346656037ULL;
  std::int64_t trained = 0;
  GraphState s = DriftingState(0, env);
  for (int t = 0; t < 40; ++t) {
    const int a = agent.Act(s);
    digest = Fold(digest, a);
    const float reward =
        static_cast<float>((a * 37 + t * 11) % 17) / 17.0f - 0.3f;
    GraphState next = DriftingState(t + 1, env);
    agent.Observe(reward, next, /*done=*/t == 20 || t == 39);
    if (agent.train_steps() != trained) {
      trained = agent.train_steps();
      digest = Fold(digest, agent.last_policy_loss());
      digest = Fold(digest, agent.last_value_loss());
      for (const auto& p : agent.params().params()) {
        for (std::size_t i = 0; i < p->value.size(); ++i) {
          digest = Fold(digest, p->value.data()[i]);
        }
      }
    }
    s = std::move(next);
  }
  EXPECT_EQ(trained, 4);
  const std::uint64_t pinned = [] {
    switch (GetParam()) {
      case gnn::EncoderKind::kGraphSage:
        return 0x43b45f0105692054ULL;
      case gnn::EncoderKind::kGcn:
        return 0xe05636db8a176380ULL;
      case gnn::EncoderKind::kGat:
        return 0x847015c9bbc7f0dcULL;
      case gnn::EncoderKind::kNative:
        return 0xe0acff9d4046a74eULL;
    }
    return 0x0ULL;
  }();
  EXPECT_EQ(digest, pinned) << std::hex << "digest 0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Encoders, A2cAgentDigest,
    ::testing::Values(gnn::EncoderKind::kGraphSage, gnn::EncoderKind::kGcn,
                      gnn::EncoderKind::kGat, gnn::EncoderKind::kNative),
    [](const auto& param_info) {
      return std::string(gnn::EncoderKindName(param_info.param));
    });

}  // namespace
}  // namespace tango::rl
