// Reinforcement-learning agents for centralized BE scheduling (§5.3).
//
// Both agents act over a graph state: an encoder (GraphSAGE by default)
// embeds the topology; per-node logits are produced by the paper's 3-layer
// ReLU head; invalid nodes are removed by the policy context filter c_t
// (masked softmax). A2cAgent implements the paper's DCG-BE learner
// (advantage actor-critic, Adam lr 2e-4); SacAgent implements the GNN-SAC
// baseline of Figure 11(c) (discrete soft actor-critic with twin Q networks
// and Polyak-averaged targets).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "gnn/encoder.h"
#include "nn/adam.h"
#include "nn/packed.h"

namespace tango::rl {

/// A state observation: the global graph G' plus the validity mask c_t.
struct GraphState {
  gnn::GraphBatch graph;
  std::vector<bool> valid;  // c_t per node; empty = all valid
};

/// Common interface so the BE dispatcher can swap learners.
class Agent {
 public:
  virtual ~Agent() = default;
  /// Choose an action (node index). `greedy` disables exploration.
  virtual int Act(const GraphState& state, bool greedy = false) = 0;
  /// Report the transition outcome for the previous Act call.
  virtual void Observe(float reward, const GraphState& next_state,
                       bool done) = 0;
  virtual std::string name() const = 0;
  virtual std::int64_t train_steps() const = 0;
};

struct A2cConfig {
  int feature_dim = 9;
  int embed_dim = 64;
  gnn::EncoderKind encoder = gnn::EncoderKind::kGraphSage;
  float gamma = 0.95f;
  float entropy_coef = 0.01f;
  float value_coef = 0.5f;
  /// n̂ — actions between two training intervals (§5.3.1 reward definition).
  int train_interval = 16;
  nn::AdamConfig adam{};  // lr 2e-4 per the paper
  std::uint64_t seed = 7;
  /// TangoSolve packed inference: Act() runs the encoder and actor head
  /// through pre-packed weights without allocating autograd nodes. Actions
  /// are bit-identical either way (the packed kernels reproduce the taped
  /// arithmetic exactly); false forces the taped forward, used by the
  /// equivalence tests. Training differentiates through the tape, one tape
  /// per rollout step (see A2cAgent::Train).
  bool packed_inference = true;
};

class A2cAgent : public Agent {
 public:
  explicit A2cAgent(const A2cConfig& cfg);

  int Act(const GraphState& state, bool greedy = false) override;
  void Observe(float reward, const GraphState& next_state, bool done) override;
  std::string name() const override;
  std::int64_t train_steps() const override { return train_steps_; }

  /// Last training losses, for tests/telemetry.
  float last_policy_loss() const { return last_policy_loss_; }
  float last_value_loss() const { return last_value_loss_; }
  std::size_t param_count() const { return net_.store.ParamCount(); }
  /// Read-only view of every trainable parameter, in optimizer order.
  const nn::ParamStore& params() const { return net_.store; }

 private:
  struct Step {
    GraphState state;
    int action;
    float reward;
  };

  /// Encoder, actor and critic over one ParamStore. The agent's own nets
  /// and every training replica come from MakeNets, so their parameter
  /// lists line up index for index.
  struct Nets {
    nn::ParamStore store;
    std::unique_ptr<gnn::Encoder> encoder;
    nn::Mlp actor;
    nn::Mlp critic;
  };
  /// One rollout step's loss, differentiated on a replica's tape; `root`
  /// keeps the tape alive until the wave's reduction has read it.
  struct StepTape {
    nn::Var root;
    float policy_loss = 0.0f;
    float value_loss = 0.0f;
  };

  static Nets MakeNets(const A2cConfig& cfg, Rng& rng);
  StepTape RunStep(Nets& nets, const Step& step, float ret, Rng rng,
                   float loss_scale) const;
  void Train(const GraphState& bootstrap_state, bool done);
  /// Packed Act() forward; returns false (leaving the RNG untouched) when
  /// the encoder has no inference path and the caller must use the tape.
  bool PackedActionProbs(const GraphState& s, const nn::Matrix& mask,
                         nn::Matrix* probs);

  A2cConfig cfg_;
  Rng rng_;
  Nets net_;
  /// Training wave width, min(hardware threads, train_interval), fixed at
  /// the first Train (0 before it) together with the width_ - 1 replicas
  /// and the pool whose width_ - 1 threads plus the caller run a wave.
  int width_ = 0;
  std::vector<Nets> replicas_;
  std::unique_ptr<ThreadPool> pool_;
  /// Packed actor head, lazily re-packed when train_steps_ moves.
  nn::PackedMlp actor_packed_;
  std::uint64_t actor_packed_version_ = ~std::uint64_t{0};
  nn::Matrix embed_buf_;
  std::unique_ptr<nn::Adam> opt_;
  std::vector<Step> rollout_;
  std::optional<GraphState> pending_state_;
  int pending_action_ = -1;
  std::int64_t train_steps_ = 0;
  float last_policy_loss_ = 0.0f;
  float last_value_loss_ = 0.0f;
};

struct SacConfig {
  int feature_dim = 9;
  int embed_dim = 64;
  gnn::EncoderKind encoder = gnn::EncoderKind::kGraphSage;
  float gamma = 0.95f;
  float alpha = 0.05f;  // entropy temperature (fixed)
  float tau = 0.02f;    // target Polyak rate
  int batch_size = 8;
  int replay_capacity = 512;
  int train_every = 16;
  nn::AdamConfig adam{};
  std::uint64_t seed = 11;
};

class SacAgent : public Agent {
 public:
  explicit SacAgent(const SacConfig& cfg);

  int Act(const GraphState& state, bool greedy = false) override;
  void Observe(float reward, const GraphState& next_state, bool done) override;
  std::string name() const override;
  std::int64_t train_steps() const override { return train_steps_; }

 private:
  struct Transition {
    GraphState state;
    int action;
    float reward;
    GraphState next;
    bool done;
  };

  /// Networks bundled so the online and target copies share structure.
  struct Nets {
    nn::ParamStore store;
    std::unique_ptr<gnn::Encoder> encoder;
    nn::Mlp q1, q2;
    nn::Var Q1(const GraphState& s, Rng& rng);
    nn::Var Q2(const GraphState& s, Rng& rng);
  };

  nn::Var PolicyLogits(const GraphState& s);
  void Train();
  static std::unique_ptr<Nets> MakeNets(const SacConfig& cfg,
                                        const std::string& prefix, Rng& rng);

  SacConfig cfg_;
  Rng rng_;
  nn::ParamStore policy_store_;
  std::unique_ptr<gnn::Encoder> policy_encoder_;
  nn::Mlp policy_head_;
  std::unique_ptr<nn::Adam> policy_opt_;
  std::unique_ptr<Nets> online_;
  std::unique_ptr<Nets> target_;
  std::unique_ptr<nn::Adam> q_opt_;
  std::deque<Transition> replay_;
  std::optional<GraphState> pending_state_;
  int pending_action_ = -1;
  std::int64_t act_count_ = 0;
  std::int64_t train_steps_ = 0;
};

/// Convert a validity vector into a 1×N mask matrix (all-ones when empty).
nn::Matrix MaskRow(const std::vector<bool>& valid, int n);

}  // namespace tango::rl
