#include "rl/agent.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "common/logging.h"

namespace tango::rl {

using nn::Matrix;
using nn::Var;

nn::Matrix MaskRow(const std::vector<bool>& valid, int n) {
  Matrix m(1, n, 1.0f);
  if (!valid.empty()) {
    TANGO_CHECK(static_cast<int>(valid.size()) == n, "mask size mismatch");
    bool any = false;
    for (int i = 0; i < n; ++i) {
      m.at(0, i) = valid[static_cast<std::size_t>(i)] ? 1.0f : 0.0f;
      any = any || valid[static_cast<std::size_t>(i)];
    }
    // A fully-masked state would make the softmax degenerate; fall back to
    // all-valid (the dispatcher re-queues requests that land badly anyway).
    if (!any) m.Fill(1.0f);
  }
  return m;
}

namespace {

/// Mean-pool node embeddings into a single 1×D row.
Var MeanPool(const Var& h) {
  const int n = h->value.rows();
  Matrix pool(1, n, 1.0f / static_cast<float>(n));
  return nn::MatMul(nn::Constant(std::move(pool)), h);
}

int SampleRow(const Matrix& probs, Rng& rng, bool greedy) {
  const int n = probs.cols();
  if (greedy) {
    int best = 0;
    for (int i = 1; i < n; ++i) {
      if (probs.at(0, i) > probs.at(0, best)) best = i;
    }
    return best;
  }
  double u = rng.NextDouble();
  double acc = 0.0;
  for (int i = 0; i < n; ++i) {
    acc += static_cast<double>(probs.at(0, i));
    if (u < acc) return i;
  }
  // Numerical fallback: last valid entry.
  for (int i = n - 1; i >= 0; --i) {
    if (probs.at(0, i) > 0.0f) return i;
  }
  return 0;
}

}  // namespace

// ---------------------------------------------------------------- A2C ----

namespace {

/// Per-node actor logits as a 1×N row.
Var ActorLogits(const nn::Mlp& actor, const Var& h) {
  return nn::Transpose(actor.Forward(h));  // N×1 scores → 1×N
}

/// Adds one rollout step's parameter gradients, computed on a replica's
/// own tape rooted at `root`, into `dst` with exactly the floating-point
/// operations one tape over the whole rollout applies to `dst` for that
/// step, given that the newer steps are already in `dst`. Every
/// parameter feeds at most one op per step (checked). For all but one kind
/// of op, that op's backward adds one term per element, so `dst += (0 +
/// term)` — one Matrix::Add of the replica's gradient — reproduces it bit
/// for bit (`dst` starts at +0 and a sum is -0 only if both terms are).
/// The exception is a 1×C bias broadcast over R > 1 rows by nn::Add, which
/// adds R terms per element; its R row-wise `+=` are replayed from the
/// consumer's gradient in the order the tape made them.
void AccumulateStepGrads(const Var& root, const nn::ParamStore& replica,
                         nn::ParamStore& dst) {
  const auto& params = replica.params();
  std::vector<const nn::Node*> consumer(params.size(), nullptr);
  std::unordered_set<const nn::Node*> seen{root.get()};
  std::vector<const nn::Node*> stack{root.get()};
  while (!stack.empty()) {
    const nn::Node* node = stack.back();
    stack.pop_back();
    for (const Var& p : node->parents) {
      const auto it = std::find(params.begin(), params.end(), p);
      if (it != params.end()) {
        const auto k = static_cast<std::size_t>(it - params.begin());
        TANGO_CHECK(consumer[k] == nullptr,
                    "parameter %s feeds two ops in one step; the wave "
                    "reduction would reorder its gradient sum",
                    replica.names()[k].c_str());
        consumer[k] = node;
      } else if (seen.insert(p.get()).second) {
        stack.push_back(p.get());
      }
    }
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    const nn::Node* use = consumer[k];
    if (use == nullptr) continue;  // unreachable from the loss: no grad
    const nn::Node& src = *params[k];
    nn::Matrix& g = dst.params()[k]->EnsureGrad();
    // nn::Add(a, bias): the bias is the second parent, the output keeps
    // the first parent's R×C shape.
    const bool row_broadcast =
        src.value.rows() == 1 && use->value.rows() > 1 &&
        use->parents.size() == 2 && use->parents[1].get() == &src &&
        use->parents[0]->value.SameShape(use->value);
    if (row_broadcast) {
      for (int r = 0; r < use->grad.rows(); ++r) {
        for (int c = 0; c < use->grad.cols(); ++c) {
          g.at(0, c) += use->grad.at(r, c);
        }
      }
    } else {
      g.Add(src.grad);
    }
  }
}

}  // namespace

A2cAgent::Nets A2cAgent::MakeNets(const A2cConfig& cfg, Rng& rng) {
  Nets nets;
  nets.encoder = gnn::MakeEncoder(cfg.encoder, nets.store, "enc",
                                  cfg.feature_dim, cfg.embed_dim, rng);
  nets.actor = nn::Mlp::PaperHead(nets.store, "actor", cfg.embed_dim, 1, rng);
  nets.critic =
      nn::Mlp::PaperHead(nets.store, "critic", cfg.embed_dim, 1, rng);
  return nets;
}

A2cAgent::A2cAgent(const A2cConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), net_(MakeNets(cfg, rng_)) {
  opt_ = std::make_unique<nn::Adam>(net_.store, cfg.adam);
}

std::string A2cAgent::name() const {
  return std::string(gnn::EncoderKindName(cfg_.encoder)) + "-A2C";
}

bool A2cAgent::PackedActionProbs(const GraphState& s, const Matrix& mask,
                                 Matrix* probs) {
  const auto version = static_cast<std::uint64_t>(train_steps_);
  if (!net_.encoder->EncodeInference(s.graph, rng_, version, &embed_buf_)) {
    return false;  // no packed path (GAT): RNG untouched, tape fallback
  }
  if (actor_packed_version_ != version || actor_packed_.empty()) {
    actor_packed_.Clear();
    for (const auto& l : net_.actor.layers()) {
      actor_packed_.AddLayer(l.weight(), l.bias());
    }
    actor_packed_version_ = version;
  }
  const Matrix& scores = actor_packed_.Forward(embed_buf_);  // N×1
  Matrix logits(1, scores.rows());
  for (int i = 0; i < scores.rows(); ++i) {
    logits.at(0, i) = scores.at(i, 0);
  }
  *probs = nn::SoftmaxProbs(logits, &mask);
  return true;
}

int A2cAgent::Act(const GraphState& state, bool greedy) {
  const int n = state.graph.num_nodes();
  TANGO_CHECK(n > 0, "empty graph state");
  const Matrix mask = MaskRow(state.valid, n);
  int action;
  Matrix packed_probs;
  if (cfg_.packed_inference && PackedActionProbs(state, mask, &packed_probs)) {
    // Tape-free path: bit-identical probabilities (same GEMM accumulation
    // order, same SoftmaxProbs kernel), zero autograd nodes allocated.
    action = SampleRow(packed_probs, rng_, greedy);
  } else {
    const Var h = net_.encoder->Encode(state.graph, rng_);
    const Var probs = nn::Softmax(ActorLogits(net_.actor, h), &mask);
    action = SampleRow(probs->value, rng_, greedy);
  }
  pending_state_ = state;
  pending_action_ = action;
  return action;
}

void A2cAgent::Observe(float reward, const GraphState& next_state, bool done) {
  TANGO_CHECK(pending_state_.has_value(), "Observe without Act");
  rollout_.push_back({std::move(*pending_state_), pending_action_, reward});
  pending_state_.reset();
  pending_action_ = -1;
  if (done || static_cast<int>(rollout_.size()) >= cfg_.train_interval) {
    Train(next_state, done);
    rollout_.clear();
  }
}

A2cAgent::StepTape A2cAgent::RunStep(Nets& nets, const Step& step,
                                     float ret, Rng rng,
                                     float loss_scale) const {
  const int n = step.state.graph.num_nodes();
  const Matrix mask = MaskRow(step.state.valid, n);
  const Var h = nets.encoder->Encode(step.state.graph, rng);
  const Var logits = ActorLogits(nets.actor, h);
  const Var value = nets.critic.Forward(MeanPool(h));  // 1×1
  const Var logp = nn::LogSoftmax(logits, &mask);
  const Var logp_a = nn::GatherCols(logp, {step.action});  // 1×1
  const float advantage = ret - nn::ScalarValue(value);
  // Policy gradient with the advantage detached (standard A2C).
  const Var pg = nn::Scale(logp_a, -advantage);
  // Critic regression toward the return.
  Matrix target(1, 1);
  target.at(0, 0) = ret;
  const Var diff = nn::Sub(value, nn::Constant(std::move(target)));
  const Var vloss = nn::Scale(nn::Mul(diff, diff), cfg_.value_coef);
  // Entropy bonus keeps exploration alive.
  const Var ent = nn::Scale(nn::EntropyOfSoftmax(logits, &mask),
                            -cfg_.entropy_coef);
  // Training minimizes the rollout's mean loss: rooting this step's tape at
  // loss_scale · loss gives the loss node the gradient it has there.
  StepTape tape;
  tape.root = nn::Scale(nn::Add(nn::Add(pg, vloss), ent), loss_scale);
  nn::Backward(tape.root);
  tape.policy_loss = nn::ScalarValue(pg);
  tape.value_loss = nn::ScalarValue(vloss);
  return tape;
}

void A2cAgent::Train(const GraphState& bootstrap_state, bool done) {
  if (rollout_.empty()) return;
  const std::size_t n = rollout_.size();
  // Bootstrap value of the state following the last stored step, from the
  // encoder and critic alone.
  float boot = 0.0f;
  if (!done && bootstrap_state.graph.num_nodes() > 0) {
    const Var h = net_.encoder->Encode(bootstrap_state.graph, rng_);
    boot = nn::ScalarValue(net_.critic.Forward(MeanPool(h)));
  }
  // Discounted returns, newest-to-oldest.
  std::vector<float> returns(n);
  float r = boot;
  for (std::size_t i = n; i-- > 0;) {
    r = rollout_[i].reward + cfg_.gamma * r;
    returns[i] = r;
  }
  // Each step's encoder draws, in rollout order, as one tape over the
  // rollout would make them.
  std::vector<Rng> step_rng;
  step_rng.reserve(n);
  for (const Step& step : rollout_) {
    step_rng.push_back(rng_);
    net_.encoder->AdvancePastEncode(step.state.graph, rng_);
  }

  if (width_ == 0) {
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    width_ = std::clamp(hw, 1, std::max(1, cfg_.train_interval));
    Rng scratch(0);  // replica values are overwritten by CopyParams below
    for (int j = 1; j < width_; ++j) {
      replicas_.push_back(MakeNets(cfg_, scratch));
    }
    if (width_ > 1) pool_ = std::make_unique<ThreadPool>(width_ - 1);
  }
  for (Nets& replica : replicas_) nn::CopyParams(net_.store, replica.store);

  // Waves of width_ steps, newest first. One tape over the whole rollout
  // would run its backward ops step by step, newest to oldest, so item 0
  // of a wave is next in that order: it runs on the agent's own nets and
  // accumulates straight into their gradients. Items j >= 1 run on replica
  // j - 1 and are reduced in item order after the wave. At most one wave
  // of tapes is alive.
  const float loss_scale = 1.0f / static_cast<float>(n);
  std::vector<float> policy_loss(n);
  std::vector<float> value_loss(n);
  std::vector<StepTape> tapes(static_cast<std::size_t>(width_));
  for (std::size_t first = 0; first < n; first += tapes.size()) {
    const std::size_t count = std::min(tapes.size(), n - first);
    const auto run = [&](std::size_t j, int /*worker*/) {
      const std::size_t i = n - 1 - (first + j);
      Nets& nets = j == 0 ? net_ : replicas_[j - 1];
      if (j > 0) nets.store.ZeroGrads();
      tapes[j] = RunStep(nets, rollout_[i], returns[i], step_rng[i],
                         loss_scale);
    };
    if (count == 1) {
      run(0, 0);
    } else {
      pool_->ParallelFor(count, run);
    }
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t i = n - 1 - (first + j);
      if (j > 0) {
        AccumulateStepGrads(tapes[j].root, replicas_[j - 1].store,
                            net_.store);
      }
      policy_loss[i] = tapes[j].policy_loss;
      value_loss[i] = tapes[j].value_loss;
      tapes[j] = StepTape{};
    }
  }
  float policy_loss_acc = 0.0f;
  float value_loss_acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    policy_loss_acc += policy_loss[i];
    value_loss_acc += value_loss[i];
  }
  opt_->Step();
  ++train_steps_;
  last_policy_loss_ = policy_loss_acc / static_cast<float>(n);
  last_value_loss_ = value_loss_acc / static_cast<float>(n);
}

// ---------------------------------------------------------------- SAC ----

Var SacAgent::Nets::Q1(const GraphState& s, Rng& rng) {
  return nn::Transpose(q1.Forward(encoder->Encode(s.graph, rng)));
}
Var SacAgent::Nets::Q2(const GraphState& s, Rng& rng) {
  return nn::Transpose(q2.Forward(encoder->Encode(s.graph, rng)));
}

std::unique_ptr<SacAgent::Nets> SacAgent::MakeNets(const SacConfig& cfg,
                                                   const std::string& prefix,
                                                   Rng& rng) {
  auto nets = std::make_unique<Nets>();
  nets->encoder = gnn::MakeEncoder(cfg.encoder, nets->store, prefix + ".enc",
                                   cfg.feature_dim, cfg.embed_dim, rng);
  nets->q1 = nn::Mlp::PaperHead(nets->store, prefix + ".q1", cfg.embed_dim, 1,
                                rng);
  nets->q2 = nn::Mlp::PaperHead(nets->store, prefix + ".q2", cfg.embed_dim, 1,
                                rng);
  return nets;
}

SacAgent::SacAgent(const SacConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  policy_encoder_ = gnn::MakeEncoder(cfg.encoder, policy_store_, "pi.enc",
                                     cfg.feature_dim, cfg.embed_dim, rng_);
  policy_head_ =
      nn::Mlp::PaperHead(policy_store_, "pi.head", cfg.embed_dim, 1, rng_);
  policy_opt_ = std::make_unique<nn::Adam>(policy_store_, cfg.adam);
  // Seed both Q copies identically so the target starts in sync.
  Rng q_rng(cfg.seed + 1);
  Rng q_rng_copy = q_rng;
  online_ = MakeNets(cfg, "on", q_rng);
  target_ = MakeNets(cfg, "tg", q_rng_copy);
  nn::CopyParams(online_->store, target_->store);
  q_opt_ = std::make_unique<nn::Adam>(online_->store, cfg.adam);
}

std::string SacAgent::name() const {
  return std::string(gnn::EncoderKindName(cfg_.encoder)) + "-SAC";
}

Var SacAgent::PolicyLogits(const GraphState& s) {
  const Var h = policy_encoder_->Encode(s.graph, rng_);
  return nn::Transpose(policy_head_.Forward(h));
}

int SacAgent::Act(const GraphState& state, bool greedy) {
  const int n = state.graph.num_nodes();
  TANGO_CHECK(n > 0, "empty graph state");
  const Matrix mask = MaskRow(state.valid, n);
  const Var probs = nn::Softmax(PolicyLogits(state), &mask);
  const int action = SampleRow(probs->value, rng_, greedy);
  pending_state_ = state;
  pending_action_ = action;
  return action;
}

void SacAgent::Observe(float reward, const GraphState& next_state, bool done) {
  TANGO_CHECK(pending_state_.has_value(), "Observe without Act");
  replay_.push_back({std::move(*pending_state_), pending_action_, reward,
                     next_state, done});
  pending_state_.reset();
  if (static_cast<int>(replay_.size()) > cfg_.replay_capacity) {
    replay_.pop_front();
  }
  ++act_count_;
  if (act_count_ % cfg_.train_every == 0 &&
      static_cast<int>(replay_.size()) >= cfg_.batch_size) {
    Train();
  }
}

void SacAgent::Train() {
  // Sample a minibatch uniformly.
  std::vector<const Transition*> batch;
  batch.reserve(static_cast<std::size_t>(cfg_.batch_size));
  for (int i = 0; i < cfg_.batch_size; ++i) {
    const auto idx = static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(replay_.size()) - 1));
    batch.push_back(&replay_[idx]);
  }

  // ---- Q update.
  Var q_loss;
  for (const Transition* tr : batch) {
    // Target: r + γ Σ_a π(a|s') (min Q_t(s',a) − α log π(a|s')).
    float target = tr->reward;
    if (!tr->done && tr->next.graph.num_nodes() > 0) {
      const int n2 = tr->next.graph.num_nodes();
      const Matrix mask2 = MaskRow(tr->next.valid, n2);
      const Var logits2 = PolicyLogits(tr->next);
      const Var probs2 = nn::Softmax(logits2, &mask2);
      const Var q1t = target_->Q1(tr->next, rng_);
      const Var q2t = target_->Q2(tr->next, rng_);
      float soft_v = 0.0f;
      for (int a = 0; a < n2; ++a) {
        const float p = probs2->value.at(0, a);
        if (p <= 0.0f) continue;
        const float qmin =
            std::min(q1t->value.at(0, a), q2t->value.at(0, a));
        soft_v += p * (qmin - cfg_.alpha * std::log(p));
      }
      target += cfg_.gamma * soft_v;
    }
    Matrix tmat(1, 1);
    tmat.at(0, 0) = target;
    const Var tvar = nn::Constant(std::move(tmat));
    const Var q1 = nn::GatherCols(online_->Q1(tr->state, rng_), {tr->action});
    const Var q2 = nn::GatherCols(online_->Q2(tr->state, rng_), {tr->action});
    const Var d1 = nn::Sub(q1, tvar);
    const Var d2 = nn::Sub(q2, tvar);
    const Var l = nn::Add(nn::Mul(d1, d1), nn::Mul(d2, d2));
    q_loss = q_loss ? nn::Add(q_loss, l) : l;
  }
  q_loss = nn::Scale(q_loss, 1.0f / static_cast<float>(cfg_.batch_size));
  nn::Backward(q_loss);
  q_opt_->Step();

  // ---- Policy update: minimize Σ_a π(a|s)(α log π − min Q).
  Var pi_loss;
  for (const Transition* tr : batch) {
    const int n = tr->state.graph.num_nodes();
    const Matrix mask = MaskRow(tr->state.valid, n);
    const Var logits = PolicyLogits(tr->state);
    const Var probs = nn::Softmax(logits, &mask);
    const Var logp = nn::LogSoftmax(logits, &mask);
    const Var q1 = online_->Q1(tr->state, rng_);
    const Var q2 = online_->Q2(tr->state, rng_);
    // min Q, detached (Q params are updated by q_opt_, not the policy step).
    Matrix qmin(1, n);
    for (int a = 0; a < n; ++a) {
      qmin.at(0, a) = std::min(q1->value.at(0, a), q2->value.at(0, a));
    }
    const Var inner = nn::Sub(nn::Scale(logp, cfg_.alpha),
                              nn::Constant(std::move(qmin)));
    const Var weighted = nn::Mul(probs, inner);
    const Var l = nn::Sum(weighted);
    pi_loss = pi_loss ? nn::Add(pi_loss, l) : l;
  }
  pi_loss = nn::Scale(pi_loss, 1.0f / static_cast<float>(cfg_.batch_size));
  nn::Backward(pi_loss);
  policy_opt_->Step();

  nn::SoftUpdateParams(online_->store, target_->store, cfg_.tau);
  ++train_steps_;
}

}  // namespace tango::rl
