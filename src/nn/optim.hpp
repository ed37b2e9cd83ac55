// First-order optimizers over a model's (params, grads) tensor lists.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace fairdms::nn {

class Optimizer {
 public:
  explicit Optimizer(Layer& model) : model_(&model) {}
  virtual ~Optimizer() = default;

  virtual void step() = 0;
  void zero_grad() { model_->zero_grad(); }

  [[nodiscard]] double learning_rate() const { return lr_; }

 protected:
  Layer* model_;
  double lr_ = 1e-3;
};

/// SGD with classical momentum and optional L2 weight decay.
class SGD final : public Optimizer {
 public:
  SGD(Layer& model, double lr, double momentum = 0.9,
      double weight_decay = 0.0);
  void step() override;

 private:
  double momentum_;
  double weight_decay_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(Layer& model, double lr, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8, double weight_decay = 0.0);
  void step() override;

 private:
  double beta1_, beta2_, eps_, weight_decay_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace fairdms::nn
