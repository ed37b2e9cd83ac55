// Shared harness for the learning-curve figures (Figs. 13-14): fine-tune
// the Best / Median / Worst fairMS-ranked zoo model vs retraining from
// scratch, recording the validation-error curve of each arm.
#pragma once

#include <array>
#include <cstdio>
#include <string>

#include "zoo_common.hpp"

namespace fairdms::bench {

inline constexpr const char* kArmNames[4] = {"Retrain", "FineTune-B",
                                             "FineTune-M", "FineTune-W"};

struct CurveResult {
  std::array<std::vector<double>, 4> curves;  ///< Retrain, FT-B, FT-M, FT-W
  std::array<std::size_t, 4> convergence{};   ///< 1-based epoch, 0 = never
};

/// Runs the four arms on one test dataset: `train` is the new data to adapt
/// to, `val` a held-out split of the same distribution. `target` is the
/// validation error that counts as converged.
inline CurveResult run_curves(const ZooHarness& harness, const ZooSpec& spec,
                              const nn::Batchset& train,
                              const nn::Batchset& val, std::size_t epochs,
                              double target, double fine_tune_lr) {
  const auto pdf = harness.ds->snapshot()->distribution(train.xs);
  fairms::ModelManager manager(*harness.zoo, 1.0);
  const auto ranked = manager.rank(spec.architecture, pdf);

  CurveResult result;
  for (int arm = 0; arm < 4; ++arm) {
    models::TaskModel model = models::make_model(
        spec.architecture, spec.seed + 555 + static_cast<std::size_t>(arm),
        spec.image_size);
    double lr = spec.learning_rate;
    if (arm > 0) {
      const std::size_t pick =
          arm == 1 ? 0 : (arm == 2 ? ranked.size() / 2 : ranked.size() - 1);
      const auto record = harness.zoo->fetch(ranked[pick].model_id);
      nn::load_parameters(model.net, record->parameters);
      lr = fine_tune_lr;
    }
    util::Rng rng(spec.seed + 999 + static_cast<std::size_t>(arm));
    nn::Adam opt(model.net, lr);
    nn::TrainConfig config;
    config.max_epochs = epochs;
    config.batch_size = 32;
    const nn::TrainResult r = nn::fit(model.net, opt, train, val, config,
                                      rng);
    result.curves[static_cast<std::size_t>(arm)] = r.curve;
    // Convergence epoch relative to the shared target.
    for (std::size_t e = 0; e < r.curve.size(); ++e) {
      if (r.curve[e] <= target) {
        result.convergence[static_cast<std::size_t>(arm)] = e + 1;
        break;
      }
    }
  }
  return result;
}

inline void print_curves(const CurveResult& result, std::size_t epochs,
                         double target) {
  print_row("epoch", kArmNames[0], kArmNames[1], kArmNames[2], kArmNames[3]);
  for (std::size_t e = 0; e < epochs; ++e) {
    auto cell = [&](int arm) {
      const auto& curve = result.curves[static_cast<std::size_t>(arm)];
      return e < curve.size() ? curve[e] : curve.back();
    };
    print_row(e + 1, cell(0), cell(1), cell(2), cell(3));
  }
  std::printf("epochs to reach val error <= %g:\n", target);
  for (int arm = 0; arm < 4; ++arm) {
    const std::size_t c = result.convergence[static_cast<std::size_t>(arm)];
    if (c == 0) {
      std::printf("  %-12s not reached in %zu epochs\n", kArmNames[arm],
                  epochs);
    } else {
      std::printf("  %-12s %zu\n", kArmNames[arm], c);
    }
  }
}

}  // namespace fairdms::bench
