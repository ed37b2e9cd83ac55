// Tomography denoising: the third application of the paper's evaluation —
// low-dose synchrotron CT frames restored by a TomoGAN-style denoiser
// (TomoNet), with the trained model published to the fairMS Zoo and the
// whole store snapshotted to disk so a later campaign can reload both the
// data and the model (the FAIR loop closed end to end).
#include <cstdio>
#include <string>

#include "datagen/tomography.hpp"
#include "fairms/zoo.hpp"
#include "models/models.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "store/persist.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

int main() {
  using namespace fairdms;
  std::printf("=== Tomography denoising (TomoNet) ===\n");

  // Low-dose acquisition: Poisson photon noise + readout noise.
  util::Rng rng(21);
  datagen::TomoConfig config;
  config.size = 64;
  config.dose = 10.0;
  const nn::Batchset train = datagen::make_tomo_batchset(config, 96, rng);
  const nn::Batchset val = datagen::make_tomo_batchset(config, 24, rng);

  // Train the denoiser to convergence.
  models::TaskModel model = models::make_tomonet(9);
  nn::Adam opt(model.net, 1e-3);
  nn::TrainConfig train_config;
  train_config.max_epochs = 15;
  train_config.batch_size = 16;
  train_config.on_epoch = [](std::size_t epoch, double train_loss,
                             double val_error) {
    if (epoch % 3 == 0) {
      std::printf("epoch %2zu: train %.5f  val %.5f\n", epoch, train_loss,
                  val_error);
    }
  };
  util::Rng train_rng(22);
  const nn::TrainResult result =
      nn::fit(model.net, opt, train, val, train_config, train_rng);

  // Denoising quality: MSE of the raw low-dose frame vs the restored one.
  const nn::Tensor restored = model.net.forward(val.xs, nn::Mode::kEval);
  const double raw_mse = nn::mse_loss(val.xs, val.ys).value;
  const double restored_mse = nn::mse_loss(restored, val.ys).value;
  std::printf("low-dose frame MSE %.5f -> restored %.5f (%.1fx cleaner, "
              "%zu epochs, %.1f s)\n",
              raw_mse, restored_mse, raw_mse / restored_mse,
              result.epochs_run, result.seconds);

  // Publish to the Zoo and snapshot the store — the FAIR handoff.
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  // Index by the dose/acquisition descriptor (tomography has no fairDS
  // embedding here; the distribution key is the acquisition setting).
  const auto zoo_id = zoo.publish("tomonet", "lowdose_run01",
                                  {config.dose / 100.0, 1.0 - config.dose / 100.0},
                                  nn::save_parameters(model.net));
  const std::string snapshot_dir = "/tmp/fairdms_tomo_campaign";
  if (const auto saved = store::try_save_store(db, snapshot_dir);
      !saved.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n", saved.error.c_str());
    return 1;
  }
  std::printf("published TomoNet as zoo model #%llu and snapshotted the "
              "store to %s\n",
              static_cast<unsigned long long>(zoo_id), snapshot_dir.c_str());

  // A later campaign reloads the store and retrieves the model.
  store::DocStore later;
  if (const auto loaded = store::try_load_store(later, snapshot_dir);
      !loaded.ok()) {
    std::fprintf(stderr, "reload failed: %s\n", loaded.error.c_str());
    return 1;
  }
  fairms::ModelZoo later_zoo(later);
  const auto record = later_zoo.fetch(zoo_id);
  models::TaskModel revived = models::make_tomonet(0);
  nn::load_parameters(revived.net, record->parameters);
  const double revived_mse =
      nn::mse_loss(revived.net.forward(val.xs, nn::Mode::kEval), val.ys)
          .value;
  std::printf("reloaded model reproduces val MSE %.5f (delta %.2g)\n",
              revived_mse, revived_mse - restored_mse);
  return 0;
}
