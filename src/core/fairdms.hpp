// FairDMS facade (paper Fig. 5): composes fairDS (labeled-data reuse) and
// fairMS (model recommendation) into the rapid model-update workflow that
// Fig. 15 measures end to end:
//
//   new unlabeled data -> [transfer in] -> acquire labels -> recommend
//   foundation -> fine-tune or retrain -> publish to Zoo -> [transfer out]
//
// Three strategies mirror the paper's comparison arms:
//   kFairDMS      — fairDS pseudo-labels + fine-tune the fairMS pick
//   kRetrain      — fairDS pseudo-labels + train from scratch
//   kConventional — caller-supplied conventional labeler (pseudo-Voigt)
//                   + train from scratch
//
// The workflow's fairDS queries (the PDF-matched lookup, the new data's
// PDF that the foundation is ranked by and the update is published under)
// run on one fairds::Snapshot, loaded once when the update starts; a fairDS
// that was never trained aborts the update.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "models/models.hpp"
#include "nn/trainer.hpp"
#include "workflow/transfer.hpp"

namespace fairdms::core {

using tensor::Tensor;

enum class UpdateStrategy { kFairDMS, kRetrain, kConventional };

struct FairDMSConfig {
  std::string architecture = "braggnn";
  std::size_t patch_size = 15;
  double distance_threshold = 0.5;  ///< fairMS "train from scratch" cutoff
  nn::TrainConfig train;            ///< convergence target applies to all arms
  double fine_tune_lr = 5e-4;       ///< smaller LR when starting from a model
  double scratch_lr = 1e-3;
  /// Byte budget of the fairMS parameter-blob cache; repeat foundation
  /// loads within the budget cost zero store traffic. 0 disables caching.
  std::size_t model_cache_bytes = fairms::ModelZoo::kDefaultCacheBytes;
  std::uint64_t seed = 99;
  /// Optional transfer accounting (beamline <-> compute endpoints).
  workflow::TransferService* transfers = nullptr;
  std::string source_endpoint = "beamline";
  std::string compute_endpoint = "compute";
};

struct UpdateReport {
  double label_seconds = 0.0;      ///< acquiring labels for the new data
  double recommend_seconds = 0.0;  ///< fairMS ranking (zero for scratch arms)
  double train_seconds = 0.0;
  double transfer_seconds = 0.0;   ///< simulated data/model movement
  double total_seconds = 0.0;
  bool fine_tuned = false;
  store::DocId foundation_model = 0;  ///< 0 when trained from scratch
  double foundation_distance = 0.0;  ///< JSD of the chosen foundation
  std::size_t epochs = 0;
  std::size_t convergence_epoch = 0;
  double final_val_error = 0.0;
  store::DocId published_model = 0;
  fairds::ReuseStats reuse;        ///< only for per-sample labeled arms
};

class FairDMS {
 public:
  FairDMS(FairDMSConfig config, fairds::FairDS& ds, store::DocStore& db);

  [[nodiscard]] fairms::ModelZoo& zoo() { return zoo_; }
  [[nodiscard]] fairms::ModelManager& manager() { return manager_; }
  [[nodiscard]] const FairDMSConfig& config() const { return config_; }

  /// Trains `model` on `train`, publishes it with the training data's
  /// distribution, and returns the zoo id. Used to seed the Zoo with
  /// historical models.
  store::DocId train_and_publish(models::TaskModel& model,
                                 const nn::Batchset& train,
                                 const nn::Batchset& val,
                                 const std::string& dataset_id);

  /// The end-to-end model update of Fig. 15. `conventional_labeler` is only
  /// consulted for kConventional (it should run the pseudo-Voigt code and
  /// may account cluster-projected time itself via label_seconds_override).
  UpdateReport update_model(
      const Tensor& new_xs, const nn::Batchset& validation,
      UpdateStrategy strategy,
      const std::function<Tensor(const Tensor&)>& conventional_labeler = {},
      std::optional<double> label_seconds_override = std::nullopt);

 private:
  /// fairDS's current snapshot; aborts when fairDS was never trained.
  [[nodiscard]] std::shared_ptr<const fairds::Snapshot> snapshot() const;
  [[nodiscard]] double charge_transfer(const std::string& src,
                                       const std::string& dst,
                                       std::uint64_t bytes) const;

  FairDMSConfig config_;
  fairds::FairDS* ds_;
  fairms::ModelZoo zoo_;
  fairms::ModelManager manager_;
  std::uint64_t update_counter_ = 0;
};

}  // namespace fairdms::core
