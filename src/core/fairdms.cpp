#include "core/fairdms.hpp"

#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace fairdms::core {

FairDMS::FairDMS(FairDMSConfig config, fairds::FairDS& ds,
                 store::DocStore& db)
    : config_(std::move(config)),
      ds_(&ds),
      zoo_(db, config_.model_cache_bytes),
      manager_(zoo_, config_.distance_threshold) {}

std::shared_ptr<const fairds::Snapshot> FairDMS::snapshot() const {
  auto snap = ds_->snapshot();
  FAIRDMS_CHECK(snap != nullptr, "FairDMS: fairDS not trained");
  return snap;
}

double FairDMS::charge_transfer(const std::string& src, const std::string& dst,
                                std::uint64_t bytes) const {
  if (config_.transfers == nullptr) return 0.0;
  return config_.transfers->transfer(src, dst, bytes);
}

store::DocId FairDMS::train_and_publish(models::TaskModel& model,
                                        const nn::Batchset& train,
                                        const nn::Batchset& val,
                                        const std::string& dataset_id) {
  util::Rng rng(config_.seed ^ (++update_counter_ * 0x9E3779B9ull));
  nn::Adam opt(model.net, config_.scratch_lr);
  nn::fit(model.net, opt, train, val, config_.train, rng);
  return zoo_.publish(model.architecture, dataset_id,
                      snapshot()->distribution(train.xs),
                      nn::save_parameters(model.net));
}

UpdateReport FairDMS::update_model(
    const Tensor& new_xs, const nn::Batchset& validation,
    UpdateStrategy strategy,
    const std::function<Tensor(const Tensor&)>& conventional_labeler,
    std::optional<double> label_seconds_override) {
  UpdateReport report;
  ++update_counter_;
  // One snapshot for the whole update: the lookup, the PDF the foundation
  // is ranked by and the PDF the update is published under all come from
  // one clustering, even when a retrain lands mid-update.
  const auto snap = snapshot();
  // Training stochasticity is seeded from the config alone so that
  // strategies compared on the same data differ only in what the strategy
  // changes (labels and initialization), not in shuffle order.
  util::Rng rng(config_.seed ^ 0xD134'2543'DE82'EF95ull);

  // (0) Move the new data to the compute facility.
  report.transfer_seconds += charge_transfer(
      config_.source_endpoint, config_.compute_endpoint, new_xs.numel() * 4);

  // (1) Acquire labeled training data.
  nn::Batchset train;
  {
    util::WallTimer timer;
    if (strategy == UpdateStrategy::kConventional) {
      FAIRDMS_CHECK(conventional_labeler != nullptr,
                    "kConventional needs a labeler");
      train.xs = new_xs;
      train.ys = conventional_labeler(new_xs);
    } else {
      train = snap->lookup(new_xs, config_.seed + update_counter_);
    }
    report.label_seconds = timer.seconds();
  }
  if (label_seconds_override.has_value()) {
    report.label_seconds = *label_seconds_override;
  }

  // (2) Choose the foundation model by the new data's PDF, computed once
  // for the recommend and the publish.
  models::TaskModel model = models::make_model(
      config_.architecture, config_.seed, config_.patch_size);
  double lr = config_.scratch_lr;
  util::WallTimer recommend_timer;
  const std::vector<double> new_pdf = snap->distribution(new_xs);
  if (strategy == UpdateStrategy::kFairDMS) {
    const auto pick = manager_.recommend(config_.architecture, new_pdf);
    report.recommend_seconds = recommend_timer.seconds();
    if (pick.has_value()) {
      // Cached load: a foundation picked repeatedly (the steady state when
      // the data distribution is stable) transfers zero store bytes after
      // its first fetch.
      const auto record = zoo_.fetch_cached(pick->model_id);
      FAIRDMS_CHECK(record != nullptr, "recommended model vanished");
      nn::load_parameters(model.net, *record->parameters);
      report.fine_tuned = true;
      report.foundation_model = pick->model_id;
      report.foundation_distance = pick->distance;
      lr = config_.fine_tune_lr;
    }
    // No model within threshold => fall through to training from scratch
    // (paper §II-C).
  }

  // (3) Train to convergence.
  {
    util::WallTimer timer;
    nn::Adam opt(model.net, lr);
    const nn::TrainResult result =
        nn::fit(model.net, opt, train, validation, config_.train, rng);
    report.train_seconds = timer.seconds();
    report.epochs = result.epochs_run;
    report.convergence_epoch = result.convergence_epoch;
    report.final_val_error = result.final_val_error;
  }

  // (4) Publish the updated model and return it to the user.
  auto blob = nn::save_parameters(model.net);
  report.transfer_seconds += charge_transfer(
      config_.compute_endpoint, config_.source_endpoint, blob.size());
  report.published_model =
      zoo_.publish(config_.architecture,
                   "update_" + std::to_string(update_counter_), new_pdf,
                   std::move(blob));

  report.total_seconds = report.label_seconds + report.recommend_seconds +
                         report.train_seconds + report.transfer_seconds;
  return report;
}

}  // namespace fairdms::core
