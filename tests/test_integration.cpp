// End-to-end integration: a miniature version of the paper's Fig. 15 case
// study run through the public API, asserting the paper's *relationships*
// rather than absolute timings:
//   - fairDS lookup is far cheaper than conventional labeling,
//   - fine-tuning the fairMS pick converges in no more epochs than scratch,
//   - both strategies reach the accuracy target,
//   - the updated model lands back in the Zoo with a matching distribution.
#include <gtest/gtest.h>
#include <vector>

#include "core/fairdms.hpp"
#include "datagen/bragg.hpp"
#include "labeling/voigt_fit.hpp"
#include "models/models.hpp"

namespace fairdms {
namespace {

class CaseStudy : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::HedmTimelineConfig timeline_config;
    timeline_config.n_scans = 8;
    // Two distinct regimes (scans 0-1 vs 2-3): makes the ranking assertions
    // decisive instead of sampling-noise-limited.
    timeline_config.deformation_scans = {2};
    timeline_ = std::make_unique<datagen::HedmTimeline>(timeline_config);

    fairds::FairDSConfig ds_config;
    ds_config.n_clusters = 6;
    ds_config.embed_train.epochs = 4;
    ds_config.seed = 404;
    ds_ = std::make_unique<fairds::FairDS>(ds_config, db_);

    // History: scans 0-3 ingested; zoo: one converged model per scan.
    nn::Tensor all({4 * 96, 1, 15, 15});
    for (std::size_t s = 0; s < 4; ++s) {
      history_.push_back(timeline_->dataset_at(s, 96, 404));
      std::copy_n(history_[s].xs.data(), history_[s].xs.numel(),
                  all.data() + s * 96 * 225);
    }
    ds_->train_system(all);
    for (std::size_t s = 0; s < 4; ++s) {
      ds_->ingest(history_[s].xs, history_[s].ys,
                  "scan_" + std::to_string(s));
    }

    core::FairDMSConfig config;
    config.architecture = "braggnn";
    config.train.max_epochs = 40;
    config.train.batch_size = 32;
    config.train.target_val_error = 1.5e-3;
    config.scratch_lr = 1e-3;
    config.fine_tune_lr = 2e-4;
    config.seed = 405;
    system_ = std::make_unique<core::FairDMS>(config, *ds_, db_);
    for (std::size_t s = 0; s < 4; ++s) {
      auto model = models::make_braggnn(500 + s);
      system_->train_and_publish(model, history_[s], history_[s],
                                 "scan_" + std::to_string(s));
    }
  }

  store::DocStore db_;
  std::unique_ptr<datagen::HedmTimeline> timeline_;
  std::vector<nn::Batchset> history_;
  std::unique_ptr<fairds::FairDS> ds_;
  std::unique_ptr<core::FairDMS> system_;
};

TEST_F(CaseStudy, FairDmsBeatsConventionalEndToEnd) {
  // New data from the regime history covers (fresh draws of scan 3).
  const nn::Batchset new_data = timeline_->dataset_at(3, 96, 777);
  const nn::Batchset validation = timeline_->dataset_at(3, 48, 778);

  const auto fairdms = system_->update_model(
      new_data.xs, validation, core::UpdateStrategy::kFairDMS);
  const auto retrain = system_->update_model(
      new_data.xs, validation, core::UpdateStrategy::kRetrain);
  double conventional_label_seconds = 0.0;
  const auto conventional = system_->update_model(
      new_data.xs, validation, core::UpdateStrategy::kConventional,
      [&](const nn::Tensor& xs) {
        return labeling::label_patches(xs, {}, &conventional_label_seconds);
      });

  // Labeling: reuse is at least 3x cheaper than running the physics code
  // (in the paper it is orders of magnitude; patches here are small).
  EXPECT_GT(conventional.label_seconds, 3.0 * fairdms.label_seconds)
      << "conventional=" << conventional.label_seconds
      << " fairdms=" << fairdms.label_seconds;

  // Model reuse: the recommendation engaged and fine-tuning needed no more
  // epochs than training from scratch.
  EXPECT_TRUE(fairdms.fine_tuned);
  EXPECT_LE(fairdms.epochs, retrain.epochs);

  // Both reached the accuracy target.
  EXPECT_LE(fairdms.final_val_error, 1.5e-3 * 1.05);
  EXPECT_LE(retrain.final_val_error, 1.5e-3 * 1.05);

  // The updates were published: 4 seeds + 3 updates.
  EXPECT_EQ(system_->zoo().size(), 7u);
  const auto record = system_->zoo().fetch(fairdms.published_model);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->train_pdf.size(), ds_->snapshot()->n_clusters());
}

TEST_F(CaseStudy, RecommendationPrefersMatchingRegime) {
  // For fresh scan-0 data, the zoo model trained on scan 0 (or its regime
  // neighbour scan 1) must outrank the scan-3 model.
  const nn::Batchset probe = timeline_->dataset_at(0, 96, 900);
  const auto pdf = ds_->snapshot()->distribution(probe.xs);
  const auto ranked = system_->manager().rank("braggnn", pdf);
  ASSERT_EQ(ranked.size(), 4u);
  const auto best = system_->zoo().fetch(ranked.front().model_id);
  const auto worst = system_->zoo().fetch(ranked.back().model_id);
  EXPECT_LT(ranked.front().distance, ranked.back().distance);
  // Dataset ids are "scan_<i>": the best match must be an early scan and
  // the worst a late one.
  EXPECT_TRUE(best->dataset_id == "scan_0" || best->dataset_id == "scan_1")
      << "best=" << best->dataset_id;
  EXPECT_TRUE(worst->dataset_id == "scan_2" || worst->dataset_id == "scan_3")
      << "worst=" << worst->dataset_id;
}

TEST_F(CaseStudy, ThresholdForcesScratchTrainingOnAlienData) {
  // A manager with a near-zero threshold declines every foundation; the
  // pipeline must fall back to scratch training without error.
  core::FairDMSConfig config;
  config.architecture = "braggnn";
  config.train.max_epochs = 5;
  config.distance_threshold = 1e-6;
  config.seed = 42;
  core::FairDMS strict(config, *ds_, db_);
  const nn::Batchset new_data = timeline_->dataset_at(2, 48, 1000);
  const auto report = strict.update_model(new_data.xs, new_data,
                                          core::UpdateStrategy::kFairDMS);
  EXPECT_FALSE(report.fine_tuned);
  EXPECT_GT(report.epochs, 0u);
}

}  // namespace
}  // namespace fairdms
