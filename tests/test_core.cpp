// Core tests: task-model factories, degradation monitor baseline/trigger
// behaviour, and the FairDMS end-to-end update across all three strategies.
#include <gtest/gtest.h>
#include <vector>

#include "core/degradation.hpp"
#include "core/fairdms.hpp"
#include "datagen/bragg.hpp"
#include "models/models.hpp"
#include "nn/loss.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using tensor::Tensor;

TEST(Models, FactoriesProduceExpectedShapes) {
  util::Rng rng(1);
  auto bragg = models::make_braggnn(1);
  const Tensor patch = Tensor::randn({4, 1, 15, 15}, rng);
  EXPECT_EQ(bragg.net.forward(patch, nn::Mode::kEval).shape(),
            (std::vector<std::size_t>{4, 2}));

  auto cookie = models::make_cookienetae(2);
  const Tensor hist = Tensor::randn({2, 1, 32, 32}, rng);
  EXPECT_EQ(cookie.net.forward(hist, nn::Mode::kEval).shape(),
            (std::vector<std::size_t>{2, 1, 32, 32}));

  auto tomo = models::make_tomonet(3);
  const Tensor frame = Tensor::randn({2, 1, 48, 48}, rng);
  EXPECT_EQ(tomo.net.forward(frame, nn::Mode::kEval).shape(),
            (std::vector<std::size_t>{2, 1, 48, 48}));

  auto named = models::make_model("braggnn", 4);
  EXPECT_EQ(named.architecture, "braggnn");
}

TEST(ModelsDeathTest, UnknownArchitectureAborts) {
  EXPECT_DEATH(models::make_model("resnet", 1), "unknown architecture");
}

TEST(DegradationMonitor, BaselineThenFlagsOutliers) {
  util::Rng rng(5);
  auto model = models::make_braggnn(5);
  const Tensor xs = Tensor::randn({8, 1, 15, 15}, rng);

  core::DegradationConfig config;
  config.baseline_window = 3;
  config.error_factor = 1.5;
  config.mc_samples = 4;
  core::DegradationMonitor monitor(config);

  // Three baseline observations around error 0.1.
  for (double e : {0.1, 0.11, 0.09}) {
    const auto obs = monitor.observe(model.net, xs, e);
    EXPECT_FALSE(obs.degraded);
  }
  EXPECT_NEAR(monitor.baseline_error(), 0.1, 0.01);
  // In-band observation: fine.
  EXPECT_FALSE(monitor.observe(model.net, xs, 0.12).degraded);
  EXPECT_FALSE(monitor.degradation_detected());
  // Out-of-band: flagged.
  EXPECT_TRUE(monitor.observe(model.net, xs, 0.5).degraded);
  EXPECT_TRUE(monitor.degradation_detected());
  EXPECT_EQ(monitor.history().size(), 5u);

  monitor.reset();
  EXPECT_TRUE(monitor.history().empty());
  EXPECT_FALSE(monitor.degradation_detected());
}

class FairDmsEndToEnd : public ::testing::Test {
 protected:
  static nn::Batchset regime_data(double drift, std::size_t n,
                                  std::uint64_t seed) {
    util::Rng rng(seed);
    datagen::BraggRegime regime;
    regime.sigma_major_mean *= 1.0 + drift;
    return datagen::make_bragg_batchset(regime, {}, n, rng);
  }

  void SetUp() override {
    fairds::FairDSConfig ds_config;
    ds_config.embedding_algorithm = "byol";
    ds_config.embedding_dim = 8;
    ds_config.n_clusters = 4;
    ds_config.embed_train.epochs = 3;
    ds_config.seed = 21;
    ds_ = std::make_unique<fairds::FairDS>(ds_config, db_);

    history_ = regime_data(0.0, 96, 31);
    ds_->train_system(history_.xs);
    ds_->ingest(history_.xs, history_.ys, "history");

    core::FairDMSConfig config;
    config.architecture = "braggnn";
    config.train.max_epochs = 8;
    config.train.batch_size = 24;
    config.distance_threshold = 1.0;
    config.seed = 77;
    system_ = std::make_unique<core::FairDMS>(config, *ds_, db_);
  }

  store::DocStore db_;
  nn::Batchset history_;
  std::unique_ptr<fairds::FairDS> ds_;
  std::unique_ptr<core::FairDMS> system_;
};

TEST_F(FairDmsEndToEnd, TrainAndPublishSeedsZoo) {
  auto model = models::make_braggnn(1);
  const auto id = system_->train_and_publish(model, history_, history_,
                                             "history");
  EXPECT_NE(id, 0u);
  EXPECT_EQ(system_->zoo().size(), 1u);
  const auto rec = system_->zoo().fetch(id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->train_pdf.size(), 4u);
}

TEST_F(FairDmsEndToEnd, UpdateModelFairDmsFineTunesFromZoo) {
  auto seed_model = models::make_braggnn(2);
  system_->train_and_publish(seed_model, history_, history_, "history");

  const nn::Batchset new_data = regime_data(0.05, 48, 32);
  // The pick update_model must make: recommend over the new data's PDF
  // under the current snapshot, the answer a RecommendRequest gets.
  const auto expected = system_->manager().recommend(
      "braggnn", ds_->snapshot()->distribution(new_data.xs));
  ASSERT_TRUE(expected.has_value());
  const auto report = system_->update_model(
      new_data.xs, new_data, core::UpdateStrategy::kFairDMS);
  EXPECT_TRUE(report.fine_tuned);
  EXPECT_EQ(report.foundation_distance, expected->distance);  // bit for bit
  EXPECT_GT(report.label_seconds, 0.0);
  EXPECT_GT(report.train_seconds, 0.0);
  EXPECT_GT(report.epochs, 0u);
  EXPECT_NE(report.published_model, 0u);
  EXPECT_NEAR(report.total_seconds,
              report.label_seconds + report.recommend_seconds +
                  report.train_seconds + report.transfer_seconds,
              1e-9);
  // The update itself lands in the zoo (1 seed + 1 update), indexed by the
  // new data's PDF under the current snapshot.
  EXPECT_EQ(system_->zoo().size(), 2u);
  const auto published = system_->zoo().fetch(report.published_model);
  ASSERT_TRUE(published.has_value());
  EXPECT_EQ(published->train_pdf,
            ds_->snapshot()->distribution(new_data.xs));
}

TEST_F(FairDmsEndToEnd, UpdateModelRetrainSkipsRecommendation) {
  auto seed_model = models::make_braggnn(3);
  system_->train_and_publish(seed_model, history_, history_, "history");
  const nn::Batchset new_data = regime_data(0.05, 32, 33);
  const auto report = system_->update_model(
      new_data.xs, new_data, core::UpdateStrategy::kRetrain);
  EXPECT_FALSE(report.fine_tuned);
  EXPECT_DOUBLE_EQ(report.recommend_seconds, 0.0);
}

TEST_F(FairDmsEndToEnd, UpdateModelConventionalUsesLabeler) {
  const nn::Batchset new_data = regime_data(0.05, 32, 34);
  std::size_t labeler_calls = 0;
  const auto report = system_->update_model(
      new_data.xs, new_data, core::UpdateStrategy::kConventional,
      [&](const Tensor& xs) {
        ++labeler_calls;
        return Tensor({xs.dim(0), 2});
      },
      /*label_seconds_override=*/123.0);
  EXPECT_EQ(labeler_calls, 1u);
  EXPECT_DOUBLE_EQ(report.label_seconds, 123.0);
  EXPECT_FALSE(report.fine_tuned);
}

TEST_F(FairDmsEndToEnd, TransferAccountingWhenServiceAttached) {
  workflow::TransferService transfers;
  transfers.set_link("beamline", "compute",
                     {.latency_seconds = 0.01,
                      .bandwidth_bytes_per_s = 1e9});
  transfers.set_link("compute", "beamline",
                     {.latency_seconds = 0.01,
                      .bandwidth_bytes_per_s = 1e9});
  core::FairDMSConfig config;
  config.architecture = "braggnn";
  config.train.max_epochs = 2;
  config.transfers = &transfers;
  config.seed = 5;
  core::FairDMS system(config, *ds_, db_);

  const nn::Batchset new_data = regime_data(0.0, 16, 35);
  const auto report = system.update_model(new_data.xs, new_data,
                                          core::UpdateStrategy::kRetrain);
  EXPECT_GT(report.transfer_seconds, 0.0);
  EXPECT_EQ(transfers.stats("beamline", "compute").transfers, 1u);
  EXPECT_EQ(transfers.stats("compute", "beamline").transfers, 1u);
}

}  // namespace
}  // namespace fairdms
