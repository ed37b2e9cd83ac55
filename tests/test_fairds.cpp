// fairDS tests: system-plane training, ingestion, distribution/lookup
// fidelity, per-sample label reuse with threshold + fallback, the
// uncertainty-triggered retrain, and a model update racing retrains.
#include <gtest/gtest.h>

#include <cmath>
#include <stop_token>
#include <thread>
#include <vector>

#include "core/fairdms.hpp"
#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairms/jsd.hpp"
#include "models/models.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using tensor::Tensor;

fairds::FairDSConfig small_config(std::size_t k = 4) {
  fairds::FairDSConfig config;
  config.embedding_algorithm = "byol";
  config.embedding_dim = 8;
  config.image_size = 15;
  config.n_clusters = k;
  config.embed_train.epochs = 3;
  config.embed_train.batch_size = 24;
  // A single continuous regime clusters softly (fuzzy max-membership sits
  // near 0.7 with K=4); keep the trigger below that so same-regime data does
  // not retrain. The Fig. 16 bench uses genuinely multimodal history where
  // certainty is much higher.
  config.certainty_threshold = 0.55;
  config.seed = 17;
  return config;
}

nn::Batchset regime_data(double drift, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  datagen::BraggRegime regime;
  regime.sigma_major_mean *= 1.0 + drift;
  regime.eta_mean = std::min(0.95, regime.eta_mean + drift * 0.5);
  return datagen::make_bragg_batchset(regime, {}, n, rng);
}

class FairDsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = regime_data(0.0, 96, 1);
    ds_ = std::make_unique<fairds::FairDS>(small_config(), db_);
    ds_->train_system(history_.xs);
    ds_->ingest(history_.xs, history_.ys, "history_0");
  }

  store::DocStore db_;
  nn::Batchset history_;
  std::unique_ptr<fairds::FairDS> ds_;
};

TEST_F(FairDsFixture, TrainedStateAndStoredCount) {
  const auto snap = ds_->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(ds_->stored_count(), 96u);
  EXPECT_EQ(snap->n_clusters(), 4u);
  EXPECT_EQ(snap->clusters().k(), 4u);
}

TEST_F(FairDsFixture, DistributionIsAPdf) {
  const auto pdf = ds_->snapshot()->distribution(history_.xs);
  ASSERT_EQ(pdf.size(), 4u);
  double sum = 0.0;
  for (double v : pdf) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(FairDsFixture, EmbedShape) {
  const Tensor e = ds_->snapshot()->embed(history_.xs);
  EXPECT_EQ(e.shape(), (std::vector<std::size_t>{96, 8}));
}

TEST_F(FairDsFixture, LookupReturnsMatchingCountAndDistribution) {
  const nn::Batchset query = regime_data(0.02, 48, 2);
  const auto snap = ds_->snapshot();
  const nn::Batchset retrieved = snap->lookup(query.xs, 99);
  EXPECT_EQ(retrieved.size(), 48u);
  EXPECT_EQ(retrieved.xs.shape(),
            (std::vector<std::size_t>{48, 1, 15, 15}));
  EXPECT_EQ(retrieved.ys.dim(1), 2u);

  // The retrieved set's cluster distribution should be close to the query's
  // (that is the whole lookup contract).
  const auto query_pdf = snap->distribution(query.xs);
  const auto got_pdf = snap->distribution(retrieved.xs);
  EXPECT_LT(fairms::jensen_shannon_divergence(query_pdf, got_pdf), 0.2);
}

TEST_F(FairDsFixture, LookupIsSeedDeterministic) {
  const nn::Batchset query = regime_data(0.0, 16, 3);
  const auto snap = ds_->snapshot();
  const auto a = snap->lookup(query.xs, 7);
  const auto b = snap->lookup(query.xs, 7);
  for (std::size_t i = 0; i < a.xs.numel(); ++i) {
    ASSERT_EQ(a.xs[i], b.xs[i]);
  }
}

TEST_F(FairDsFixture, LookupOrLabelReusesForSimilarData) {
  // Query from the same regime as history: a generous threshold should
  // reuse essentially everything.
  const nn::Batchset query = regime_data(0.0, 24, 4);
  fairds::ReuseStats stats;
  std::size_t fallback_calls = 0;
  const auto labeled = ds_->snapshot()->lookup_or_label(
      query.xs, /*threshold=*/1e9,
      [&](const Tensor& xs) {
        ++fallback_calls;
        return Tensor({xs.dim(0), 2});
      },
      &stats);
  EXPECT_EQ(stats.reused, 24u);
  EXPECT_EQ(stats.computed, 0u);
  EXPECT_EQ(fallback_calls, 0u);
  EXPECT_EQ(labeled.size(), 24u);
}

TEST_F(FairDsFixture, LookupOrLabelFallsBackForTinyThreshold) {
  const nn::Batchset query = regime_data(0.0, 12, 5);
  fairds::ReuseStats stats;
  const auto labeled = ds_->snapshot()->lookup_or_label(
      query.xs, /*threshold=*/1e-12,
      [&](const Tensor& xs) {
        Tensor ys({xs.dim(0), 2});
        ys.fill_(0.123f);
        return ys;
      },
      &stats);
  EXPECT_EQ(stats.computed, 12u);
  EXPECT_EQ(stats.reused, 0u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_FLOAT_EQ(labeled.ys.at(i, 0), 0.123f);
  }
}

TEST_F(FairDsFixture, ReusedPairsAreInternallyConsistent) {
  // Fig. 9's BO construction returns *historical pairs* {p, l(p)}: each
  // reused image must carry its own label. Check image/label consistency
  // via the intensity centroid of the returned patch.
  const nn::Batchset query = regime_data(0.0, 24, 6);
  const auto labeled = ds_->snapshot()->lookup_or_label(
      query.xs, 1e9, [](const Tensor& xs) { return Tensor({xs.dim(0), 2}); });
  for (std::size_t i = 0; i < 24; ++i) {
    double cx = 0.0, cy = 0.0;
    datagen::intensity_centroid({labeled.xs.data() + i * 225, 225}, 15, cx,
                                cy);
    const double label_x =
        static_cast<double>(labeled.ys.at(i, 0)) * 15.0 + 7.0;
    const double label_y =
        static_cast<double>(labeled.ys.at(i, 1)) * 15.0 + 7.0;
    EXPECT_NEAR(cx, label_x, 1.5) << "pair " << i;
    EXPECT_NEAR(cy, label_y, 1.5) << "pair " << i;
  }
}

TEST_F(FairDsFixture, CertaintyHighInRegimeLowAfterBigShift) {
  const auto snap = ds_->snapshot();
  EXPECT_GT(snap->certainty(history_.xs), 0.55);
  const nn::Batchset shifted = regime_data(1.6, 48, 7);
  EXPECT_LT(snap->certainty(shifted.xs), snap->certainty(history_.xs));
}

TEST_F(FairDsFixture, MaybeRetrainTriggersOnlyBelowThreshold) {
  // Same-regime data: no trigger.
  const nn::Batchset same = regime_data(0.0, 32, 8);
  EXPECT_FALSE(ds_->maybe_retrain(same.xs));
  EXPECT_EQ(ds_->retrain_count(), 0u);
}

TEST(FairDs, RetrainRestoresCertaintyAfterRegimeShift) {
  store::DocStore db;
  auto config = small_config();
  config.certainty_threshold = 0.85;
  fairds::FairDS ds(config, db);
  const nn::Batchset history = regime_data(0.0, 80, 10);
  ds.train_system(history.xs);
  ds.ingest(history.xs, history.ys, "h");

  const nn::Batchset shifted = regime_data(1.8, 64, 11);
  const double before = ds.snapshot()->certainty(shifted.xs);
  if (before < config.certainty_threshold) {
    EXPECT_TRUE(ds.maybe_retrain(shifted.xs));
    EXPECT_EQ(ds.retrain_count(), 1u);
    const double after = ds.snapshot()->certainty(shifted.xs);
    EXPECT_GT(after, before);
  } else {
    GTEST_SKIP() << "shift did not reduce certainty below threshold";
  }
}

TEST(FairDs, ElbowSelectsClusterCountWhenUnset) {
  store::DocStore db;
  auto config = small_config();
  config.n_clusters = 0;  // elbow
  config.elbow_k_min = 2;
  config.elbow_k_max = 8;
  fairds::FairDS ds(config, db);
  const nn::Batchset history = regime_data(0.0, 64, 12);
  ds.train_system(history.xs);
  const std::size_t k = ds.snapshot()->n_clusters();
  EXPECT_GE(k, 2u);
  EXPECT_LE(k, 8u);
}

TEST_F(FairDsFixture, UpdateModelRanksAndPublishesUnderOneSnapshot) {
  // update_model cycles while another thread forces retrains. Each retrain
  // publishes a new clustering; an update that ranked its foundation under
  // one and published under another would store a PDF whose JSD to the
  // foundation differs from the distance it reported.
  core::FairDMSConfig config;
  config.train.max_epochs = 2;
  config.train.batch_size = 16;
  config.distance_threshold = 1.0;  // every cycle fine-tunes
  config.seed = 23;
  core::FairDMS system(config, *ds_, db_);
  auto foundation = models::make_braggnn(4);
  system.train_and_publish(foundation, history_, history_, "history_0");

  const nn::Batchset probe = regime_data(1.2, 32, 40);
  // Its destructor stops and joins the retrainer, also when an assertion
  // returns early.
  std::jthread retrainer([&](const std::stop_token& stop) {
    while (!stop.stop_requested()) ds_->maybe_retrain(probe.xs, 1.01);
  });
  std::size_t cycles = 0;
  std::size_t overlapped = 0;  // cycles during which a retrain published
  while (cycles < 4 || (overlapped == 0 && cycles < 20)) {
    const nn::Batchset new_data =
        regime_data(0.1 * static_cast<double>(cycles % 4), 24, 50 + cycles);
    const std::uint64_t version = ds_->snapshot()->version();
    const auto report = system.update_model(new_data.xs, new_data,
                                            core::UpdateStrategy::kFairDMS);
    if (ds_->snapshot()->version() != version) ++overlapped;
    ++cycles;
    ASSERT_TRUE(report.fine_tuned) << "cycle " << cycles;
    const auto published = system.zoo().fetch(report.published_model);
    const auto picked = system.zoo().fetch(report.foundation_model);
    ASSERT_TRUE(published.has_value() && picked.has_value());
    // recommend's arithmetic: the query first, both normalized.
    EXPECT_EQ(fairms::jsd_normalized(
                  *fairms::try_normalized(published->train_pdf),
                  *fairms::try_normalized(picked->train_pdf)),
              report.foundation_distance)
        << "cycle " << cycles;
  }
  EXPECT_GT(overlapped, 0u) << "no retrain landed during an update";
}

}  // namespace
}  // namespace fairdms
