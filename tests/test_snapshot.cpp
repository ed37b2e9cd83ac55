// Snapshot tests: lookup purity given a seed and a snapshot, snapshot
// immutability across system-plane publishes (old versions keep answering
// with old models), version monotonicity, label-width derivation over
// pre-existing collections, and no snapshot before training. The
// independent pre-rewrite reference for lookup_or_label lives in
// test_retrieval_path, where legacy_lookup_or_label reimplements the reuse
// path against the raw store.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairds/snapshot.hpp"
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
  config.certainty_threshold = 0.55;
  config.seed = 61;
  return config;
}

nn::Batchset regime_data(double drift, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  datagen::BraggRegime regime;
  regime.sigma_major_mean *= 1.0 + drift;
  regime.eta_mean = std::min(0.95, regime.eta_mean + drift * 0.5);
  return datagen::make_bragg_batchset(regime, {}, n, rng);
}

Tensor deterministic_labeler(const Tensor& xs, std::size_t label_w) {
  const std::size_t n = xs.dim(0);
  const std::size_t pixels = xs.numel() / n;
  Tensor ys({n, label_w});
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t p = 0; p < pixels; ++p) {
      sum += static_cast<double>(xs[i * pixels + p]);
    }
    const auto mean = static_cast<float>(sum / static_cast<double>(pixels));
    for (std::size_t j = 0; j < label_w; ++j) {
      ys.data()[i * label_w + j] = mean * static_cast<float>(j + 1);
    }
  }
  return ys;
}

void expect_tensors_identical(const Tensor& a, const Tensor& b,
                              const char* context) {
  ASSERT_EQ(a.shape(), b.shape()) << context;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << context << " [" << i << "]";
  }
}

class SnapshotFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = regime_data(0.0, 96, 71);
    ds_ = std::make_unique<fairds::FairDS>(small_config(), db_);
    ds_->train_system(history_.xs);
    ds_->ingest(history_.xs, history_.ys, "history_0");
  }

  store::DocStore db_;
  nn::Batchset history_;
  std::unique_ptr<fairds::FairDS> ds_;
};

TEST_F(SnapshotFixture, LookupIsPureGivenSeedAndSnapshot) {
  const auto snap = ds_->snapshot();
  const nn::Batchset query = regime_data(0.0, 16, 73);
  const auto a = snap->lookup(query.xs, 7);
  const auto b = snap->lookup(query.xs, 7);
  expect_tensors_identical(a.xs, b.xs, "repeat-lookup.xs");
  expect_tensors_identical(a.ys, b.ys, "repeat-lookup.ys");
}

TEST_F(SnapshotFixture, PublishBumpsVersionAndPreservesOldSnapshot) {
  const auto before = ds_->snapshot();
  const std::uint64_t v0 = before->version();
  EXPECT_EQ(before->indexed_count(), 96u);

  const nn::Batchset more = regime_data(0.0, 24, 74);
  ds_->ingest(more.xs, more.ys, "history_1");

  const auto after = ds_->snapshot();
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->version(), v0 + 1);
  // The pre-ingest snapshot still answers against the pre-ingest index.
  EXPECT_EQ(before->indexed_count(), 96u);
  EXPECT_EQ(after->indexed_count(), 120u);
}

TEST(SnapshotLifecycle, OldSnapshotServesOldModelAcrossRetrain) {
  // A certainty threshold above 1 forces the retrain unconditionally; the
  // point under test is that a snapshot taken before the retrain keeps
  // answering with the old model, bit for bit.
  auto config = small_config();
  config.certainty_threshold = 1.01;
  store::DocStore db;
  fairds::FairDS ds(config, db);
  const nn::Batchset history = regime_data(0.0, 96, 71);
  ds.train_system(history.xs);
  ds.ingest(history.xs, history.ys, "h");

  const nn::Batchset query = regime_data(0.0, 12, 75);
  const auto labeler = [](const Tensor& xs) {
    return deterministic_labeler(xs, 2);
  };
  const auto snap_v1 = ds.snapshot();
  fairds::ReuseStats v1_stats;
  const auto v1 = snap_v1->lookup_or_label(query.xs, 1e9, labeler,
                                           &v1_stats);

  const nn::Batchset shifted = regime_data(1.8, 48, 76);
  ASSERT_TRUE(ds.maybe_retrain(shifted.xs));
  EXPECT_EQ(ds.retrain_count(), 1u);

  // The held snapshot is bit-for-bit unaffected by the published retrain.
  fairds::ReuseStats again_stats;
  const auto again = snap_v1->lookup_or_label(query.xs, 1e9, labeler,
                                              &again_stats);
  EXPECT_EQ(v1_stats.reused, again_stats.reused);
  expect_tensors_identical(v1.ys, again.ys, "held-snapshot.ys");
  // While the new snapshot is a different model version.
  EXPECT_GT(ds.snapshot()->version(), snap_v1->version());
}

TEST(SnapshotOverExistingCollection, DerivesLabelWidthLazily) {
  // Build a FairDS + history, then a second FairDS over the same collection
  // that never ingests: its snapshot must derive the label width from the
  // store on first lookup_or_label.
  store::DocStore db;
  auto config = small_config();
  fairds::FairDS first(config, db);
  const nn::Batchset history = regime_data(0.0, 64, 81);
  first.train_system(history.xs);
  first.ingest(history.xs, history.ys, "h");

  fairds::FairDS second(config, db);
  second.train_system(history.xs);
  const auto snap = second.snapshot();
  EXPECT_EQ(snap->indexed_count(), 64u);
  const nn::Batchset query = regime_data(0.0, 8, 82);
  fairds::ReuseStats stats;
  const auto labeled = snap->lookup_or_label(
      query.xs, 1e9,
      [](const Tensor& xs) { return deterministic_labeler(xs, 2); }, &stats);
  EXPECT_EQ(stats.reused, 8u);
  EXPECT_EQ(labeled.ys.dim(1), 2u);
  EXPECT_EQ(snap->label_width(), 2u);
}

TEST(SnapshotLifecycle, UntrainedFairDsHasNoSnapshot) {
  store::DocStore db;
  fairds::FairDS ds(small_config(), db);
  EXPECT_EQ(ds.snapshot(), nullptr);
}

}  // namespace
}  // namespace fairdms
