// Coverage for corner paths not exercised elsewhere: loader/worker
// invariance of delivered content, diamond flow DAGs, remote-mode store
// accounting, elbow degenerate ranges, and pooling / upsampling shape
// variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "cluster/kmeans.hpp"
#include "nn/pool.hpp"
#include "nn/upsample.hpp"
#include "store/dataloader.hpp"
#include "util/rng.hpp"
#include "workflow/flow.hpp"

namespace fairdms {
namespace {

using tensor::Tensor;

TEST(DataLoader, DeliveredContentIndependentOfWorkerCount) {
  nn::Batchset data;
  data.xs = Tensor({40, 2});
  data.ys = Tensor({40, 1});
  for (std::size_t i = 0; i < 40; ++i) {
    data.xs.at(i, 0) = static_cast<float>(i);
    data.ys.at(i, 0) = static_cast<float>(i);
  }
  store::InMemoryDataset ds(data);

  auto delivered_set = [&](std::size_t workers) {
    store::LoaderConfig config;
    config.batch_size = 7;
    config.workers = workers;
    config.seed = 99;
    store::DataLoader loader(ds, config);
    loader.start_epoch(4);
    std::multiset<int> seen;
    while (auto batch = loader.next()) {
      for (std::size_t i = 0; i < batch->xs.dim(0); ++i) {
        seen.insert(static_cast<int>(batch->xs.at(i, 0)));
      }
    }
    return seen;
  };
  // Batch *content over the epoch* is a pure function of (seed, epoch),
  // regardless of how many workers raced to produce it.
  EXPECT_EQ(delivered_set(1), delivered_set(4));
}

TEST(DocStore, RemoteModeChargesLink) {
  store::DocStore db(store::RemoteLinkConfig{.latency_seconds = 1e-6,
                                             .bandwidth_bytes_per_s = 1e12});
  EXPECT_TRUE(db.is_remote());
  auto& col = db.collection("c");
  col.insert_one(store::Value(store::Object{}));
  EXPECT_GT(db.link().requests(), 0u);
  EXPECT_GT(db.link().bytes_moved(), 0u);
}

TEST(Flow, DiamondDependenciesJoinOnce) {
  std::atomic<int> joins{0};
  std::atomic<bool> left_done{false}, right_done{false};
  workflow::Flow flow("diamond");
  flow.add_task("src", [] {});
  flow.add_task("left", [&] { left_done = true; }, {"src"});
  flow.add_task("right", [&] { right_done = true; }, {"src"});
  flow.add_task(
      "join",
      [&] {
        EXPECT_TRUE(left_done.load());
        EXPECT_TRUE(right_done.load());
        joins.fetch_add(1);
      },
      {"left", "right"});
  const auto report = flow.run();
  EXPECT_EQ(joins.load(), 1);
  EXPECT_EQ(report.tasks.size(), 4u);
}

TEST(Elbow, DegenerateRangeReturnsKMin) {
  util::Rng rng(5);
  const Tensor xs = Tensor::randn({20, 3}, rng);
  const auto result = cluster::elbow_k(xs, 3, 3, 1);
  EXPECT_EQ(result.best_k, 3u);
  EXPECT_EQ(result.wss_curve.size(), 1u);
}

TEST(Pool, StridedAvgPoolShapesAndValues) {
  Tensor x({1, 1, 5, 5});
  for (std::size_t i = 0; i < 25; ++i) x[i] = static_cast<float>(i);
  nn::AvgPool2d pool(3, /*stride=*/2);
  const Tensor y = pool.forward(x, nn::Mode::kEval);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2, 2}));
  // Window at (0,0): mean of rows 0-2, cols 0-2 = mean{0..2,5..7,10..12}=6.
  EXPECT_FLOAT_EQ(y[0], 6.0f);
}

TEST(Upsample, FactorThreeRoundTripGradient) {
  util::Rng rng(6);
  nn::Upsample2d up(3);
  const Tensor x = Tensor::randn({2, 1, 3, 3}, rng);
  const Tensor y = up.forward(x, nn::Mode::kTrain);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{2, 1, 9, 9}));
  // Backward of all-ones gradient sums the 3x3 replication per cell.
  const Tensor gx = up.backward(Tensor::full(y.shape(), 1.0f));
  for (std::size_t i = 0; i < gx.numel(); ++i) {
    EXPECT_FLOAT_EQ(gx[i], 9.0f);
  }
}

TEST(KMeans, PdfOfDisjointQueryDataStillSumsToOne) {
  util::Rng rng(7);
  const Tensor train = Tensor::randn({50, 4}, rng);
  cluster::KMeansConfig config;
  config.k = 5;
  const auto model = cluster::kmeans_fit(train, config);
  // Query data far outside the training support.
  Tensor far = Tensor::randn({20, 4}, rng);
  far.scale_(100.0f);
  const auto pdf = model.cluster_pdf(far);
  double sum = 0.0;
  for (double v : pdf) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

}  // namespace
}  // namespace fairdms
