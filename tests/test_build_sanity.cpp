// Link-sanity suite: touches one exported symbol from each of the 14 library
// modules so a partial link (a module dropped from FAIRDMS_SOURCES, an ODR
// mishap, a dead archive member) fails this suite immediately instead of
// surfacing as a confusing downstream error.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/kmeans.hpp"
#include "core/version.hpp"
#include "datagen/pseudo_voigt.hpp"
#include "embed/augment.hpp"
#include "fairds/pixel_baseline.hpp"
#include "fairds/reuse_index.hpp"
#include "fairms/jsd.hpp"
#include "labeling/frame_label.hpp"
#include "models/models.hpp"
#include "nn/activations.hpp"
#include "service/data_service.hpp"
#include "store/codec.hpp"
#include "tensor/tensor.hpp"
#include "util/stats.hpp"
#include "workflow/flow.hpp"

namespace {

using fairdms::tensor::Tensor;

TEST(BuildSanity, VersionMatchesCMakeProject) {
  EXPECT_STREQ(fairdms::core::Version(), FAIRDMS_VERSION_STRING);
}

TEST(BuildSanity, TensorModuleLinks) {
  const Tensor t = Tensor::zeros({2, 3});
  EXPECT_EQ(t.numel(), 6u);
}

TEST(BuildSanity, UtilModuleLinks) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(fairdms::util::mean(xs), 2.0);
}

TEST(BuildSanity, ClusterModuleLinks) {
  fairdms::util::Rng rng(7);
  const Tensor xs = Tensor::rand_uniform({8, 2}, rng, 0.0f, 1.0f);
  fairdms::cluster::KMeansConfig config;
  config.k = 2;
  const auto model = fairdms::cluster::kmeans_fit(xs, config);
  EXPECT_EQ(model.centroids().dim(0), 2u);
}

TEST(BuildSanity, DatagenModuleLinks) {
  fairdms::datagen::PeakParams p;
  EXPECT_GT(fairdms::datagen::pseudo_voigt(p, p.center_x, p.center_y), 0.0);
}

TEST(BuildSanity, EmbedModuleLinks) {
  const std::vector<float> image = {1.0f, 2.0f, 3.0f, 4.0f};
  const auto rotated = fairdms::embed::rotate90(image, 2, 1);
  EXPECT_EQ(rotated.size(), image.size());
}

TEST(BuildSanity, FairdsModuleLinks) {
  fairdms::fairds::PixelNnBaseline baseline(4);
  EXPECT_EQ(baseline.stored_count(), 0u);
  fairdms::fairds::ReuseIndex index(4);
  EXPECT_EQ(index.size(), 0u);
}

TEST(BuildSanity, FairmsModuleLinks) {
  const std::vector<double> p = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(fairdms::fairms::jensen_shannon_divergence(p, p), 0.0);
}

TEST(BuildSanity, LabelingModuleLinks) {
  const std::vector<float> blank(32 * 32, 0.0f);
  EXPECT_TRUE(fairdms::labeling::label_frame(blank, 32).empty());
}

TEST(BuildSanity, ModelsModuleLinks) {
  const auto model = fairdms::models::make_braggnn(/*seed=*/1);
  EXPECT_FALSE(model.architecture.empty());
}

TEST(BuildSanity, NnModuleLinks) {
  fairdms::nn::ReLU relu;
  const Tensor x = Tensor::full({1, 2}, -1.0f);
  const Tensor y = relu.forward(x, fairdms::nn::Mode::kEval);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
}

TEST(BuildSanity, ServiceModuleLinks) {
  fairdms::store::DocStore db;
  fairdms::fairds::FairDS ds({}, db);
  fairdms::service::DataService service(
      fairdms::service::DataServiceConfig{.workers = 1});
  EXPECT_TRUE(service.add_stream(fairdms::service::kDefaultStreamName, ds));
  EXPECT_EQ(service.worker_count(), 1u);
  EXPECT_EQ(service.stats().totals().label_requests, 0u);
}

TEST(BuildSanity, StoreModuleLinks) {
  const auto codec = fairdms::store::make_codec("raw");
  ASSERT_NE(codec, nullptr);
}

TEST(BuildSanity, WorkflowModuleLinks) {
  fairdms::workflow::Flow flow("sanity");
  bool ran = false;
  flow.add_task("noop", [&ran] { ran = true; });
  flow.run();
  EXPECT_TRUE(ran);
}

}  // namespace
