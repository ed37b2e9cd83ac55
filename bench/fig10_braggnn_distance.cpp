// Figure 10: prediction error vs JSD dataset distance for BraggNN over a
// *bimodal* HEDM timeline (a deformation event splits the zoo into two
// regimes). For each of four test datasets, every zoo model is scored by
// (a) its prediction error on the test data and (b) the JSD between its
// training-data distribution and the test data's distribution. The paper's
// claim: the two are positively correlated, so JSD ranking finds good
// foundations without running inference.
#include <cstdio>
#include <vector>

#include "datagen/bragg.hpp"
#include "util/stats.hpp"
#include "zoo_common.hpp"

namespace {
constexpr std::size_t kZooModels = 8;
constexpr std::size_t kDeformationScan = 4;  // bimodal split
constexpr std::size_t kEvalSamples = 96;
constexpr std::uint64_t kSeed = 1010;
}  // namespace

int main() {
  using namespace fairdms;
  bench::print_header("Fig. 10",
                      "BraggNN: prediction error vs JSD dataset distance "
                      "(bimodal timeline)");

  const auto timeline = bench::standard_timeline(16, kDeformationScan);
  bench::ZooSpec spec;
  spec.architecture = "braggnn";
  spec.samples_per_dataset = 160;
  spec.zoo_train_epochs = 30;  // zoo models trained to (near) convergence
  spec.seed = kSeed;
  auto harness = bench::build_zoo(
      spec, kZooModels, [&](std::size_t i, std::size_t n) {
        return timeline.dataset_at(i, n, kSeed);
      });

  const std::size_t test_scans[4] = {1, 3, 5, 7};
  std::vector<double> all_jsd, all_err;
  for (const std::size_t scan : test_scans) {
    const nn::Batchset test =
        timeline.dataset_at(scan, kEvalSamples, kSeed + 77);
    const auto pdf = harness.ds->snapshot()->distribution(test.xs);
    std::printf("\ntest dataset @ scan %zu (%s deformation)\n", scan,
                scan < kDeformationScan ? "before" : "after");
    bench::print_row("zoo_model", "jsd_distance", "error_px");
    std::vector<double> jsds, errs;
    for (std::size_t m = 0; m < kZooModels; ++m) {
      const auto record = harness.zoo->fetch(harness.model_ids[m]);
      const double jsd =
          fairms::jensen_shannon_divergence(pdf, record->train_pdf);
      auto model = bench::materialize(harness, harness.model_ids[m], spec);
      const nn::Tensor pred = model.net.forward(test.xs, nn::Mode::kEval);
      double err = 0.0;
      for (std::size_t i = 0; i < kEvalSamples; ++i) {
        err += datagen::bragg_pixel_error(pred, test.ys, 15, i);
      }
      err /= static_cast<double>(kEvalSamples);
      bench::print_row(m, jsd, err);
      jsds.push_back(jsd);
      errs.push_back(err);
      all_jsd.push_back(jsd);
      all_err.push_back(err);
    }
    std::printf("    dataset Pearson(error, jsd) = %.3f\n",
                util::pearson(jsds, errs));
  }
  std::printf("\noverall Pearson(error, jsd) = %.3f over %zu points\n",
              util::pearson(all_jsd, all_err), all_jsd.size());
  bench::print_footer(
      "error and dataset distance are positively correlated (bimodal "
      "clusters visible as two JSD groups) — JSD ranking selects good "
      "fine-tuning foundations without inference");
  return 0;
}
