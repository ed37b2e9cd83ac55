// Figure 12: per-cluster PDF comparison (K = 15, like the paper) between an
// input dataset, the training distribution of the best-ranked zoo model, and
// the training distribution of the worst-ranked one.
#include <cstdio>

#include "datagen/bragg.hpp"
#include "zoo_common.hpp"

namespace {
constexpr std::size_t kZooModels = 6;
constexpr std::size_t kClusters = 15;  // paper's cluster count for Bragg
constexpr std::uint64_t kSeed = 1212;
}  // namespace

int main() {
  using namespace fairdms;
  bench::print_header("Fig. 12",
                      "input vs best/worst model training distributions "
                      "(15 clusters)");

  const auto timeline = bench::standard_timeline(16, 5);
  bench::ZooSpec spec;
  spec.architecture = "braggnn";
  spec.n_clusters = kClusters;
  spec.zoo_train_epochs = 6;  // models only need distributions here
  spec.seed = kSeed;
  auto harness = bench::build_zoo(
      spec, kZooModels, [&](std::size_t i, std::size_t n) {
        return timeline.dataset_at(2 * i, n, kSeed);
      });

  const nn::Batchset input = timeline.dataset_at(3, 96, kSeed + 7);
  const auto input_pdf = harness.ds->snapshot()->distribution(input.xs);
  fairms::ModelManager manager(*harness.zoo, 1.0);
  const auto ranked = manager.rank("braggnn", input_pdf);
  const auto best = harness.zoo->fetch(ranked.front().model_id);
  const auto worst = harness.zoo->fetch(ranked.back().model_id);

  std::printf("best-ranked JSD = %.4f, worst-ranked JSD = %.4f\n\n",
              ranked.front().distance, ranked.back().distance);
  bench::print_row("cluster_id", "input_pdf", "best_pdf", "worst_pdf");
  for (std::size_t c = 0; c < kClusters; ++c) {
    bench::print_row(c, input_pdf[c], best->train_pdf[c],
                     worst->train_pdf[c]);
  }
  bench::print_footer(
      "the best-ranked model's training distribution tracks the input's "
      "cluster PDF bar-for-bar; the worst-ranked one concentrates mass on "
      "different clusters");
  return 0;
}
