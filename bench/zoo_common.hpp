// Shared zoo-building harness for the model-service figures (Figs. 10-14):
// train a fairDS system over an experiment timeline, ingest history, train
// one task model per timeline position, and publish each with its
// training-data distribution.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/fairdms.hpp"
#include "fairds/fairds.hpp"
#include "fairms/jsd.hpp"
#include "fairms/zoo.hpp"
#include "models/models.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"

namespace fairdms::bench {

struct ZooSpec {
  std::string architecture = "braggnn";
  std::size_t image_size = 15;
  std::size_t n_clusters = 8;
  std::size_t samples_per_dataset = 96;
  std::size_t zoo_train_epochs = 12;
  std::size_t embed_epochs = 4;
  double learning_rate = 1e-3;
  std::uint64_t seed = 4242;
};

struct ZooHarness {
  std::unique_ptr<store::DocStore> db;
  std::unique_ptr<fairds::FairDS> ds;
  std::unique_ptr<fairms::ModelZoo> zoo;
  std::vector<store::DocId> model_ids;       ///< one per zoo dataset
  std::vector<nn::Batchset> zoo_datasets;    ///< training data per model
};

/// dataset_at(i) must return the i-th timeline dataset (xs + ys).
inline ZooHarness build_zoo(
    const ZooSpec& spec, std::size_t n_zoo_datasets,
    const std::function<nn::Batchset(std::size_t, std::size_t)>& dataset_at) {
  ZooHarness h;
  h.db = std::make_unique<store::DocStore>();

  // System plane: train the embedding + clustering on the union of all zoo
  // datasets, then ingest them as labeled history.
  for (std::size_t i = 0; i < n_zoo_datasets; ++i) {
    h.zoo_datasets.push_back(dataset_at(i, spec.samples_per_dataset));
  }
  const std::size_t per = spec.samples_per_dataset;
  const std::size_t pixels = spec.image_size * spec.image_size;
  nn::Tensor all({n_zoo_datasets * per, 1, spec.image_size, spec.image_size});
  for (std::size_t i = 0; i < n_zoo_datasets; ++i) {
    std::copy_n(h.zoo_datasets[i].xs.data(), per * pixels,
                all.data() + i * per * pixels);
  }
  fairds::FairDSConfig ds_config;
  ds_config.embedding_algorithm = "byol";
  ds_config.embedding_dim = 12;
  ds_config.image_size = spec.image_size;
  ds_config.n_clusters = spec.n_clusters;
  ds_config.embed_train.epochs = spec.embed_epochs;
  ds_config.seed = spec.seed;
  h.ds = std::make_unique<fairds::FairDS>(ds_config, *h.db);
  h.ds->train_system(all);
  for (std::size_t i = 0; i < n_zoo_datasets; ++i) {
    h.ds->ingest(h.zoo_datasets[i].xs, h.zoo_datasets[i].ys,
                 "zoo_" + std::to_string(i));
  }

  // Model zoo: one task model per dataset, trained to convergence-ish and
  // published with its training-data distribution.
  h.zoo = std::make_unique<fairms::ModelZoo>(*h.db);
  for (std::size_t i = 0; i < n_zoo_datasets; ++i) {
    models::TaskModel model = models::make_model(
        spec.architecture, spec.seed + 11 * i, spec.image_size);
    util::Rng rng(spec.seed + 101 * i);
    nn::Adam opt(model.net, spec.learning_rate);
    nn::TrainConfig config;
    config.max_epochs = spec.zoo_train_epochs;
    config.batch_size = 32;
    nn::fit(model.net, opt, h.zoo_datasets[i], h.zoo_datasets[i], config,
            rng);
    h.model_ids.push_back(h.zoo->publish(
        spec.architecture, "zoo_" + std::to_string(i),
        h.ds->snapshot()->distribution(h.zoo_datasets[i].xs),
        nn::save_parameters(model.net)));
  }
  return h;
}

/// Loads a zoo model back into a runnable TaskModel.
inline models::TaskModel materialize(const ZooHarness& h,
                                     store::DocId id, const ZooSpec& spec) {
  const auto record = h.zoo->fetch(id);
  models::TaskModel model = models::make_model(
      record->architecture, spec.seed, spec.image_size);
  nn::load_parameters(model.net, record->parameters);
  return model;
}

}  // namespace fairdms::bench
