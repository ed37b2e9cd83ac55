#include "world.hpp"

#include <algorithm>
#include <cstdio>

#include "common.hpp"
#include "datagen/bragg.hpp"
#include "labeling/voigt_fit.hpp"
#include "models/models.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kScans = 16;
constexpr std::size_t kDeformationScan = 8;
constexpr std::size_t kHistoryScans = 4;  ///< scans 0..3 are labeled history
constexpr std::size_t kLabelPools = 64;
constexpr std::size_t kIngestBatches = 64;
constexpr std::size_t kIngestRows = 1;
constexpr std::size_t kClusters = 8;
constexpr std::size_t kFleetBlobBytes = 256;

datagen::HedmTimeline timeline() {
  datagen::HedmTimelineConfig config;
  config.n_scans = kScans;
  config.drift_per_scan = 0.004;
  config.deformation_scans = {kDeformationScan};
  config.deformation_jump = 0.5;
  return datagen::HedmTimeline(config);
}

nn::Batchset concat(const std::vector<nn::Batchset>& parts) {
  std::size_t rows = 0;
  for (const auto& p : parts) rows += p.size();
  const std::size_t x_row = parts.front().xs.numel() / parts.front().size();
  const std::size_t y_row = parts.front().ys.numel() / parts.front().size();
  nn::Batchset out;
  out.xs = tensor::Tensor({rows, 1, kPatch, kPatch});
  out.ys = tensor::Tensor({rows, y_row});
  std::size_t at = 0;
  for (const auto& p : parts) {
    std::copy_n(p.xs.data(), p.xs.numel(), out.xs.data() + at * x_row);
    std::copy_n(p.ys.data(), p.ys.numel(), out.ys.data() + at * y_row);
    at += p.size();
  }
  return out;
}

}  // namespace

Inputs make_inputs(const Spec& spec, const Scale& scale, std::uint64_t seed) {
  const auto tl = timeline();
  const std::uint64_t base = seed * 1000003ull;
  Inputs in;
  in.seed = seed;
  util::Rng rng(base);

  std::vector<nn::Batchset> history;
  for (std::size_t s = 0; s < kHistoryScans; ++s) {
    history.push_back(tl.dataset_at(s, scale.history_per_scan, base + s));
  }
  in.history = concat(history);

  const std::size_t pixels = kPatch * kPatch;
  for (std::size_t p = 0; p < kLabelPools; ++p) {
    tensor::Tensor pool({spec.label_batch, 1, kPatch, kPatch});
    for (std::size_t j = 0; j < spec.label_batch; ++j) {
      const std::size_t scan = spec.label_scans[j % spec.label_scans.size()];
      const auto one = tl.dataset_at(scan, 1, base + 1000 + p * 64 + j);
      std::copy_n(one.xs.data(), pixels, pool.data() + j * pixels);
    }
    in.label_pools.push_back(std::move(pool));
  }
  for (std::size_t b = 0; b < kIngestBatches; ++b) {
    const std::size_t scan = spec.ingest_scans[b % spec.ingest_scans.size()];
    in.ingest_batches.push_back(
        tl.dataset_at(scan, kIngestRows, base + 200 + b));
  }
  in.retrain_probe = tl.dataset_at(kDeformationScan + 2, 32, base + 300).xs;
  for (std::size_t s = 0; s < kScans; ++s) {
    in.update_train.push_back(
        tl.dataset_at(s, scale.update_samples, base + 400 + s));
    in.update_val.push_back(tl.dataset_at(s, 64, base + 500 + s));
  }
  // Foundations spread over the timeline, so fairMS has a real choice.
  for (std::size_t f = 0; f < scale.foundations; ++f) {
    const std::size_t scan = f * kScans / scale.foundations;
    in.foundation_train.push_back(
        tl.dataset_at(scan, scale.update_samples, base + 600 + f));
  }
  for (std::size_t m = 0; m < scale.fleet_models; ++m) {
    std::vector<double> pdf(kClusters);
    double sum = 0.0;
    for (double& v : pdf) {
      const double u = rng.uniform();
      v = u * u * u + 1e-3;
      sum += v;
    }
    for (double& v : pdf) v /= sum;
    in.fleet_pdfs.push_back(std::move(pdf));
  }
  in.nurand_c = rng.uniform_index(kLabelPools);
  return in;
}

World::~World() {
  if (server) server->stop();
  if (service) service->wait_idle();
}

std::unique_ptr<World> build_world(const Spec& spec, const Scale& scale,
                                   const Inputs& inputs,
                                   const std::string& dir) {
  auto w = std::make_unique<World>();
  w->db = std::make_unique<store::DocStore>();

  fairds::FairDSConfig config;
  config.embedding_dim = 12;
  config.image_size = kPatch;
  config.n_clusters = kClusters;
  config.embed_train.epochs = 2;
  config.seed = inputs.seed;
  config.store_shards = 4;
  if (spec.engine == store::EngineKind::kLog) {
    w->data_dir = dir + "/samples";
    config.storage = store::StorageEngineConfig{
        .kind = store::EngineKind::kLog, .directory = w->data_dir};
  }
  w->ds = std::make_unique<fairds::FairDS>(config, *w->db);
  w->ds->train_system(inputs.history.xs);
  w->ds->ingest(inputs.history.xs, inputs.history.ys, "history");

  // Fleet zoo: thousands of registered models that recommend ranks by JSD.
  // Their parameter blobs are placeholders; ranking never loads them.
  w->fleet_db = std::make_unique<store::DocStore>();
  w->fleet = std::make_unique<fairms::ModelZoo>(*w->fleet_db);
  for (std::size_t m = 0; m < inputs.fleet_pdfs.size(); ++m) {
    w->fleet->publish("braggnn", "fleet_" + std::to_string(m),
                      inputs.fleet_pdfs[m],
                      std::vector<std::uint8_t>(kFleetBlobBytes, 0x42));
  }
  w->fleet_manager = std::make_unique<fairms::ModelManager>(*w->fleet, 1.0);

  // Update workflow: a fixed epoch budget (no convergence stop), so every
  // cycle does the same training work; distance threshold 1.0 always
  // fine-tunes the closest foundation.
  core::FairDMSConfig update;
  update.architecture = "braggnn";
  update.patch_size = kPatch;
  update.distance_threshold = 1.0;
  update.train.max_epochs = scale.epochs;
  update.train.batch_size = 32;
  update.train.target_val_error = 0.0;
  update.seed = inputs.seed;
  w->fairdms = std::make_unique<core::FairDMS>(update, *w->ds, *w->db);
  for (std::size_t f = 0; f < inputs.foundation_train.size(); ++f) {
    models::TaskModel model =
        models::make_model("braggnn", inputs.seed + f, kPatch);
    w->foundations.push_back(w->fairdms->train_and_publish(
        model, inputs.foundation_train[f], inputs.foundation_train[f],
        "foundation_" + std::to_string(f)));
  }

  w->service =
      std::make_unique<service::DataService>(service::DataServiceConfig{
          .max_pending = 512});
  service::StreamConfig stream;
  stream.retrain.certainty_threshold = 2.0;  // > 1: every check retrains
  stream.storage_engine = store::to_string(spec.engine);
  w->service->add_stream(kStream, *w->ds, stream, w->fleet_manager.get());

  net::ServerConfig server;
  LabelerMeter* meter = &w->labeler;
  server.fallback_labeler = [meter](const tensor::Tensor& xs) {
    const auto start = Clock::now();
    tensor::Tensor ys = labeling::label_patches(xs);
    meter->nanos += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    meter->samples += xs.dim(0);
    meter->calls += 1;
    return ys;
  };
  w->server = std::make_unique<net::Server>(*w->service, server);
  if (!w->server->ok()) {
    std::fprintf(stderr, "perfbench: server cannot listen on loopback\n");
    return nullptr;
  }
  return w;
}

UpdateCycle update_from_foundations(World& world, const nn::Batchset& train,
                                    const nn::Batchset& validation) {
  store::DocStore db;
  core::FairDMS updater(world.fairdms->config(), *world.ds, db);
  for (const store::DocId id : world.foundations) {
    const auto f = world.fairdms->zoo().fetch_cached(id);
    updater.zoo().publish(f->architecture, f->dataset_id, f->train_pdf,
                          *f->parameters);
  }
  UpdateCycle cycle;
  const auto start = Clock::now();
  cycle.report = updater.update_model(train.xs, validation,
                                      core::UpdateStrategy::kFairDMS);
  cycle.seconds = since(start);
  const auto published = updater.zoo().fetch_cached(cycle.report.published_model);
  cycle.published = published != nullptr && !published->parameters->empty();
  return cycle;
}

}  // namespace perfbench
