// Serving loop: the two-plane fairDS service under multi-client traffic.
//
//   * User plane: 3 client threads stream label requests (per-sample reuse
//     with a fallback labeler) through the DataService and print which
//     model version answered each batch.
//   * System plane: the service's auto-retrain policy probes each labeled
//     batch for drift; when the timeline deforms and clustering certainty
//     drops, a background retrain builds the next snapshot and atomically
//     publishes it — the clients never stop, and their responses show the
//     version flip mid-stream.
//   * Model plane: a small ModelZoo serves foundation recommendations
//     through the same service; the parameter-blob cache makes the repeat
//     recommend + foundation load free (counters in ServiceStats).
//
// Build & run:  ./build/examples/serving_loop
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "service/data_service.hpp"

int main() {
  using namespace fairdms;

  // A drifting HEDM timeline with one deformation event at scan 5.
  datagen::HedmTimelineConfig timeline_config;
  timeline_config.n_scans = 10;
  timeline_config.drift_per_scan = 0.004;
  timeline_config.deformation_scans = {5};
  // Strong deformation so post-event batches sit clearly below the 0.8
  // certainty trigger — the retrain fires every run, not just on lucky
  // probe timing.
  timeline_config.deformation_jump = 1.2;
  datagen::HedmTimeline timeline(timeline_config);
  const nn::Batchset history = timeline.dataset_at(/*scan=*/0, 384, /*seed=*/1);

  // System plane bootstrap.
  store::DocStore db;
  fairds::FairDSConfig ds_config;
  ds_config.embedding_dim = 12;
  ds_config.n_clusters = 8;
  ds_config.embed_train.epochs = 3;
  ds_config.certainty_threshold = 0.8;
  // Shard the sample store so streaming ingest and lookups don't queue on
  // one writer lock (a no-op on single-core hosts, parallel elsewhere).
  ds_config.store_shards = 4;
  fairds::FairDS data_service(ds_config, db);
  data_service.train_system(history.xs);
  data_service.ingest(history.xs, history.ys, "scan_0");
  const auto snap = data_service.snapshot();
  std::printf("fairDS ready: %zu samples, %zu clusters, model v%llu\n",
              data_service.stored_count(), snap->n_clusters(),
              static_cast<unsigned long long>(snap->version()));

  // Model plane: register a few historical models keyed by the cluster
  // PDFs of their training scans (dummy weight blobs — this demo exercises
  // ranking and caching, not inference). Publishing pre-warms the
  // parameter-blob cache, so the first recommend is already served from
  // memory.
  fairms::ModelZoo zoo(db);
  for (std::size_t scan : {0u, 2u, 4u}) {
    const nn::Batchset scan_data = timeline.dataset_at(scan, 96, 50 + scan);
    zoo.publish("braggnn", "scan_" + std::to_string(scan),
                snap->distribution(scan_data.xs),
                std::vector<std::uint8_t>(4096, static_cast<std::uint8_t>(scan)));
  }
  fairms::ModelManager manager(zoo, /*distance_threshold=*/0.9);

  // Serving facade with one (default) stream: auto-retrain probes every
  // labeled batch for drift, and the declared store_shards is checked
  // against the data tier at registration.
  service::DataService service({.workers = 3});
  service::StreamConfig stream;
  stream.retrain.auto_trigger = true;
  stream.store_shards = 4;
  service.add_stream(service::kDefaultStreamName, data_service, stream,
                     &manager);

  const auto voigt_labeler = [](const nn::Tensor& xs) {
    // Stand-in for the conventional pseudo-Voigt fit: label = centroid.
    const std::size_t n = xs.dim(0);
    const std::size_t s = xs.dim(2);
    nn::Tensor ys({n, 2});
    for (std::size_t i = 0; i < n; ++i) {
      double cx = 0.0;
      double cy = 0.0;
      datagen::intensity_centroid({xs.data() + i * s * s, s * s}, s, cx, cy);
      ys.at(i, 0) = static_cast<float>((cx - 7.0) / 15.0);
      ys.at(i, 1) = static_cast<float>((cy - 7.0) / 15.0);
    }
    return ys;
  };

  std::mutex print_mutex;
  std::atomic<std::size_t> reused_total{0};
  std::atomic<std::size_t> computed_total{0};

  // User plane: 3 clients walk the timeline (crossing the deformation).
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t scan = 1; scan < 9; ++scan) {
        const nn::Batchset batch =
            timeline.dataset_at(scan, 24, 100 + scan * 10 + c);
        const auto response =
            service
                .submit(service::LabelRequest{batch.xs, /*threshold=*/0.6,
                                              voigt_labeler})
                .get();
        reused_total += response.reuse.reused;
        computed_total += response.reuse.computed;
        std::lock_guard lock(print_mutex);
        std::printf(
            "client %d scan %zu: %2zu reused / %2zu computed  "
            "(model v%llu, %.1f ms)\n",
            c, scan, response.reuse.reused, response.reuse.computed,
            static_cast<unsigned long long>(response.snapshot_version),
            response.seconds * 1e3);
      }
    });
  }
  for (auto& t : clients) t.join();
  service.wait_idle();  // let the last background retrain finish

  // Model plane: which zoo model is the best foundation for the latest
  // batch? The repeat recommend ranks entirely from the cache.
  const nn::Batchset latest = timeline.dataset_at(8, 24, 999);
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto response =
        service.submit(service::RecommendRequest{"braggnn", latest.xs}).get();
    if (response.pick.has_value()) {
      std::printf(
          "recommend #%d: foundation model %llu at JSD %.3f (%.2f ms)\n",
          attempt + 1,
          static_cast<unsigned long long>(response.pick->model_id),
          response.pick->distance, response.seconds * 1e3);
    } else {
      std::printf("recommend #%d: no model within threshold — train from "
                  "scratch\n", attempt + 1);
    }
  }

  const auto stats = service.stats();
  const auto totals = stats.totals();
  std::printf(
      "\nserved %llu label requests (%llu samples: %zu reused, %zu "
      "computed)\n",
      static_cast<unsigned long long>(totals.label_requests),
      static_cast<unsigned long long>(totals.samples_labeled),
      reused_total.load(), computed_total.load());
  std::printf("drift checks: %llu, retrains: %llu, final model v%llu\n",
              static_cast<unsigned long long>(totals.retrain_checks),
              static_cast<unsigned long long>(totals.retrains),
              static_cast<unsigned long long>(
                  data_service.snapshot()->version()));
  std::printf("model cache: %llu hits / %llu misses, %llu evictions, "
              "%llu bytes resident\n",
              static_cast<unsigned long long>(stats.model_cache_hits),
              static_cast<unsigned long long>(stats.model_cache_misses),
              static_cast<unsigned long long>(stats.model_cache_evictions),
              static_cast<unsigned long long>(stats.model_cache_bytes));
  return 0;
}
