// Ablation: the concurrent serving layer (DataService over immutable fairDS
// snapshots).
//
//   (1) throughput: closed-loop label-request clients (lookup_or_label,
//       everything-reuse threshold) submitting through one DataService;
//       queries/sec vs number of client threads. On multi-core hosts this
//       scales with cores; on a single-core host it stays flat but must not
//       degrade (the snapshot path adds no lock contention).
//   (2) retrain interference: the same drive with a forced system-plane
//       retrain fired mid-stream. The user plane must keep answering from
//       the previous snapshot — every request completes, and the slowest
//       single request stays orders of magnitude below the retrain duration
//       (no query ever waits for training).
//
// Run with `abl_service small` for the CI smoke preset; the default full
// preset is what EXPERIMENTS.md records.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "fairds/fairds.hpp"
#include "service/data_service.hpp"
#include "util/timer.hpp"

namespace {

constexpr std::uint64_t kSeed = 3131;

struct Preset {
  const char* name;
  std::size_t history;          ///< stored samples
  std::size_t train_subset;     ///< embedding-training subset cap
  std::size_t embed_epochs;
  std::size_t batch;            ///< queries per request
  std::size_t batches_per_client;
  std::vector<std::size_t> client_counts;
};

Preset full_preset() { return {"full", 1024, 512, 3, 16, 24, {1, 2, 4, 8}}; }
Preset small_preset() { return {"small", 256, 256, 2, 8, 6, {1, 2, 4}}; }

/// First `n` rows of a [N,1,S,S] batch as their own tensor.
fairdms::nn::Tensor head_rows(const fairdms::nn::Tensor& xs, std::size_t n) {
  if (n >= xs.dim(0)) return xs;
  const std::size_t row = xs.numel() / xs.dim(0);
  fairdms::nn::Tensor out({n, xs.dim(1), xs.dim(2), xs.dim(3)});
  std::copy_n(xs.data(), n * row, out.data());
  return out;
}

struct DriveResult {
  double wall_seconds = 0.0;
  double qps = 0.0;
  double max_request_seconds = 0.0;
  std::size_t answered = 0;
};

/// Closed-loop drive: `clients` threads each submit `batches` label
/// requests of `batch` queries and wait for each response before the next.
/// When `retrain_probe` is non-null, client 0 fires one async retrain
/// request after its second batch.
DriveResult drive(fairdms::service::DataService& service,
                  const fairdms::nn::Tensor& query_xs, std::size_t clients,
                  std::size_t batches, std::size_t batch,
                  const fairdms::nn::Tensor* retrain_probe) {
  using namespace fairdms;
  const auto labeler = [](const nn::Tensor& xs) {
    return nn::Tensor({xs.dim(0), 2});
  };
  std::atomic<std::size_t> answered{0};
  std::atomic<double> max_seconds{0.0};
  // One warmup request so first-touch costs (lazy label-width derivation,
  // cold caches) don't land in the timed window of whichever client runs
  // first.
  (void)service.submit(service::LabelRequest{query_xs, 1e9, labeler}).get();
  util::WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t b = 0; b < batches; ++b) {
        const auto response =
            service
                .submit(service::LabelRequest{query_xs, 1e9, labeler})
                .get();
        answered.fetch_add(response.reuse.reused + response.reuse.computed);
        double seen = max_seconds.load();
        while (response.seconds > seen &&
               !max_seconds.compare_exchange_weak(seen, response.seconds)) {
        }
        if (retrain_probe != nullptr && c == 0 && b == 1) {
          service.request_retrain(*retrain_probe);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  DriveResult result;
  result.wall_seconds = wall.seconds();
  result.answered = answered.load();
  result.qps = static_cast<double>(result.answered) / result.wall_seconds;
  result.max_request_seconds = max_seconds.load();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fairdms;
  const bool small = argc > 1 && std::strcmp(argv[1], "small") == 0;
  const Preset preset = small ? small_preset() : full_preset();
  bench::print_header(
      "Ablation: concurrent serving layer",
      std::string("DataService throughput + retrain interference (preset: ") +
          preset.name + ", hw threads: " +
          std::to_string(std::thread::hardware_concurrency()) + ")");

  const auto timeline = bench::standard_timeline(10, 5);
  const nn::Batchset history =
      timeline.dataset_at(2, preset.history, kSeed);
  const nn::Batchset queries =
      timeline.dataset_at(2, preset.batch, kSeed + 1);

  std::printf("(1) throughput: queries/sec vs client threads "
              "(history = %zu, %zu batches x %zu queries per client)\n",
              preset.history, preset.batches_per_client, preset.batch);
  bench::print_row("clients", "wall_s", "qps", "max_req_ms");
  for (const std::size_t clients : preset.client_counts) {
    store::DocStore db;
    fairds::FairDSConfig config;
    config.embedding_dim = 12;
    config.n_clusters = 8;
    config.embed_train.epochs = preset.embed_epochs;
    config.seed = kSeed;
    config.store_shards = 4;  // ingest/lookup don't share one writer lock
    fairds::FairDS ds(config, db);
    ds.train_system(head_rows(history.xs, preset.train_subset));
    ds.ingest(history.xs, history.ys, "history");
    service::DataService service({.workers = clients});
    service.add_stream(service::kDefaultStreamName, ds, {.store_shards = 4});

    const auto result = drive(service, queries.xs, clients,
                              preset.batches_per_client, preset.batch,
                              nullptr);
    bench::print_row(clients, result.wall_seconds, result.qps,
                     result.max_request_seconds * 1e3);
  }

  std::printf("\n(2) retrain interference: same drive, system-plane retrain "
              "forced mid-stream (certainty threshold > 1)\n");
  // tail_s = system-plane training time still running after the last query
  // was answered (proof the stream never waited for it).
  bench::print_row("clients", "mode", "qps", "max_req_ms", "tail_s");
  const std::size_t clients =
      preset.client_counts[preset.client_counts.size() > 2
                               ? 2
                               : preset.client_counts.size() - 1];
  for (const bool with_retrain : {false, true}) {
    store::DocStore db;
    fairds::FairDSConfig config;
    config.embedding_dim = 12;
    config.n_clusters = 8;
    config.embed_train.epochs = preset.embed_epochs;
    config.certainty_threshold = 1.01;  // any probe forces the retrain
    config.seed = kSeed;
    config.store_shards = 4;
    fairds::FairDS ds(config, db);
    ds.train_system(head_rows(history.xs, preset.train_subset));
    ds.ingest(history.xs, history.ys, "history");
    service::DataService service({.workers = clients});
    service.add_stream(service::kDefaultStreamName, ds, {.store_shards = 4});

    const nn::Batchset probe = timeline.dataset_at(7, 48, kSeed + 2);
    const auto result =
        drive(service, queries.xs, clients, preset.batches_per_client,
              preset.batch, with_retrain ? &probe.xs : nullptr);
    // The retrain may outlast the query stream; wait_idle's duration IS the
    // post-stream training tail.
    util::WallTimer tail_timer;
    service.wait_idle();
    const double tail_s = with_retrain ? tail_timer.seconds() : 0.0;
    bench::print_row(clients, with_retrain ? "retrain" : "baseline",
                     result.qps, result.max_request_seconds * 1e3, tail_s);
    if (with_retrain) {
      std::printf("    retrains completed: %zu (queries answered during "
                  "training: all %zu)\n",
                  ds.retrain_count(), result.answered);
    }
  }

  bench::print_footer(
      "clients query lock-free against the published snapshot, so "
      "throughput tracks the worker count up to the core budget and a "
      "mid-stream retrain neither stalls nor fails a single request — the "
      "slowest request stays far below the retrain duration, and the new "
      "model version swaps in atomically when training finishes");
  return 0;
}
