// Service-layer tests: future-based submit round-trips matching the direct
// synchronous API, per-request serving metadata and stats, the async
// system-plane retrain (user plane keeps answering mid-retrain), a
// multi-client stress drive (>= 4 concurrent lookup_or_label clients while
// maybe_retrain fires — the TSan acceptance scenario), and the
// ModelZoo/ModelManager edges: reindex of a missing id, rank skipping
// mismatched-length PDFs without reading the store, publish/fetch with
// empty parameters, and concurrent publish from multiple threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "service/data_service.hpp"
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
  config.seed = 91;
  return config;
}

nn::Batchset regime_data(double drift, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  datagen::BraggRegime regime;
  regime.sigma_major_mean *= 1.0 + drift;
  regime.eta_mean = std::min(0.95, regime.eta_mean + drift * 0.5);
  return datagen::make_bragg_batchset(regime, {}, n, rng);
}

Tensor zero_labeler(const Tensor& xs) { return Tensor({xs.dim(0), 2}); }

class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = regime_data(0.0, 96, 101);
    ds_ = std::make_unique<fairds::FairDS>(small_config(), db_);
    ds_->train_system(history_.xs);
    ds_->ingest(history_.xs, history_.ys, "history_0");
  }

  store::DocStore db_;
  nn::Batchset history_;
  std::unique_ptr<fairds::FairDS> ds_;
};

TEST_F(ServiceFixture, LabelSubmitMatchesDirectCall) {
  service::DataService service({.workers = 2});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, *ds_));
  const nn::Batchset query = regime_data(0.0, 16, 102);

  auto future = service.submit(
      service::LabelRequest{query.xs, 1e9, zero_labeler});
  const auto response = future.get();

  const auto snap = ds_->snapshot();
  fairds::ReuseStats direct_stats;
  const auto direct =
      snap->lookup_or_label(query.xs, 1e9, zero_labeler, &direct_stats);
  EXPECT_EQ(response.reuse.reused, direct_stats.reused);
  EXPECT_EQ(response.reuse.computed, direct_stats.computed);
  ASSERT_EQ(response.batch.ys.shape(), direct.ys.shape());
  for (std::size_t i = 0; i < direct.ys.numel(); ++i) {
    EXPECT_EQ(response.batch.ys[i], direct.ys[i]);
  }
  EXPECT_EQ(response.snapshot_version, snap->version());
  EXPECT_GT(response.seconds, 0.0);

  const auto stats = service.stats().totals();
  EXPECT_EQ(stats.label_requests, 1u);
  EXPECT_EQ(stats.samples_labeled, 16u);
  EXPECT_EQ(stats.labels_reused + stats.labels_computed, 16u);
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GE(stats.max_request_seconds, response.seconds);
}

TEST_F(ServiceFixture, LookupSubmitIsSeedDeterministic) {
  service::DataService service({.workers = 2});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, *ds_));
  const nn::Batchset query = regime_data(0.0, 12, 103);

  auto a = service.submit(service::LookupRequest{query.xs, 55}).get();
  auto b = service.submit(service::LookupRequest{query.xs, 55}).get();
  ASSERT_EQ(a.batch.xs.shape(), b.batch.xs.shape());
  for (std::size_t i = 0; i < a.batch.xs.numel(); ++i) {
    EXPECT_EQ(a.batch.xs[i], b.batch.xs[i]);
  }
  EXPECT_EQ(service.stats().totals().lookup_requests, 2u);
}

TEST_F(ServiceFixture, RecommendSubmitUsesManager) {
  fairms::ModelZoo zoo(db_);
  const auto snap = ds_->snapshot();
  const auto pdf = snap->distribution(history_.xs);
  const auto id = zoo.publish("braggnn", "h", pdf, {1, 2, 3});
  fairms::ModelManager manager(zoo, 1.0);
  service::DataService service({.workers = 2});
  ASSERT_TRUE(
      service.add_stream(service::kDefaultStreamName, *ds_, {}, &manager));

  const auto response =
      service.submit(service::RecommendRequest{"braggnn", history_.xs})
          .get();
  ASSERT_TRUE(response.pick.has_value());
  EXPECT_EQ(response.pick->model_id, id);
  EXPECT_EQ(response.pdf.size(), snap->n_clusters());
  EXPECT_EQ(service.stats().totals().recommend_requests, 1u);

  const auto miss =
      service.submit(service::RecommendRequest{"tomonet", history_.xs})
          .get();
  EXPECT_FALSE(miss.pick.has_value());
}

TEST_F(ServiceFixture, AsyncRetrainDoesNotBlockQueries) {
  // Threshold > 1 forces the retrain on any probe; the user plane must keep
  // answering (against the old snapshot) while the system plane trains.
  store::DocStore db;
  auto config = small_config();
  config.certainty_threshold = 1.01;
  fairds::FairDS ds(config, db);
  ds.train_system(history_.xs);
  ds.ingest(history_.xs, history_.ys, "h");
  service::DataService service({.workers = 2});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, ds));

  const std::uint64_t v1 = ds.snapshot()->version();
  const nn::Batchset probe = regime_data(1.5, 48, 104);
  ASSERT_TRUE(service.request_retrain(probe.xs));
  // Coalescing: a second request while one is in flight is dropped.
  const bool second = service.request_retrain(probe.xs);

  // Queries submitted while the retrain runs must all be answered.
  const nn::Batchset query = regime_data(0.0, 8, 105);
  std::vector<std::future<service::LabelResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        service.submit(service::LabelRequest{query.xs, 1e9, zero_labeler}));
  }
  for (auto& f : futures) {
    const auto response = f.get();
    EXPECT_EQ(response.reuse.reused + response.reuse.computed, 8u);
  }
  service.wait_idle();
  EXPECT_FALSE(service.retrain_in_flight());
  // The second request is normally coalesced while the first trains; if it
  // raced past the first check's completion both may have retrained, so the
  // bounds are >=.
  EXPECT_GE(ds.snapshot()->version(), v1 + 1);
  EXPECT_GE(ds.retrain_count(), 1u);
  const auto stats = service.stats().totals();
  EXPECT_GE(stats.retrain_checks, 1u);
  EXPECT_GE(stats.retrains, 1u);
  (void)second;
}

TEST_F(ServiceFixture, ConcurrentClientsWithRetrainMidStream) {
  // The acceptance scenario: >= 4 concurrent lookup_or_label clients keep
  // submitting while maybe_retrain fires in the background. Run with a
  // forced-trigger threshold so the swap really happens mid-stream.
  store::DocStore db;
  auto config = small_config();
  config.certainty_threshold = 1.01;
  fairds::FairDS ds(config, db);
  ds.train_system(history_.xs);
  ds.ingest(history_.xs, history_.ys, "h");
  service::DataService service({.workers = 4});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, ds));

  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 6;
  std::atomic<std::size_t> answered{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const nn::Batchset query = regime_data(0.0, 8, 200 + c);
      for (int b = 0; b < kBatchesPerClient; ++b) {
        auto response =
            service
                .submit(service::LabelRequest{query.xs, 1e9, zero_labeler})
                .get();
        if (response.reuse.reused + response.reuse.computed != 8u) {
          failed.store(true);
        }
        answered.fetch_add(1);
        if (c == 0 && b == 1) {
          // One client doubles as the drift monitor mid-stream.
          const nn::Batchset probe = regime_data(1.5, 48, 210);
          service.request_retrain(probe.xs);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.wait_idle();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(answered.load(),
            static_cast<std::size_t>(kClients * kBatchesPerClient));
  EXPECT_GE(ds.retrain_count(), 1u);
  const auto stats = service.stats().totals();
  EXPECT_EQ(stats.label_requests,
            static_cast<std::size_t>(kClients * kBatchesPerClient));
  EXPECT_EQ(stats.samples_labeled,
            static_cast<std::size_t>(kClients * kBatchesPerClient * 8));
}

TEST_F(ServiceFixture, AutoRetrainPolicyChecksAfterLabelRequests) {
  store::DocStore db;
  auto config = small_config();
  config.certainty_threshold = 1.01;  // every check triggers
  fairds::FairDS ds(config, db);
  ds.train_system(history_.xs);
  ds.ingest(history_.xs, history_.ys, "h");
  service::DataService service({.workers = 2});
  service::StreamConfig stream;
  stream.retrain.auto_trigger = true;
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, ds, stream));

  const nn::Batchset query = regime_data(0.0, 8, 106);
  const auto response =
      service.submit(service::LabelRequest{query.xs, 1e9, zero_labeler})
          .get();
  EXPECT_EQ(response.reuse.reused + response.reuse.computed, 8u);
  service.wait_idle();
  EXPECT_GE(service.stats().totals().retrain_checks, 1u);
  EXPECT_GE(ds.retrain_count(), 1u);
}

// --- ModelZoo / ModelManager edges ------------------------------------------

TEST(ModelZooEdges, ReindexMissingIdReturnsFalse) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  EXPECT_FALSE(zoo.reindex(424242, {0.5, 0.5}));
  EXPECT_EQ(zoo.size(), 0u);
}

TEST(ModelZooEdges, PublishFetchRoundTripWithEmptyParameters) {
  // Metadata-first publish: a model registered before its weights arrive.
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  const auto id = zoo.publish("braggnn", "pending", {0.25, 0.75}, {});
  const auto rec = zoo.fetch(id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->dataset_id, "pending");
  EXPECT_EQ(rec->train_pdf, (std::vector<double>{0.25, 0.75}));
  EXPECT_TRUE(rec->parameters.empty());

  // A weightless record must never be recommended as a fine-tuning
  // foundation (loading its parameters would abort downstream), even when
  // its PDF is a perfect match.
  fairms::ModelManager manager(zoo, 1.0);
  EXPECT_TRUE(
      manager.rank("braggnn", std::vector<double>{0.25, 0.75}).empty());
  EXPECT_FALSE(manager.recommend("braggnn", std::vector<double>{0.25, 0.75})
                   .has_value());

  // Attaching weights completes the record in place: same id, now
  // fetchable with parameters and eligible for ranking.
  EXPECT_TRUE(zoo.attach_parameters(id, {1, 2, 3}));
  EXPECT_EQ(zoo.fetch(id)->parameters,
            (std::vector<std::uint8_t>{1, 2, 3}));
  const auto ranked = manager.rank("braggnn", std::vector<double>{0.25, 0.75});
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked.front().model_id, id);
  EXPECT_FALSE(zoo.attach_parameters(999999, {9}));
}

TEST(ModelZooEdges, RankSkipsMismatchedPdfWidthsAndNeverReadsParameters) {
  store::DocStore db(store::RemoteLinkConfig{.latency_seconds = 1e-9,
                                             .bandwidth_bytes_per_s = 1e12});
  fairms::ModelZoo zoo(db);
  // Parameter blobs are large on purpose: any record read would show up in
  // the byte accounting below.
  const std::vector<std::uint8_t> big_blob(64 * 1024, 0x5a);
  zoo.publish("braggnn", "stale", {0.5, 0.5}, big_blob);
  const auto good =
      zoo.publish("braggnn", "good", {0.3, 0.3, 0.4}, big_blob);
  zoo.publish("braggnn", "also_good", {0.1, 0.1, 0.8}, big_blob);

  fairms::ModelManager manager(zoo, 1.0);
  const auto before = db.link().bytes_moved();
  const auto ranked =
      manager.rank("braggnn", std::vector<double>{0.3, 0.3, 0.4});
  const auto charged = db.link().bytes_moved() - before;
  ASSERT_EQ(ranked.size(), 2u);  // the 2-wide record is skipped
  EXPECT_EQ(ranked.front().model_id, good);
  EXPECT_NEAR(ranked.front().distance, 0.0, 1e-12);
  // rank reads the zoo's in-memory index: nothing travels.
  EXPECT_EQ(charged, 0u);
}

TEST(ModelZooEdges, ConcurrentPublishFromMultipleThreads) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::thread> publishers;
  std::vector<std::vector<store::DocId>> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    publishers.emplace_back([&zoo, &ids, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const double p = static_cast<double>(i + 1) /
                         static_cast<double>(kPerThread + 1);
        ids[static_cast<std::size_t>(t)].push_back(zoo.publish(
            "braggnn", "t" + std::to_string(t) + "_" + std::to_string(i),
            {p, 1.0 - p},
            {static_cast<std::uint8_t>(t), static_cast<std::uint8_t>(i)}));
      }
    });
  }
  for (auto& t : publishers) t.join();

  EXPECT_EQ(zoo.size(), static_cast<std::size_t>(kThreads * kPerThread));
  // Every publish returned a distinct id and every record is fetchable.
  std::vector<store::DocId> all;
  for (const auto& batch : ids) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  for (const store::DocId id : all) {
    EXPECT_TRUE(zoo.fetch(id).has_value());
  }
  // Every publish landed in the rank index exactly once: publishes racing
  // on the index swap lose no row and duplicate none.
  fairms::ModelManager manager(zoo, 1.0);
  std::vector<store::DocId> ranked_ids;
  for (const auto& r : manager.rank("braggnn", std::vector<double>{0.5, 0.5})) {
    ranked_ids.push_back(r.model_id);
  }
  std::sort(ranked_ids.begin(), ranked_ids.end());
  EXPECT_EQ(ranked_ids, all);
}

// --- sharded-store plumbing through FairDS and the service layer ------------

TEST(ShardedServing, StoreShardsPlumbThroughConfigAndStats) {
  store::DocStore db;
  const nn::Batchset history = regime_data(0.0, 64, 301);
  auto config = small_config();
  config.store_shards = 4;
  fairds::FairDS ds(config, db);
  EXPECT_EQ(ds.store_shards(), 4u);
  ds.train_system(history.xs);
  ds.ingest(history.xs, history.ys, "history_0");

  // A matching declared shard count is accepted and surfaces in stats.
  service::DataService service({.workers = 2});
  service::StreamConfig stream;
  stream.store_shards = 4;
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, ds, stream));
  auto future = service.submit(
      service::LabelRequest{history.xs, 1e9, zero_labeler});
  future.get();
  EXPECT_EQ(service.stream_stats(service::kDefaultStreamName).store_shards,
            4u);
}

TEST(ShardedServing, UserPlaneResultsIdenticalAcrossShardCounts) {
  // End-to-end fairDS parity: the shard count is a concurrency knob, never
  // a results knob. Identical training + ingest over 1-shard and 8-shard
  // stores must serve identical distributions, lookups, and reuse labels.
  const nn::Batchset history = regime_data(0.0, 96, 303);
  const nn::Batchset query = regime_data(0.05, 24, 304);

  auto run = [&](std::size_t shards) {
    auto db = std::make_unique<store::DocStore>();
    auto config = small_config();
    config.store_shards = shards;
    fairds::FairDS ds(config, *db);
    ds.train_system(history.xs);
    ds.ingest(history.xs, history.ys, "history_0");
    struct Out {
      std::vector<double> pdf;
      nn::Batchset lookup;
      nn::Batchset labeled;
      fairds::ReuseStats reuse;
    } out;
    const auto snap = ds.snapshot();
    out.pdf = snap->distribution(query.xs);
    out.lookup = snap->lookup(query.xs, /*seed=*/7);
    out.labeled =
        snap->lookup_or_label(query.xs, 0.75, zero_labeler, &out.reuse);
    return out;
  };

  const auto base = run(1);
  const auto sharded = run(8);
  EXPECT_EQ(base.pdf, sharded.pdf);
  EXPECT_EQ(base.reuse.reused, sharded.reuse.reused);
  EXPECT_EQ(base.reuse.computed, sharded.reuse.computed);
  ASSERT_EQ(base.lookup.ys.numel(), sharded.lookup.ys.numel());
  for (std::size_t i = 0; i < base.lookup.ys.numel(); ++i) {
    EXPECT_EQ(base.lookup.ys[i], sharded.lookup.ys[i]) << "lookup ys " << i;
  }
  ASSERT_EQ(base.labeled.ys.numel(), sharded.labeled.ys.numel());
  for (std::size_t i = 0; i < base.labeled.ys.numel(); ++i) {
    EXPECT_EQ(base.labeled.ys[i], sharded.labeled.ys[i]) << "labeled ys " << i;
  }
}

}  // namespace
}  // namespace fairdms
