// Multi-stream DataService tests: cross-stream isolation (labels from one
// stream never answer another's queries), per-stream snapshot version
// monotonicity under concurrent ingest/lookup/retrain, per-stream shed
// accounting (one saturated tenant sheds without touching the others),
// unknown-stream structured answers, model-cache gauges counted once per
// shared zoo, the RetrainPolicy gates (min-new-samples, cooldown, forced
// threshold), and snapshot and route loads that stay ordered against
// concurrent publishes. Carries the `service` label, so the TSan CI job and the
// Release `--repeat until-fail:3` stress step cover the concurrent paths.
#include <gtest/gtest.h>

#include <atomic>
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

fairds::FairDSConfig small_config(std::uint64_t seed,
                                  const std::string& collection) {
  fairds::FairDSConfig config;
  config.embedding_algorithm = "byol";
  config.embedding_dim = 8;
  config.image_size = 15;
  config.n_clusters = 4;
  config.embed_train.epochs = 2;
  config.embed_train.batch_size = 24;
  config.seed = seed;
  config.collection = collection;
  return config;
}

nn::Batchset regime_data(double drift, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  datagen::BraggRegime regime;
  regime.sigma_major_mean *= 1.0 + drift;
  return datagen::make_bragg_batchset(regime, {}, n, rng);
}

/// Overwrites every label with a constant tag so reuse provenance is
/// observable: a query answered from stream k's collection returns labels
/// that are all exactly `tag`.
nn::Batchset tagged_history(float tag, std::size_t n, std::uint64_t seed) {
  nn::Batchset batch = regime_data(0.0, n, seed);
  for (std::size_t i = 0; i < batch.ys.numel(); ++i) {
    batch.ys.data()[i] = tag;
  }
  return batch;
}

/// Three same-shape streams ("s0", "s1", "s2") over one shared store, each
/// trained on the same world but ingesting its own tagged history — the
/// tags make cross-stream label leakage directly assertable.
class MultiStreamFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kStreams = 3;

  void SetUp() override {
    for (std::size_t s = 0; s < kStreams; ++s) {
      histories_.push_back(tagged_history(tag(s), 72, 500 + s));
      streams_.push_back(std::make_unique<fairds::FairDS>(
          small_config(600 + s, "stream_" + name(s)), db_));
      streams_.back()->train_system(histories_.back().xs);
      streams_.back()->ingest(histories_.back().xs, histories_.back().ys,
                              "history_" + name(s));
    }
    label_width_ = streams_[0]->snapshot()->label_width();
  }

  static float tag(std::size_t s) { return static_cast<float>(s + 1); }
  static std::string name(std::size_t s) { return "s" + std::to_string(s); }

  std::function<Tensor(const Tensor&)> fast_labeler() {
    const std::size_t width = label_width_;
    return [width](const Tensor& xs) { return Tensor({xs.dim(0), width}); };
  }

  void add_all(service::DataService& service,
               service::StreamConfig config = {}) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(service.add_stream(name(s), *streams_[s], config));
    }
  }

  store::DocStore db_;
  std::vector<nn::Batchset> histories_;
  std::vector<std::unique_ptr<fairds::FairDS>> streams_;
  std::size_t label_width_ = 0;
};

// Reuse-everything queries against each stream must come back with that
// stream's tag on every label: stream routing reaches the right collection
// and never crosses tenants.
TEST_F(MultiStreamFixture, LabelsNeverLeakAcrossStreams) {
  service::DataService service({.workers = 2});
  add_all(service);

  const nn::Batchset query = regime_data(0.0, 8, 700);
  for (std::size_t s = 0; s < kStreams; ++s) {
    auto future = service.submit(
        service::LabelRequest{query.xs, 1e9, fast_labeler(), name(s)});
    const auto response = future.get();
    ASSERT_EQ(response.status, service::ServeStatus::kOk);
    EXPECT_EQ(response.reuse.reused, query.xs.dim(0));
    EXPECT_EQ(response.reuse.computed, 0u);
    for (std::size_t i = 0; i < response.batch.ys.numel(); ++i) {
      ASSERT_EQ(response.batch.ys.data()[i], tag(s))
          << "stream " << name(s) << " answered with another stream's label";
    }
  }
}

// The TSan-run stress: concurrent label/lookup/ingest/retrain across all
// three streams. Asserts per-stream snapshot version monotonicity (as seen
// by each client thread), zero cross-stream label leakage under load, and
// the per-stream admission ledger once idle.
TEST_F(MultiStreamFixture, ConcurrentTenantsStayIsolatedUnderLoad) {
  service::DataService service({.workers = 3});
  service::StreamConfig tenant;
  tenant.retrain.certainty_threshold = 1.01;  // every retrain check trains
  service::DataService* svc = &service;
  add_all(service, tenant);

  constexpr int kRounds = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t s = 0; s < kStreams; ++s) {
    clients.emplace_back([&, s] {
      std::uint64_t last_version = 0;
      for (int r = 0; r < kRounds; ++r) {
        const nn::Batchset query = regime_data(0.0, 4, 800 + 10 * s + r);
        // Mid-stream system-plane churn: ingest more tagged samples + a
        // forced retrain on this stream's own executor.
        const nn::Batchset extra =
            tagged_history(tag(s), 4, 1000 + 10 * s + r);
        streams_[s]->ingest(extra.xs, extra.ys,
                            name(s) + "_r" + std::to_string(r));
        if (r == 2) (void)svc->request_retrain(name(s), query.xs);

        auto label = svc->submit(
            service::LabelRequest{query.xs, 1e9, fast_labeler(), name(s)});
        auto lookup = svc->submit(
            service::LookupRequest{query.xs,
                                   static_cast<std::uint64_t>(7 + r),
                                   name(s)});
        const auto label_response = label.get();
        const auto lookup_response = lookup.get();
        if (label_response.status != service::ServeStatus::kOk ||
            lookup_response.status != service::ServeStatus::kOk) {
          ++failures;  // unbounded queue: nothing may shed
          continue;
        }
        // Per-stream snapshot versions only ever move forward.
        if (label_response.snapshot_version < last_version) ++failures;
        last_version = label_response.snapshot_version;
        // Labels answered from this stream always carry this stream's tag.
        for (std::size_t i = 0; i < label_response.batch.ys.numel(); ++i) {
          if (label_response.batch.ys.data()[i] != tag(s)) ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.wait_idle();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = service.stats();
  ASSERT_EQ(stats.streams.size(), kStreams);
  for (const auto& s : stats.streams) {
    EXPECT_EQ(s.label_requests, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(s.label_requests, s.label_answered + s.label_shed);
    EXPECT_EQ(s.lookup_requests, s.lookup_answered + s.lookup_shed);
    // r == 2 forced one retrain per stream; threshold > 1 made it train.
    EXPECT_GE(s.retrains, 1u);
    EXPECT_EQ(s.queue_depth, 0u);
  }
  EXPECT_EQ(stats.queue_depth, 0u);
}

// One saturated tenant sheds on its own per-stream bound while another
// tenant's requests keep being admitted through the same worker pool.
TEST_F(MultiStreamFixture, PerStreamBoundShedsOnlyTheSaturatedTenant) {
  service::DataService service({.workers = 1});
  service::StreamConfig bounded;
  bounded.max_pending = 1;
  ASSERT_TRUE(service.add_stream(name(0), *streams_[0], bounded));
  ASSERT_TRUE(service.add_stream(name(1), *streams_[1], {}));

  // Wedge the single worker inside a stream-0 request (executing requests
  // do not count against the pending bound).
  std::promise<void> release;
  std::shared_future<void> opened = release.get_future().share();
  std::atomic<bool> entered{false};
  const std::size_t width = label_width_;
  const auto gated = [&entered, opened, width](const Tensor& xs) {
    entered.store(true);
    opened.wait();
    return Tensor({xs.dim(0), width});
  };
  const nn::Batchset query = regime_data(0.0, 4, 900);
  auto wedge =
      service.submit(service::LabelRequest{query.xs, -1.0, gated, name(0)});
  while (!entered.load()) std::this_thread::yield();

  // Stream 0: one admitted (fills its bound), the next shed in O(1).
  auto queued = service.submit(
      service::LabelRequest{query.xs, 1e9, fast_labeler(), name(0)});
  auto shed = service.submit(
      service::LabelRequest{query.xs, 1e9, fast_labeler(), name(0)});
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(shed.get().status, service::ServeStatus::kShedOverload);

  // Stream 1 is not saturated: its request is admitted despite sharing the
  // wedged worker pool.
  auto other = service.submit(
      service::LabelRequest{query.xs, 1e9, fast_labeler(), name(1)});
  EXPECT_NE(other.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);

  release.set_value();
  EXPECT_EQ(wedge.get().status, service::ServeStatus::kOk);
  EXPECT_EQ(queued.get().status, service::ServeStatus::kOk);
  EXPECT_EQ(other.get().status, service::ServeStatus::kOk);
  service.wait_idle();

  const auto stats = service.stats();
  ASSERT_EQ(stats.streams.size(), 2u);
  const auto& s0 = stats.streams[0];
  const auto& s1 = stats.streams[1];
  EXPECT_EQ(s0.label_requests, 3u);
  EXPECT_EQ(s0.label_answered, 2u);
  EXPECT_EQ(s0.label_shed, 1u);
  EXPECT_EQ(s0.max_pending, 1u);
  EXPECT_EQ(s1.label_requests, 1u);
  EXPECT_EQ(s1.label_answered, 1u);
  EXPECT_EQ(s1.label_shed, 0u);
}

// An unregistered stream id gets a structured answer, before submit()
// returns, on every op; the service keeps serving registered streams
// afterwards.
TEST_F(MultiStreamFixture, UnknownStreamIsAStructuredAnswerNotAnAbort) {
  service::DataService service({.workers = 1});
  add_all(service);

  const nn::Batchset query = regime_data(0.0, 4, 901);
  auto label = service.submit(
      service::LabelRequest{query.xs, 1e9, fast_labeler(), "never-added"});
  ASSERT_EQ(label.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(label.get().status, service::ServeStatus::kUnknownStream);

  // Callback form: answered inline, exactly once, before submit() returns.
  int lookup_calls = 0;
  service::ServeStatus lookup_status = service::ServeStatus::kOk;
  service.submit(service::LookupRequest{query.xs, 1, "never-added"},
                 [&](service::LookupResponse response) {
                   ++lookup_calls;
                   lookup_status = response.status;
                 });
  EXPECT_EQ(lookup_calls, 1);
  EXPECT_EQ(lookup_status, service::ServeStatus::kUnknownStream);
  auto recommend = service.submit(
      service::RecommendRequest{"braggnn", query.xs, "never-added"});
  EXPECT_EQ(recommend.get().status, service::ServeStatus::kUnknownStream);
  EXPECT_FALSE(service.request_retrain("never-added", query.xs));

  const auto stats = service.stats();
  EXPECT_EQ(stats.unknown_stream_requests, 4u);
  // Unknown requests belong to no stream: no stream's ledger counted them.
  const auto totals = stats.totals();
  EXPECT_EQ(totals.label_requests + totals.lookup_requests +
                totals.recommend_requests + totals.retrain_checks +
                totals.retrains_coalesced,
            0u);

  auto ok = service.submit(
      service::LabelRequest{query.xs, 1e9, fast_labeler(), name(1)});
  EXPECT_EQ(ok.get().status, service::ServeStatus::kOk);
}

// Two tenants with different distance thresholds need two managers, but
// the blob cache belongs to the zoo they share: its gauges count once.
TEST_F(MultiStreamFixture, ModelCacheGaugesCountASharedZooOnce) {
  fairms::ModelZoo zoo(db_);
  const auto id = zoo.publish("braggnn", "shared", {0.5, 0.5}, {1, 2, 3});
  const fairms::ModelManager strict(zoo, 0.5);
  const fairms::ModelManager lax(zoo, 1.0);
  service::DataService service({.workers = 1});
  ASSERT_TRUE(service.add_stream(name(0), *streams_[0], {}, &strict));
  ASSERT_TRUE(service.add_stream(name(1), *streams_[1], {}, &lax));

  zoo.cache().clear();
  for (int i = 0; i < 3; ++i) ASSERT_NE(zoo.fetch_cached(id), nullptr);
  const auto cache = zoo.cache().stats();
  ASSERT_GT(cache.hits, 0u);
  ASSERT_GT(cache.misses, 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.model_cache_hits, cache.hits);
  EXPECT_EQ(stats.model_cache_misses, cache.misses);
  EXPECT_EQ(stats.model_cache_evictions, cache.evictions);
  EXPECT_EQ(stats.model_cache_bytes, cache.resident_bytes);
}

// RetrainPolicy gates: min-new-samples accumulates before the first check
// fires; a long cooldown suppresses (and counts) later triggers.
TEST_F(MultiStreamFixture, RetrainPolicyGatesTriggerAndCooldown) {
  service::DataService service({.workers = 1});
  service::StreamConfig tenant;
  tenant.retrain.auto_trigger = true;
  tenant.retrain.certainty_threshold = 1.01;  // always retrains when checked
  tenant.retrain.min_new_samples = 8;
  tenant.retrain.cooldown_seconds = 3600.0;
  ASSERT_TRUE(service.add_stream(name(0), *streams_[0], tenant));

  const auto labeled = [&](std::size_t n, std::uint64_t seed) {
    const nn::Batchset query = regime_data(0.0, n, seed);
    auto future = service.submit(
        service::LabelRequest{query.xs, 1e9, fast_labeler(), name(0)});
    EXPECT_EQ(future.get().status, service::ServeStatus::kOk);
    service.wait_idle();
  };

  // 4 samples: below the min-new-samples gate, no check enqueued.
  labeled(4, 910);
  service::StreamStats s0 = service.stream_stats(name(0));
  EXPECT_EQ(s0.retrain_checks, 0u);

  // 4 more: the budget (8) is met, the check runs, threshold > 1 retrains.
  labeled(4, 911);
  s0 = service.stream_stats(name(0));
  EXPECT_EQ(s0.retrain_checks, 1u);
  EXPECT_EQ(s0.retrains, 1u);
  EXPECT_EQ(s0.policy_cooldown_skips, 0u);

  // Another full budget: the hour-long cooldown suppresses the trigger and
  // counts it; no second check runs.
  labeled(8, 912);
  s0 = service.stream_stats(name(0));
  EXPECT_EQ(s0.retrain_checks, 1u);
  EXPECT_GE(s0.policy_cooldown_skips, 1u);
}

// Publication under contention: readers route to a stream and load its
// snapshot while a writer publishes a new snapshot per one-row ingest and
// registers new streams (each add publishes a new registry map). Every
// reader must see snapshot versions and registrations that never go
// backwards; under ThreadSanitizer a load racing a publish fails the test.
TEST_F(MultiStreamFixture, SnapshotAndRouteLoadsStayOrderedUnderPublishes) {
  service::DataService service({.workers = 1});
  ASSERT_TRUE(service.add_stream(name(0), *streams_[0]));
  constexpr std::size_t kRows = 48;
  constexpr std::size_t kAddEvery = 8;
  constexpr std::size_t kReaders = 3;
  const std::uint64_t v0 = service.snapshot(name(0))->version();
  const auto extra = [](std::size_t k) { return "extra" + std::to_string(k); };

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      std::size_t routed = 0;  // extra streams this reader has seen
      while (!done.load(std::memory_order_acquire)) {
        const auto snap = service.snapshot(name(0));
        if (snap == nullptr || snap->version() < last_version) ++failures;
        if (snap != nullptr) last_version = snap->version();
        if (service.has_stream(extra(routed))) ++routed;
        for (std::size_t k = 0; k < routed; ++k) {
          if (!service.has_stream(extra(k))) ++failures;
        }
      }
    });
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    const nn::Batchset row = tagged_history(tag(0), 1, 800 + i);
    streams_[0]->ingest(row.xs, row.ys, "stress");
    if (i % kAddEvery == 0) {
      EXPECT_TRUE(service.add_stream(extra(i / kAddEvery),
                                     *streams_[1 + i / kAddEvery % 2]));
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.snapshot(name(0))->version(), v0 + kRows);
  EXPECT_EQ(service.stream_names().size(), 1 + kRows / kAddEvery);
}

}  // namespace
}  // namespace fairdms
