// Admission-control tests: the bounded ThreadPool queue (try_submit
// semantics), the DataService load-shedding policy (a saturated pending
// queue rejects with ServeStatus::kShedOverload, answered before submit()
// returns and without ever blocking the submitter), full drain after a
// burst, and the admission ledger (per-op submitted == answered + shed,
// queue gauges, retrain coalescing counter). Carries the `service` label,
// so the TSan CI job and the Release `--repeat until-fail:3` stress step
// cover it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "service/data_service.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fairdms {
namespace {

using tensor::Tensor;

// --- bounded ThreadPool mechanics -------------------------------------------

/// Occupies one pool worker until released, and reports when the worker has
/// actually started (so tests can saturate the queue deterministically).
struct WorkerGate {
  std::promise<void> release;
  std::shared_future<void> opened = release.get_future().share();
  std::atomic<bool> entered{false};

  std::function<void()> task() {
    return [this] {
      entered.store(true);
      opened.wait();
    };
  }
  void wait_entered() {
    while (!entered.load()) std::this_thread::yield();
  }
  void open() { release.set_value(); }
};

TEST(BoundedThreadPool, TrySubmitHonorsQueueBound) {
  util::ThreadPool pool(1, /*max_queue=*/2);
  EXPECT_EQ(pool.max_queue(), 2u);
  WorkerGate gate;
  pool.submit(gate.task());
  gate.wait_entered();  // worker busy, queue empty

  // The bound counts waiting tasks only; the executing task is exempt.
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.try_submit([&ran] { ++ran; }));
  EXPECT_TRUE(pool.try_submit([&ran] { ++ran; }));
  EXPECT_EQ(pool.queue_depth(), 2u);
  EXPECT_FALSE(pool.try_submit([&ran] { ++ran; }));  // full: rejected
  // submit() is the internal substrate and bypasses the bound.
  pool.submit([&ran] { ++ran; });
  EXPECT_EQ(pool.queue_depth(), 3u);

  gate.open();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 3);  // the rejected task never ran
  EXPECT_EQ(pool.queue_depth(), 0u);
  // The bound frees up as the queue drains.
  EXPECT_TRUE(pool.try_submit([&ran] { ++ran; }));
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 4);
}

TEST(BoundedThreadPool, UnboundedPoolNeverRejects) {
  util::ThreadPool pool(1, /*max_queue=*/0);
  WorkerGate gate;
  pool.submit(gate.task());
  gate.wait_entered();
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(pool.try_submit([&ran] { ++ran; }));
  }
  gate.open();
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 64);
}

// --- DataService load shedding ----------------------------------------------

fairds::FairDSConfig small_config() {
  fairds::FairDSConfig config;
  config.embedding_algorithm = "byol";
  config.embedding_dim = 8;
  config.image_size = 15;
  config.n_clusters = 4;
  config.embed_train.epochs = 3;
  config.embed_train.batch_size = 24;
  config.seed = 77;
  return config;
}

nn::Batchset regime_data(double drift, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  datagen::BraggRegime regime;
  regime.sigma_major_mean *= 1.0 + drift;
  return datagen::make_bragg_batchset(regime, {}, n, rng);
}

class AdmissionFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = regime_data(0.0, 96, 501);
    ds_ = std::make_unique<fairds::FairDS>(small_config(), db_);
    ds_->train_system(history_.xs);
    ds_->ingest(history_.xs, history_.ys, "history_0");
    label_width_ = ds_->snapshot()->label_width();
    query_ = regime_data(0.0, 8, 502);
  }

  /// Fast labeler of the stored width (for reuse-threshold 1e9 requests
  /// it is never invoked; for threshold -1 it labels everything).
  std::function<Tensor(const Tensor&)> fast_labeler() {
    const std::size_t width = label_width_;
    return [width](const Tensor& xs) { return Tensor({xs.dim(0), width}); };
  }

  /// Labeler that blocks until `gate.open()`, reporting entry — pins one
  /// service worker inside a request so tests can fill the queue behind it.
  std::function<Tensor(const Tensor&)> gated_labeler(WorkerGate& gate) {
    const std::size_t width = label_width_;
    return [&gate, width](const Tensor& xs) {
      gate.entered.store(true);
      gate.opened.wait();
      return Tensor({xs.dim(0), width});
    };
  }

  store::DocStore db_;
  nn::Batchset history_;
  nn::Batchset query_;
  std::unique_ptr<fairds::FairDS> ds_;
  std::size_t label_width_ = 0;
};

TEST_F(AdmissionFixture, SaturatedQueueShedsWithDocumentedStatus) {
  service::DataService service({.workers = 1, .max_pending = 1});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, *ds_));
  WorkerGate gate;
  // Occupant: threshold -1 routes every sample to the blocking labeler.
  auto occupant = service.submit(
      service::LabelRequest{query_.xs, -1.0, gated_labeler(gate)});
  gate.wait_entered();  // worker pinned, queue empty

  // Fills the single pending slot. Callback form: the ledger read from
  // inside the callback already counts this request answered.
  std::promise<std::uint64_t> answered_in_callback;
  service.submit(service::LabelRequest{query_.xs, 1e9, fast_labeler()},
                 [&](service::LabelResponse response) {
                   EXPECT_EQ(response.status, service::ServeStatus::kOk);
                   answered_in_callback.set_value(
                       service.stats().totals().label_answered);
                 });
  // Queue full: shed with the documented status, future ready immediately,
  // payload default-constructed.
  auto shed = service.submit(
      service::LabelRequest{query_.xs, 1e9, fast_labeler()});
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto shed_response = shed.get();
  EXPECT_EQ(shed_response.status, service::ServeStatus::kShedOverload);
  EXPECT_EQ(shed_response.batch.ys.numel(), 0u);
  EXPECT_EQ(shed_response.snapshot_version, 0u);
  EXPECT_EQ(shed_response.reuse.reused + shed_response.reuse.computed, 0u);
  // Callback form: the shed callback has run, exactly once, on this thread
  // by the time submit() returns.
  int shed_calls = 0;
  service::ServeStatus shed_status = service::ServeStatus::kOk;
  service.submit(service::LabelRequest{query_.xs, 1e9, fast_labeler()},
                 [&](service::LabelResponse response) {
                   ++shed_calls;
                   shed_status = response.status;
                 });
  EXPECT_EQ(shed_calls, 1);
  EXPECT_EQ(shed_status, service::ServeStatus::kShedOverload);
  // The worker is still pinned: the shed decision never waited on it.
  EXPECT_TRUE(gate.entered.load());

  gate.open();
  EXPECT_EQ(occupant.get().status, service::ServeStatus::kOk);
  // Occupant and queued request, in that order, on the single worker.
  EXPECT_EQ(answered_in_callback.get_future().get(), 2u);
  service.wait_idle();
  EXPECT_EQ(shed_calls, 1);

  const auto stats = service.stats();
  const auto totals = stats.totals();
  EXPECT_EQ(totals.label_requests, 4u);
  EXPECT_EQ(totals.label_answered, 2u);
  EXPECT_EQ(totals.label_shed, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.max_pending, 1u);
  EXPECT_LE(stats.max_queue_depth, 1u);
}

TEST_F(AdmissionFixture, ShedNeverBlocksSubmitters) {
  service::DataService service({.workers = 1, .max_pending = 1});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, *ds_));
  WorkerGate gate;
  auto occupant = service.submit(
      service::LabelRequest{query_.xs, -1.0, gated_labeler(gate)});
  gate.wait_entered();
  auto queued = service.submit(
      service::LabelRequest{query_.xs, 1e9, fast_labeler()});

  // With the worker pinned and the queue full, every further submit must
  // come back already satisfied — the rejection path cannot touch the
  // worker, the queue, or any future that would make the submitter wait.
  for (int i = 0; i < 16; ++i) {
    auto future = service.submit(
        service::LabelRequest{query_.xs, 1e9, fast_labeler()});
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "shed future " << i << " not immediately ready";
    EXPECT_EQ(future.get().status, service::ServeStatus::kShedOverload);
  }

  gate.open();
  (void)occupant.get();
  (void)queued.get();
  service.wait_idle();
  const auto totals = service.stats().totals();
  EXPECT_EQ(totals.label_requests, 18u);
  EXPECT_EQ(totals.label_answered, 2u);
  EXPECT_EQ(totals.label_shed, 16u);
}

TEST_F(AdmissionFixture, AllOpTypesShedAndReconcile) {
  fairms::ModelZoo zoo(db_);
  zoo.publish("braggnn", "m0", ds_->snapshot()->distribution(history_.xs),
              {1, 2, 3});
  fairms::ModelManager manager(zoo, 1.0);
  // The same scenario against each admission bound: the service-wide queue
  // (the pool rejects) and the stream's own bound (the stream rejects
  // before the pool is asked). Every op must shed through both.
  for (const bool per_stream : {false, true}) {
    SCOPED_TRACE(per_stream ? "StreamConfig::max_pending = 1"
                            : "DataServiceConfig::max_pending = 1");
    service::DataService service(
        {.workers = 1, .max_pending = per_stream ? 0u : 1u});
    service::StreamConfig stream;
    stream.max_pending = per_stream ? 1 : 0;
    ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, *ds_, stream,
                                   &manager));
    WorkerGate gate;
    auto occupant = service.submit(
        service::LabelRequest{query_.xs, -1.0, gated_labeler(gate)});
    gate.wait_entered();
    auto queued = service.submit(
        service::LabelRequest{query_.xs, 1e9, fast_labeler()});

    auto shed_lookup = service.submit(service::LookupRequest{query_.xs, 5});
    ASSERT_EQ(shed_lookup.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(shed_lookup.get().status, service::ServeStatus::kShedOverload);

    auto shed_recommend =
        service.submit(service::RecommendRequest{"braggnn", query_.xs});
    ASSERT_EQ(shed_recommend.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto recommend_response = shed_recommend.get();
    EXPECT_EQ(recommend_response.status, service::ServeStatus::kShedOverload);
    EXPECT_FALSE(recommend_response.pick.has_value());

    gate.open();
    (void)occupant.get();
    (void)queued.get();
    service.wait_idle();

    // After drain, an accepted lookup and recommend complete normally.
    EXPECT_EQ(
        service.submit(service::LookupRequest{query_.xs, 5}).get().status,
        service::ServeStatus::kOk);
    EXPECT_EQ(service.submit(service::RecommendRequest{"braggnn", query_.xs})
                  .get()
                  .status,
              service::ServeStatus::kOk);
    service.wait_idle();

    const auto stats = service.stats();
    const auto totals = stats.totals();
    EXPECT_EQ(totals.label_requests,
              totals.label_answered + totals.label_shed);
    EXPECT_EQ(totals.lookup_requests,
              totals.lookup_answered + totals.lookup_shed);
    EXPECT_EQ(totals.recommend_requests,
              totals.recommend_answered + totals.recommend_shed);
    EXPECT_EQ(totals.lookup_shed, 1u);
    EXPECT_EQ(totals.lookup_answered, 1u);
    EXPECT_EQ(totals.recommend_shed, 1u);
    EXPECT_EQ(totals.recommend_answered, 1u);
    EXPECT_EQ(stats.queue_depth, 0u);
    ASSERT_EQ(stats.streams.size(), 1u);
    EXPECT_EQ(stats.streams[0].queue_depth, 0u);
  }
}

TEST_F(AdmissionFixture, QueueDrainsFullyAfterBurst) {
  service::DataService service({.workers = 2, .max_pending = 4});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, *ds_));
  // Open-loop burst far above capacity: outcomes depend on scheduling, but
  // the ledger must reconcile exactly and the queue must drain to zero.
  constexpr int kBurst = 64;
  std::vector<std::future<service::LabelResponse>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(service.submit(
        service::LabelRequest{query_.xs, 1e9, fast_labeler()}));
  }
  std::size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const auto response = f.get();
    if (response.status == service::ServeStatus::kOk) {
      ++ok;
      EXPECT_GT(response.snapshot_version, 0u);
    } else {
      ++shed;
    }
  }
  service.wait_idle();

  EXPECT_EQ(ok + shed, static_cast<std::size_t>(kBurst));
  EXPECT_GT(ok, 0u);  // admitted work always completes
  const auto stats = service.stats();
  const auto totals = stats.totals();
  EXPECT_EQ(totals.label_requests, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(totals.label_answered, ok);
  EXPECT_EQ(totals.label_shed, shed);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_LE(stats.max_queue_depth, 4u);

  // The service stays fully usable after the burst.
  EXPECT_EQ(service.submit(service::LabelRequest{query_.xs, 1e9,
                                                 fast_labeler()})
                .get()
                .status,
            service::ServeStatus::kOk);
}

TEST_F(AdmissionFixture, UnboundedConfigNeverSheds) {
  service::DataService service({.workers = 1, .max_pending = 0});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, *ds_));
  std::vector<std::future<service::LabelResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(service.submit(
        service::LabelRequest{query_.xs, 1e9, fast_labeler()}));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, service::ServeStatus::kOk);
  }
  service.wait_idle();
  const auto stats = service.stats();
  EXPECT_EQ(stats.totals().label_shed, 0u);
  EXPECT_EQ(stats.totals().label_answered, 32u);
  EXPECT_EQ(stats.max_pending, 0u);
}

TEST_F(AdmissionFixture, RetrainCoalescingIsCounted) {
  auto config = small_config();
  config.certainty_threshold = 1.01;  // every check trains
  store::DocStore db;
  fairds::FairDS ds(config, db);
  ds.train_system(history_.xs);
  ds.ingest(history_.xs, history_.ys, "h");
  service::DataService service({.workers = 1});
  ASSERT_TRUE(service.add_stream(service::kDefaultStreamName, ds));

  const nn::Batchset probe = regime_data(1.5, 48, 503);
  ASSERT_TRUE(service.request_retrain(probe.xs));
  const bool second = service.request_retrain(probe.xs);
  service.wait_idle();
  const auto stats = service.stats().totals();
  // Whichever way the race went, both calls are accounted for: each either
  // ran a check or was coalesced into the in-flight one.
  EXPECT_EQ(stats.retrain_checks + stats.retrains_coalesced, 2u);
  if (!second) EXPECT_EQ(stats.retrains_coalesced, 1u);
}

// The multi-stream ledger invariants after a mixed outcome (one tenant
// shedding on its own bound, the other answering, retrain activity on both
// planes): every stream's per-op ledger balances, and totals() is exactly
// the hand-summed per-stream ledgers. A drifting total here would mean the
// fold skipped or double-counted a counter.
TEST_F(AdmissionFixture, GlobalStatsReconcileWithPerStreamLedgers) {
  auto config_b = small_config();
  config_b.seed = 78;
  config_b.collection = "fairds_samples_b";  // own collection in shared db_
  fairds::FairDS ds_b(config_b, db_);
  ds_b.train_system(history_.xs);
  ds_b.ingest(history_.xs, history_.ys, "history_b");

  service::DataService service({.workers = 1});
  service::StreamConfig bounded;
  bounded.max_pending = 1;
  ASSERT_TRUE(service.add_stream("a", *ds_, bounded));
  ASSERT_TRUE(service.add_stream("b", ds_b, {}));

  // Wedge the worker inside a stream-a request, then drive both tenants to
  // different outcomes: a sheds on its bound, b queues freely.
  WorkerGate gate;
  auto wedge = service.submit(
      service::LabelRequest{query_.xs, -1.0, gated_labeler(gate), "a"});
  gate.wait_entered();
  std::vector<std::future<service::LabelResponse>> labels;
  for (int i = 0; i < 3; ++i) {
    labels.push_back(service.submit(
        service::LabelRequest{query_.xs, 1e9, fast_labeler(), "a"}));
  }
  auto lookup_b = service.submit(service::LookupRequest{query_.xs, 11, "b"});
  auto label_b = service.submit(
      service::LabelRequest{query_.xs, 1e9, fast_labeler(), "b"});
  ASSERT_TRUE(service.request_retrain("b", regime_data(1.5, 48, 504).xs));
  gate.open();
  EXPECT_EQ(wedge.get().status, service::ServeStatus::kOk);
  EXPECT_EQ(lookup_b.get().status, service::ServeStatus::kOk);
  EXPECT_EQ(label_b.get().status, service::ServeStatus::kOk);
  service.wait_idle();

  const auto stats = service.stats();
  ASSERT_EQ(stats.streams.size(), 2u);
  service::StreamStats sum;
  for (const auto& s : stats.streams) {
    SCOPED_TRACE(s.stream);
    EXPECT_EQ(s.label_requests, s.label_answered + s.label_shed);
    EXPECT_EQ(s.lookup_requests, s.lookup_answered + s.lookup_shed);
    EXPECT_EQ(s.recommend_requests, s.recommend_answered + s.recommend_shed);
    EXPECT_EQ(s.queue_depth, 0u);
    sum.label_requests += s.label_requests;
    sum.label_answered += s.label_answered;
    sum.label_shed += s.label_shed;
    sum.lookup_requests += s.lookup_requests;
    sum.lookup_answered += s.lookup_answered;
    sum.lookup_shed += s.lookup_shed;
    sum.recommend_requests += s.recommend_requests;
    sum.recommend_answered += s.recommend_answered;
    sum.recommend_shed += s.recommend_shed;
    sum.samples_labeled += s.samples_labeled;
    sum.labels_reused += s.labels_reused;
    sum.labels_computed += s.labels_computed;
    sum.busy_seconds += s.busy_seconds;
    sum.max_request_seconds =
        std::max(sum.max_request_seconds, s.max_request_seconds);
    sum.retrain_checks += s.retrain_checks;
    sum.retrains += s.retrains;
    sum.retrains_coalesced += s.retrains_coalesced;
    sum.retrains_capped += s.retrains_capped;
    sum.policy_cooldown_skips += s.policy_cooldown_skips;
  }
  const auto totals = stats.totals();
  EXPECT_EQ(totals.label_requests, sum.label_requests);
  EXPECT_EQ(totals.label_answered, sum.label_answered);
  EXPECT_EQ(totals.label_shed, sum.label_shed);
  EXPECT_EQ(totals.lookup_requests, sum.lookup_requests);
  EXPECT_EQ(totals.lookup_answered, sum.lookup_answered);
  EXPECT_EQ(totals.lookup_shed, sum.lookup_shed);
  EXPECT_EQ(totals.recommend_requests, sum.recommend_requests);
  EXPECT_EQ(totals.recommend_answered, sum.recommend_answered);
  EXPECT_EQ(totals.recommend_shed, sum.recommend_shed);
  EXPECT_EQ(totals.samples_labeled, sum.samples_labeled);
  EXPECT_EQ(totals.labels_reused, sum.labels_reused);
  EXPECT_EQ(totals.labels_computed, sum.labels_computed);
  EXPECT_EQ(totals.busy_seconds, sum.busy_seconds);
  EXPECT_EQ(totals.max_request_seconds, sum.max_request_seconds);
  EXPECT_EQ(totals.retrain_checks, sum.retrain_checks);
  EXPECT_EQ(totals.retrains, sum.retrains);
  EXPECT_EQ(totals.retrains_coalesced, sum.retrains_coalesced);
  EXPECT_EQ(totals.retrains_capped, sum.retrains_capped);
  EXPECT_EQ(totals.policy_cooldown_skips, sum.policy_cooldown_skips);

  // And the scenario actually exercised both sides of the ledger.
  EXPECT_EQ(totals.label_requests, 5u);
  EXPECT_GE(totals.label_shed, 1u);
  EXPECT_EQ(totals.lookup_answered, 1u);
  EXPECT_EQ(totals.retrain_checks, 1u);
  EXPECT_GT(totals.busy_seconds, 0.0);
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace fairdms
