// Wire serving front-end tests: codec round-trips over randomized DTOs
// (bit-exact floats), frame-header validation, the malformed-frame
// hardening suite driven over real sockets against a live server
// (truncated header, bad magic, oversized declared length, unknown op,
// garbage payload, wrong version, invalid tensor shape — the server
// answers kMalformedRequest or closes cleanly, never crashes), wire-level
// admission shedding (kShedOverload with an empty payload, answered in
// O(1) while the workers are wedged), out-of-order responses matched by
// correlation id, and the graceful drain protocol (in-flight requests
// complete, new user-plane frames get kShuttingDown, stats stays up, stop()
// returns only once the in-flight reply is flushed, and the service
// outlives the Server).
// Carries the `service` label: the TSan CI job and the Release
// `--repeat until-fail:3` stress step run exactly this kind of suite.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "fairms/zoo.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/data_service.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using tensor::Tensor;

Tensor random_tensor(util::Rng& rng, std::vector<std::size_t> shape) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-10.0, 10.0));
  }
  return t;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.rank() != b.rank() || a.numel() != b.numel()) return false;
  for (std::size_t i = 0; i < a.rank(); ++i) {
    if (a.dim(i) != b.dim(i)) return false;
  }
  return a.numel() == 0 ||
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// --- codec round trips ------------------------------------------------------

TEST(WireCodec, PrimitiveRoundTripIsBitExact) {
  util::Rng rng(7);
  net::Bytes bytes;
  util::ByteWriter w(bytes);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f32(-0.0f);
  w.f64(1e-308);  // subnormal-adjacent: survives only as a bit pattern
  net::write_string(w, "fairdms");
  const Tensor t = random_tensor(rng, {2, 1, 3, 3});
  net::write_tensor(w, t);
  net::write_pdf(w, {0.25, 0.5, 0.25});

  util::ByteReader r(bytes);
  std::uint8_t v8;
  std::uint16_t v16;
  std::uint32_t v32;
  std::uint64_t v64;
  float vf;
  double vd;
  std::string s;
  Tensor t2;
  std::vector<double> pdf;
  ASSERT_TRUE(r.u8(&v8));
  ASSERT_TRUE(r.u16(&v16));
  ASSERT_TRUE(r.u32(&v32));
  ASSERT_TRUE(r.u64(&v64));
  ASSERT_TRUE(r.f32(&vf));
  ASSERT_TRUE(r.f64(&vd));
  ASSERT_TRUE(net::read_string(r, &s));
  ASSERT_TRUE(net::read_tensor(r, &t2));
  ASSERT_TRUE(net::read_pdf(r, &pdf));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(v8, 0xab);
  EXPECT_EQ(v16, 0xbeef);
  EXPECT_EQ(v32, 0xdeadbeefu);
  EXPECT_EQ(v64, 0x0123456789abcdefull);
  EXPECT_TRUE(std::signbit(vf) && vf == 0.0f);
  EXPECT_EQ(vd, 1e-308);
  EXPECT_EQ(s, "fairdms");
  EXPECT_TRUE(bit_equal(t, t2));
  EXPECT_EQ(pdf, (std::vector<double>{0.25, 0.5, 0.25}));
}

TEST(WireCodec, RandomizedDtoRoundTrips) {
  util::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(6);

    service::LabelRequest label_req{random_tensor(rng, {n, 1, 15, 15}),
                                    rng.uniform(0.0, 2.0), nullptr};
    service::LabelRequest label_req2;
    ASSERT_TRUE(net::decode_label_request(net::encode_label_request(label_req),
                                          &label_req2));
    EXPECT_TRUE(bit_equal(label_req.xs, label_req2.xs));
    EXPECT_EQ(label_req.threshold, label_req2.threshold);

    service::LabelResponse label_resp;
    label_resp.batch.xs = random_tensor(rng, {n, 1, 15, 15});
    label_resp.batch.ys = random_tensor(rng, {n, 2});
    label_resp.reuse = {rng.uniform_index(100), rng.uniform_index(100)};
    label_resp.snapshot_version = rng.uniform_index(1000);
    label_resp.seconds = rng.uniform(0.0, 1.0);
    service::LabelResponse label_resp2;
    ASSERT_TRUE(net::decode_label_response(
        net::encode_label_response(label_resp), &label_resp2));
    EXPECT_TRUE(bit_equal(label_resp.batch.xs, label_resp2.batch.xs));
    EXPECT_TRUE(bit_equal(label_resp.batch.ys, label_resp2.batch.ys));
    EXPECT_EQ(label_resp.reuse.reused, label_resp2.reuse.reused);
    EXPECT_EQ(label_resp.reuse.computed, label_resp2.reuse.computed);
    EXPECT_EQ(label_resp.snapshot_version, label_resp2.snapshot_version);
    EXPECT_EQ(label_resp.seconds, label_resp2.seconds);

    service::LookupRequest lookup_req{random_tensor(rng, {n, 1, 15, 15}),
                                      rng.uniform_index(1u << 30)};
    service::LookupRequest lookup_req2;
    ASSERT_TRUE(net::decode_lookup_request(
        net::encode_lookup_request(lookup_req), &lookup_req2));
    EXPECT_TRUE(bit_equal(lookup_req.xs, lookup_req2.xs));
    EXPECT_EQ(lookup_req.seed, lookup_req2.seed);

    service::RecommendRequest rec_req{"braggnn_" + std::to_string(trial),
                                      random_tensor(rng, {n, 1, 15, 15})};
    service::RecommendRequest rec_req2;
    ASSERT_TRUE(net::decode_recommend_request(
        net::encode_recommend_request(rec_req), &rec_req2));
    EXPECT_EQ(rec_req.architecture, rec_req2.architecture);
    EXPECT_TRUE(bit_equal(rec_req.xs, rec_req2.xs));

    service::RecommendResponse rec_resp;
    if (trial % 2 == 0) {
      rec_resp.pick = fairms::Ranked{rng.uniform_index(1u << 20),
                                     rng.uniform(0.0, 1.0)};
    }
    rec_resp.pdf = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    rec_resp.snapshot_version = rng.uniform_index(1000);
    rec_resp.seconds = rng.uniform(0.0, 1.0);
    service::RecommendResponse rec_resp2;
    ASSERT_TRUE(net::decode_recommend_response(
        net::encode_recommend_response(rec_resp), &rec_resp2));
    EXPECT_EQ(rec_resp.pick.has_value(), rec_resp2.pick.has_value());
    if (rec_resp.pick) {
      EXPECT_EQ(rec_resp.pick->model_id, rec_resp2.pick->model_id);
      EXPECT_EQ(rec_resp.pick->distance, rec_resp2.pick->distance);
    }
    EXPECT_EQ(rec_resp.pdf, rec_resp2.pdf);
  }
}

/// A stats body with every field distinct (so a swapped field pair in
/// either codec half cannot cancel out) and two stream blocks.
service::ServiceStats distinct_stats() {
  service::ServiceStats s;
  std::uint64_t next = 1000;
  for (std::uint64_t* field :
       {&s.queue_depth, &s.max_queue_depth, &s.max_pending,
        &s.unknown_stream_requests, &s.model_cache_hits,
        &s.model_cache_misses, &s.model_cache_evictions,
        &s.model_cache_bytes}) {
    *field = next++;
  }
  for (const char* name : {"bragg", "cookiebox"}) {
    service::StreamStats ss;
    ss.stream = name;
    for (std::uint64_t* field :
         {&ss.label_requests, &ss.lookup_requests, &ss.recommend_requests,
          &ss.label_answered, &ss.lookup_answered, &ss.recommend_answered,
          &ss.label_shed, &ss.lookup_shed, &ss.recommend_shed,
          &ss.queue_depth, &ss.max_queue_depth, &ss.max_pending,
          &ss.samples_labeled, &ss.labels_reused, &ss.labels_computed,
          &ss.retrain_checks, &ss.retrains, &ss.retrains_coalesced,
          &ss.retrains_capped, &ss.policy_cooldown_skips,
          &ss.snapshot_version, &ss.store_shards}) {
      *field = next++;
    }
    ss.busy_seconds = static_cast<double>(next++) + 0.5;
    ss.max_request_seconds = static_cast<double>(next++) + 0.25;
    s.streams.push_back(std::move(ss));
  }
  return s;
}

TEST(WireCodec, StatsResponseRoundTripsEveryField) {
  const service::ServiceStats s = distinct_stats();
  service::ServiceStats s2;
  ASSERT_TRUE(net::decode_stats_response(net::encode_stats_response(s), &s2));
  EXPECT_EQ(s.queue_depth, s2.queue_depth);
  EXPECT_EQ(s.max_queue_depth, s2.max_queue_depth);
  EXPECT_EQ(s.max_pending, s2.max_pending);
  EXPECT_EQ(s.unknown_stream_requests, s2.unknown_stream_requests);
  EXPECT_EQ(s.model_cache_hits, s2.model_cache_hits);
  EXPECT_EQ(s.model_cache_misses, s2.model_cache_misses);
  EXPECT_EQ(s.model_cache_evictions, s2.model_cache_evictions);
  EXPECT_EQ(s.model_cache_bytes, s2.model_cache_bytes);
  ASSERT_EQ(s2.streams.size(), s.streams.size());
  for (std::size_t i = 0; i < s.streams.size(); ++i) {
    const service::StreamStats& a = s.streams[i];
    const service::StreamStats& b = s2.streams[i];
    SCOPED_TRACE(a.stream);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(a.label_requests, b.label_requests);
    EXPECT_EQ(a.lookup_requests, b.lookup_requests);
    EXPECT_EQ(a.recommend_requests, b.recommend_requests);
    EXPECT_EQ(a.label_answered, b.label_answered);
    EXPECT_EQ(a.lookup_answered, b.lookup_answered);
    EXPECT_EQ(a.recommend_answered, b.recommend_answered);
    EXPECT_EQ(a.label_shed, b.label_shed);
    EXPECT_EQ(a.lookup_shed, b.lookup_shed);
    EXPECT_EQ(a.recommend_shed, b.recommend_shed);
    EXPECT_EQ(a.queue_depth, b.queue_depth);
    EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
    EXPECT_EQ(a.max_pending, b.max_pending);
    EXPECT_EQ(a.samples_labeled, b.samples_labeled);
    EXPECT_EQ(a.labels_reused, b.labels_reused);
    EXPECT_EQ(a.labels_computed, b.labels_computed);
    EXPECT_EQ(a.busy_seconds, b.busy_seconds);
    EXPECT_EQ(a.max_request_seconds, b.max_request_seconds);
    EXPECT_EQ(a.retrain_checks, b.retrain_checks);
    EXPECT_EQ(a.retrains, b.retrains);
    EXPECT_EQ(a.retrains_coalesced, b.retrains_coalesced);
    EXPECT_EQ(a.retrains_capped, b.retrains_capped);
    EXPECT_EQ(a.policy_cooldown_skips, b.policy_cooldown_skips);
    EXPECT_EQ(a.snapshot_version, b.snapshot_version);
    EXPECT_EQ(a.store_shards, b.store_shards);
  }
}

TEST(WireCodec, FrameHeaderRoundTripAndRejection) {
  const net::Bytes payload = {1, 2, 3};
  const net::Bytes frame = net::encode_frame(
      net::Op::kLookup, service::ServeStatus::kShedOverload, 0xfeedface, payload);
  ASSERT_EQ(frame.size(), net::kHeaderSize + payload.size());
  const auto header = net::decode_header(frame);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->version, net::kProtocolVersion);
  EXPECT_EQ(header->op, static_cast<std::uint8_t>(net::Op::kLookup));
  EXPECT_EQ(header->status, service::ServeStatus::kShedOverload);
  EXPECT_EQ(header->correlation_id, 0xfeedfaceu);
  EXPECT_EQ(header->payload_len, payload.size());

  // Too short.
  EXPECT_FALSE(net::decode_header(
                   std::span<const std::uint8_t>(frame.data(), 7))
                   .has_value());
  // Bad magic.
  net::Bytes bad_magic = frame;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(net::decode_header(bad_magic).has_value());
  // Status byte outside the ServeStatus range.
  net::Bytes bad_status = frame;
  bad_status[7] = 200;
  EXPECT_FALSE(net::decode_header(bad_status).has_value());
}

TEST(WireCodec, DecodersRejectTruncationAndTrailingGarbage) {
  util::Rng rng(5);
  const service::LabelRequest req{random_tensor(rng, {2, 1, 15, 15}), 0.5,
                                  nullptr};
  const net::Bytes good = net::encode_label_request(req);
  service::LabelRequest out;
  // Every proper prefix must be rejected (bounds-checked, never crash).
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(net::decode_label_request(
        std::span<const std::uint8_t>(good.data(), len), &out))
        << "prefix length " << len;
  }
  // Full consumption required: one trailing byte is malformed.
  net::Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(net::decode_label_request(trailing, &out));
}

TEST(WireCodec, TensorDecodeRejectsAbsurdShapes) {
  service::RetrainRequest out;
  {
    net::Bytes bytes;  // rank over the cap
    util::ByteWriter w(bytes);
    w.u32(9);
    EXPECT_FALSE(net::decode_retrain_request(bytes, &out));
  }
  {
    net::Bytes bytes;  // dims whose product overflows / exceeds the payload
    util::ByteWriter w(bytes);
    w.u32(2);
    w.u64(0xffffffffffffull);
    w.u64(0xffffffffffffull);
    EXPECT_FALSE(net::decode_retrain_request(bytes, &out));
  }
  {
    net::Bytes bytes;  // declared elements not backed by payload bytes
    util::ByteWriter w(bytes);
    w.u32(1);
    w.u64(1000);
    w.f32(1.0f);
    EXPECT_FALSE(net::decode_retrain_request(bytes, &out));
  }
}

TEST(WireCodec, RequestStreamFieldRoundTrips) {
  util::Rng rng(13);
  const service::LabelRequest req{random_tensor(rng, {3, 1, 15, 15}), 0.7,
                                  nullptr, "cookiebox"};
  service::LabelRequest out;
  ASSERT_TRUE(
      net::decode_label_request(net::encode_label_request(req), &out));
  EXPECT_EQ(out.stream, "cookiebox");

  // The stream name is the payload's last field and is required: a body
  // that stops before it is malformed, never silently routed to the
  // default stream.
  net::Bytes stream_less;
  util::ByteWriter w(stream_less);
  net::write_tensor(w, req.xs);
  w.f64(req.threshold);
  EXPECT_FALSE(net::decode_label_request(stream_less, &out));

  service::LookupRequest lookup{random_tensor(rng, {2, 1, 15, 15}), 9,
                                "tomo"};
  service::LookupRequest lookup_out;
  ASSERT_TRUE(net::decode_lookup_request(net::encode_lookup_request(lookup),
                                         &lookup_out));
  EXPECT_EQ(lookup_out.stream, "tomo");

  service::RecommendRequest rec{"braggnn", random_tensor(rng, {2, 1, 15, 15}),
                                "bragg"};
  service::RecommendRequest rec_out;
  ASSERT_TRUE(net::decode_recommend_request(
      net::encode_recommend_request(rec), &rec_out));
  EXPECT_EQ(rec_out.architecture, "braggnn");
  EXPECT_EQ(rec_out.stream, "bragg");

  service::RetrainRequest retrain{random_tensor(rng, {2, 1, 15, 15}),
                                  "bragg"};
  service::RetrainRequest retrain_out;
  ASSERT_TRUE(net::decode_retrain_request(
      net::encode_retrain_request(retrain), &retrain_out));
  EXPECT_EQ(retrain_out.stream, "bragg");
}

TEST(WireCodec, StatsDecodeRejectsTruncationTrailingBytesAndBogusCounts) {
  const net::Bytes good = net::encode_stats_response(distinct_stats());
  service::ServiceStats out;
  ASSERT_TRUE(net::decode_stats_response(good, &out));
  // Every proper prefix is malformed (bounds-checked, never a crash).
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(net::decode_stats_response(
        std::span<const std::uint8_t>(good.data(), len), &out))
        << "prefix length " << len;
  }
  net::Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(net::decode_stats_response(trailing, &out));

  // The stream count follows the 8 u64 gauges. One block too many, and a
  // count no payload could hold, are both malformed — the latter before
  // anything is allocated for it.
  constexpr std::size_t kCountOffset = 8 * 8;
  for (const std::uint32_t count : {3u, 0xffffffffu}) {
    net::Bytes bogus = good;
    for (std::size_t i = 0; i < 4; ++i) {
      bogus[kCountOffset + i] = static_cast<std::uint8_t>(count >> (8 * i));
    }
    EXPECT_FALSE(net::decode_stats_response(bogus, &out)) << count;
  }
}

TEST(WireCodec, StatusAndOpNamesAreExhaustive) {
  EXPECT_STREQ(service::to_string(service::ServeStatus::kOk), "ok");
  EXPECT_STREQ(service::to_string(service::ServeStatus::kShedOverload),
               "shed_overload");
  EXPECT_STREQ(service::to_string(service::ServeStatus::kMalformedRequest),
               "malformed_request");
  EXPECT_STREQ(service::to_string(service::ServeStatus::kShuttingDown),
               "shutting_down");
  EXPECT_STREQ(service::to_string(service::ServeStatus::kUnknownStream),
               "unknown_stream");
  EXPECT_STREQ(net::to_string(net::Op::kHello), "hello");
  EXPECT_STREQ(net::to_string(net::Op::kStats), "stats");
  EXPECT_STREQ(net::to_string(static_cast<net::Op>(250)), "unknown");
}

// --- live-server fixture ----------------------------------------------------

fairds::FairDSConfig small_config() {
  fairds::FairDSConfig config;
  config.embedding_algorithm = "byol";
  config.embedding_dim = 8;
  config.image_size = 15;
  config.n_clusters = 4;
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

/// Wedges the service's fallback-labeler path until released, so tests can
/// hold a worker busy deterministically (the WorkerGate idiom, applied to
/// the server-side labeler policy).
struct LabelerGate {
  std::promise<void> release;
  std::shared_future<void> opened = release.get_future().share();
  std::atomic<int> entered{0};

  std::function<Tensor(const Tensor&)> labeler() {
    return [this](const Tensor& xs) {
      ++entered;
      opened.wait();
      return Tensor({xs.dim(0), 2});
    };
  }
  void wait_entered(int n = 1) {
    while (entered.load() < n) std::this_thread::yield();
  }
  void open() { release.set_value(); }
};

class NetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = regime_data(0.0, 96, 101);
    ds_ = std::make_unique<fairds::FairDS>(small_config(), db_);
    ds_->train_system(history_.xs);
    ds_->ingest(history_.xs, history_.ys, "history_0");
    zoo_ = std::make_unique<fairms::ModelZoo>(db_);
    const auto snap = ds_->snapshot();
    for (int m = 0; m < 2; ++m) {
      zoo_->publish("braggnn", "seed_" + std::to_string(m),
                    snap->distribution(regime_data(0.0, 16, 200 + m).xs),
                    std::vector<std::uint8_t>(64, 0x42));
    }
    manager_ = std::make_unique<fairms::ModelManager>(*zoo_, 1.0);
  }

  /// A served DataService + Server pair. Small max_payload so the
  /// oversized-frame test does not need to ship megabytes.
  struct Served {
    std::unique_ptr<service::DataService> service;
    std::unique_ptr<net::Server> server;
  };
  Served serve(service::DataServiceConfig config,
               std::function<Tensor(const Tensor&)> labeler = zero_labeler) {
    Served s;
    s.service = std::make_unique<service::DataService>(config);
    EXPECT_TRUE(s.service->add_stream(service::kDefaultStreamName, *ds_, {},
                                      manager_.get()));
    net::ServerConfig server_config;
    server_config.max_payload = 1u << 20;
    server_config.fallback_labeler = std::move(labeler);
    s.server = std::make_unique<net::Server>(*s.service, server_config);
    EXPECT_TRUE(s.server->ok());
    EXPECT_NE(s.server->port(), 0);
    return s;
  }

  store::DocStore db_;
  nn::Batchset history_;
  std::unique_ptr<fairds::FairDS> ds_;
  std::unique_ptr<fairms::ModelZoo> zoo_;
  std::unique_ptr<fairms::ModelManager> manager_;
};

TEST_F(NetFixture, EndToEndRoundTripsMatchInProcessResults) {
  auto served = serve({.workers = 2});
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));
  EXPECT_EQ(client.server_limits().version, net::kProtocolVersion);

  const nn::Batchset query = regime_data(0.0, 8, 102);

  const auto label = client.label({query.xs, 1e9, nullptr});
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->status, service::ServeStatus::kOk);
  const auto snap = ds_->snapshot();
  fairds::ReuseStats direct_stats;
  (void)snap->lookup_or_label(query.xs, 1e9, zero_labeler, &direct_stats);
  EXPECT_EQ(label->reuse.reused, direct_stats.reused);
  EXPECT_EQ(label->reuse.computed, direct_stats.computed);
  EXPECT_EQ(label->snapshot_version, snap->version());
  EXPECT_EQ(label->batch.ys.dim(0), query.xs.dim(0));

  const auto lookup = client.lookup({query.xs, 7});
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(lookup->status, service::ServeStatus::kOk);
  EXPECT_EQ(lookup->batch.xs.dim(0), query.xs.dim(0));

  const auto recommend = client.recommend({"braggnn", query.xs});
  ASSERT_TRUE(recommend.has_value());
  EXPECT_EQ(recommend->status, service::ServeStatus::kOk);
  EXPECT_FALSE(recommend->pdf.empty());

  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(stats->streams.size(), 1u);
  EXPECT_EQ(stats->streams[0].stream, service::kDefaultStreamName);
  const auto totals = stats->totals();
  EXPECT_EQ(totals.label_requests, 1u);
  EXPECT_EQ(totals.lookup_requests, 1u);
  EXPECT_EQ(totals.recommend_requests, 1u);
  EXPECT_EQ(totals.label_answered, 1u);

  // request_retrain over the wire: accepted, then observable in stats.
  const auto accepted = client.request_retrain(query.xs);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(*accepted);
  served.service->wait_idle();
  const auto stats2 = client.stats();
  ASSERT_TRUE(stats2.has_value());
  EXPECT_EQ(stats2->totals().retrain_checks, 1u);

  const auto counters = served.server->counters();
  EXPECT_GE(counters.accepted_connections, 1u);
  EXPECT_EQ(counters.malformed_frames, 0u);
  EXPECT_EQ(counters.frames_in, counters.frames_out);
}

TEST_F(NetFixture, MalformedFramesAreAnsweredOrClosedNeverFatal) {
  auto served = serve({.workers = 2});
  const std::uint16_t port = served.server->port();

  const auto expect_server_alive = [&] {
    net::Client probe;
    ASSERT_TRUE(probe.connect("127.0.0.1", port));
    EXPECT_TRUE(probe.stats().has_value());
  };

  {  // Truncated header, then EOF: connection dropped, server unharmed.
    const int fd = net::connect_to("127.0.0.1", port);
    ASSERT_GE(fd, 0);
    const std::uint8_t partial[7] = {0x46, 0x44, 0x4d, 0x53, 1, 0, 0};
    EXPECT_TRUE(net::write_all(fd, partial, sizeof(partial)));
    ::close(fd);
    expect_server_alive();
  }

  {  // Bad magic: the stream is unsynced — server closes the connection.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::Bytes junk(net::kHeaderSize, 0x5a);
    ASSERT_TRUE(client.send_raw(junk));
    EXPECT_FALSE(client.recv_reply().has_value());  // clean EOF, no reply
    expect_server_alive();
  }

  {  // Declared payload over the server's cap: error reply, then close —
     // the server never buffers a byte of it.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::Bytes header;
    util::ByteWriter w(header);
    w.u32(net::kMagic);
    w.u16(net::kProtocolVersion);
    w.u8(static_cast<std::uint8_t>(net::Op::kLabel));
    w.u8(0);
    w.u64(77);
    w.u32((1u << 20) + 1);
    ASSERT_TRUE(client.send_raw(header));
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kMalformedRequest);
    EXPECT_EQ(reply->header.correlation_id, 77u);
    EXPECT_EQ(reply->payload.size(), 0u);
    EXPECT_FALSE(client.recv_reply().has_value());  // then EOF
    expect_server_alive();
  }

  {  // Wrong protocol version: error reply, then close.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    net::Bytes header;
    util::ByteWriter w(header);
    w.u32(net::kMagic);
    w.u16(net::kProtocolVersion + 1);
    w.u8(static_cast<std::uint8_t>(net::Op::kStats));
    w.u8(0);
    w.u64(78);
    w.u32(0);
    ASSERT_TRUE(client.send_raw(header));
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kMalformedRequest);
    EXPECT_FALSE(client.recv_reply().has_value());
    expect_server_alive();
  }

  {  // Unknown op with intact framing: answered, connection stays usable.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    ASSERT_TRUE(client.send_raw(net::encode_frame(
        static_cast<net::Op>(99), service::ServeStatus::kOk, 79, {})));
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kMalformedRequest);
    EXPECT_EQ(reply->header.op, 99);
    EXPECT_EQ(reply->header.correlation_id, 79u);
    EXPECT_TRUE(client.stats().has_value());  // same connection still works
  }

  {  // Garbage payload on a known op: answered, connection stays usable.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    const net::Bytes garbage = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x11};
    ASSERT_TRUE(client.send_raw(net::encode_frame(
        net::Op::kLabel, service::ServeStatus::kOk, 80, garbage)));
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kMalformedRequest);
    EXPECT_TRUE(client.stats().has_value());
  }

  {  // Well-encoded tensor with a shape the service must never see
     // (rank 2, not [N,1,S,S]): rejected before dispatch.
    net::Client client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    util::Rng rng(3);
    const auto reply =
        client.request_retrain(random_tensor(rng, {4, 4}));
    ASSERT_TRUE(reply.has_value());
    EXPECT_FALSE(*reply);
    EXPECT_TRUE(client.stats().has_value());
  }

  const auto counters = served.server->counters();
  EXPECT_GE(counters.malformed_frames, 6u);
  // Nothing malformed ever reached the service.
  const auto stats = served.service->stats().totals();
  EXPECT_EQ(stats.label_requests, 0u);
  EXPECT_EQ(stats.recommend_requests, 0u);
}

TEST_F(NetFixture, AdmissionShedMapsToWireStatusInO1) {
  LabelerGate gate;
  auto served = serve({.workers = 1, .max_pending = 1}, gate.labeler());
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));

  const nn::Batchset query = regime_data(0.0, 4, 103);
  // threshold < 0: nothing can reuse, every request runs the gated labeler.
  const std::uint64_t wedge_cid =
      client.send_label({query.xs, -1.0, nullptr});
  ASSERT_NE(wedge_cid, 0u);
  gate.wait_entered();  // the only worker is now wedged

  // One more fits the pending queue; the rest must shed at the wire level,
  // answered by the event loop itself with an empty response.
  const std::uint64_t queued_cid =
      client.send_label({query.xs, -1.0, nullptr});
  std::vector<std::uint64_t> shed_cids;
  for (int i = 0; i < 5; ++i) {
    shed_cids.push_back(client.send_label({query.xs, -1.0, nullptr}));
  }
  for (int i = 0; i < 5; ++i) {
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kShedOverload);
    // Shed responses ship a default (empty-batch) body — cheap to encode.
    service::LabelResponse body;
    ASSERT_TRUE(net::decode_label_response(reply->payload, &body));
    EXPECT_EQ(body.batch.xs.numel(), 0u);
    EXPECT_TRUE(std::find(shed_cids.begin(), shed_cids.end(),
                          reply->header.correlation_id) != shed_cids.end());
  }

  gate.open();
  // The wedged and the queued request now complete with kOk.
  std::vector<std::uint64_t> ok_cids;
  for (int i = 0; i < 2; ++i) {
    const auto reply = client.recv_reply();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->header.status, service::ServeStatus::kOk);
    ok_cids.push_back(reply->header.correlation_id);
  }
  EXPECT_TRUE(std::find(ok_cids.begin(), ok_cids.end(), wedge_cid) !=
              ok_cids.end());
  EXPECT_TRUE(std::find(ok_cids.begin(), ok_cids.end(), queued_cid) !=
              ok_cids.end());

  served.service->wait_idle();
  const auto stats = served.service->stats().totals();
  EXPECT_EQ(stats.label_requests, 7u);
  EXPECT_EQ(stats.label_answered, 2u);
  EXPECT_EQ(stats.label_shed, 5u);
  EXPECT_EQ(served.server->counters().shed_responses, 5u);
}

TEST_F(NetFixture, ResponsesReturnOutOfOrderMatchedByCorrelationId) {
  LabelerGate gate;
  auto served = serve({.workers = 1}, gate.labeler());
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));

  const nn::Batchset query = regime_data(0.0, 4, 104);
  const std::uint64_t slow_cid =
      client.send_label({query.xs, -1.0, nullptr});
  ASSERT_NE(slow_cid, 0u);
  gate.wait_entered();

  // Pipelined behind the wedged label: stats is served inline by the event
  // loop and must overtake it.
  const std::uint64_t fast_cid = client.send_stats();
  const auto first = client.recv_reply();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.correlation_id, fast_cid);
  EXPECT_EQ(first->header.op, static_cast<std::uint8_t>(net::Op::kStats));

  gate.open();
  const auto second = client.recv_reply();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.correlation_id, slow_cid);
  EXPECT_EQ(second->header.status, service::ServeStatus::kOk);
}

TEST_F(NetFixture, GracefulDrainCompletesInFlightAndRefusesNewWork) {
  LabelerGate gate;
  auto served = serve({.workers = 1}, gate.labeler());
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));

  const nn::Batchset query = regime_data(0.0, 4, 105);
  const std::uint64_t inflight_cid =
      client.send_label({query.xs, -1.0, nullptr});
  ASSERT_NE(inflight_cid, 0u);
  gate.wait_entered();

  served.server->begin_drain();

  // New user-plane work is refused with an explicit status...
  const auto refused = client.label({query.xs, 1e9, nullptr});
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, service::ServeStatus::kShuttingDown);
  // ...while observability stays up...
  EXPECT_TRUE(client.stats().has_value());
  EXPECT_GE(served.server->counters().shutdown_responses, 1u);

  // ...and the in-flight request still completes and is flushed.
  gate.open();
  const auto reply = client.recv_reply();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.correlation_id, inflight_cid);
  EXPECT_EQ(reply->header.status, service::ServeStatus::kOk);

  served.server->stop();  // idempotent with the destructor
  served.server->stop();
}

// stop() waits for the in-flight request's reply to reach the socket, and
// the service's workers outlive the Server: its completion callback's last
// touch of the Server is the one stop() waits for.
TEST_F(NetFixture, StopFlushesInFlightReplyAndServiceOutlivesServer) {
  LabelerGate gate;
  auto served = serve({.workers = 1}, gate.labeler());
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));

  const nn::Batchset query = regime_data(0.0, 4, 106);
  const std::uint64_t inflight_cid =
      client.send_label({query.xs, -1.0, nullptr});
  ASSERT_NE(inflight_cid, 0u);
  gate.wait_entered();  // the only worker is wedged in the request

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    served.server->stop();
    stopped.store(true);
  });
  // Two event-loop polls: long enough for a stop() that ignored the
  // in-flight request to have returned.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_FALSE(stopped.load());

  gate.open();
  stopper.join();
  // stop() has returned and the loop has closed its sockets, so the reply
  // must already have been flushed.
  const auto reply = client.recv_reply();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.correlation_id, inflight_cid);
  EXPECT_EQ(reply->header.status, service::ServeStatus::kOk);

  // Destroy the Server while the worker may still be finishing the wire
  // request's task and the service serves one more in-process request.
  auto in_process = served.service->submit(
      service::LabelRequest{query.xs, 1e9, zero_labeler});
  served.server.reset();
  EXPECT_EQ(in_process.get().status, service::ServeStatus::kOk);
  served.service->wait_idle();
  EXPECT_EQ(served.service->stats().totals().label_answered, 2u);
}

TEST_F(NetFixture, ConcurrentClientsStressTheFrontEnd) {
  auto served = serve({.workers = 2});
  const std::uint16_t port = served.server->port();
  constexpr int kClients = 4;
  constexpr int kRequests = 8;

  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::Client client;
      if (!client.connect("127.0.0.1", port)) return;
      const nn::Batchset query = regime_data(0.0, 4, 300 + c);
      for (int i = 0; i < kRequests; ++i) {
        const auto label = client.label({query.xs, 1e9, nullptr});
        if (label && label->status == service::ServeStatus::kOk) ++ok;
        const auto lookup = client.lookup({query.xs, 11});
        if (lookup && lookup->status == service::ServeStatus::kOk) ++ok;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests * 2);

  served.service->wait_idle();
  const auto stats = served.service->stats();
  const auto totals = stats.totals();
  EXPECT_EQ(totals.label_requests, totals.label_answered + totals.label_shed);
  EXPECT_EQ(totals.lookup_requests,
            totals.lookup_answered + totals.lookup_shed);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// --- one protocol version + stream routing ---------------------------------

/// Sends one frame stamped `version` on a fresh socket, as a peer built for
/// that version would, and returns the reply header. Expects the server to
/// close the connection right after it (EOF, not a reset or a stall).
std::optional<net::FrameHeader> exchange_at_version(
    std::uint16_t port, std::uint16_t version, net::Op op,
    std::uint64_t correlation_id, const net::Bytes& payload) {
  const net::UniqueFd fd(net::connect_to("127.0.0.1", port));
  if (!fd.valid()) return std::nullopt;
  net::Bytes frame =
      net::encode_frame(op, service::ServeStatus::kOk, correlation_id,
                        payload);
  // Header offset 4: the little-endian u16 version (see net/wire.hpp).
  frame[4] = static_cast<std::uint8_t>(version);
  frame[5] = static_cast<std::uint8_t>(version >> 8);
  if (!net::write_all(fd.get(), frame.data(), frame.size())) {
    return std::nullopt;
  }
  std::uint8_t header[net::kHeaderSize];
  if (!net::read_exact(fd.get(), header, sizeof(header))) return std::nullopt;
  const auto decoded = net::decode_header(header);
  std::uint8_t extra = 0;
  EXPECT_EQ(::read(fd.get(), &extra, 1), 0) << "expected a clean close";
  return decoded;
}

TEST_F(NetFixture, PreviousVersionPeerIsRefusedAndCurrentClientsServed) {
  auto served = serve({.workers = 2});
  const std::uint16_t port = served.server->port();
  constexpr std::uint16_t kOld = net::kProtocolVersion - 1;

  // The old peer's hello is refused, not downgraded.
  const auto hello = exchange_at_version(port, kOld, net::Op::kHello, 41, {});
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->status, service::ServeStatus::kMalformedRequest);
  EXPECT_EQ(hello->correlation_id, 41u);
  EXPECT_EQ(hello->payload_len, 0u);

  // So is a well-formed request it sends without a handshake.
  const nn::Batchset query = regime_data(0.0, 4, 401);
  const auto label = exchange_at_version(
      port, kOld, net::Op::kLabel, 42,
      net::encode_label_request({query.xs, 1e9, nullptr}));
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->status, service::ServeStatus::kMalformedRequest);
  EXPECT_EQ(label->correlation_id, 42u);
  EXPECT_EQ(label->op, static_cast<std::uint8_t>(net::Op::kLabel));

  // Neither reached the service, and current-version clients are served.
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", port));
  EXPECT_EQ(client.server_limits().version, net::kProtocolVersion);
  const auto ok = client.label({query.xs, 1e9, nullptr});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, service::ServeStatus::kOk);
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->totals().label_requests, 1u);
  EXPECT_EQ(served.server->counters().malformed_frames, 2u);
}

TEST_F(NetFixture, UnknownStreamAnsweredStructurallyConnectionUsable) {
  auto served = serve({.workers = 2});
  net::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", served.server->port()));
  const nn::Batchset query = regime_data(0.0, 4, 402);

  // A hostile/stale stream id on every user-plane op: answered with the
  // structured status, never an abort or a dropped connection.
  const auto label = client.label({query.xs, 1e9, nullptr, "no-such"});
  ASSERT_TRUE(label.has_value());
  EXPECT_EQ(label->status, service::ServeStatus::kUnknownStream);

  const auto lookup = client.lookup({query.xs, 3, "no-such"});
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(lookup->status, service::ServeStatus::kUnknownStream);

  const auto recommend = client.recommend({"braggnn", query.xs, "no-such"});
  ASSERT_TRUE(recommend.has_value());
  EXPECT_EQ(recommend->status, service::ServeStatus::kUnknownStream);

  service::ServeStatus retrain_status = service::ServeStatus::kOk;
  const auto accepted = client.request_retrain(
      service::RetrainRequest{query.xs, "no-such"}, &retrain_status);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_FALSE(*accepted);
  EXPECT_EQ(retrain_status, service::ServeStatus::kUnknownStream);

  // The same connection keeps serving: stats, then a valid request. The
  // wire front-end resolves the stream before the service ever sees the
  // request, so the unknown-stream ledger lives in the server counters
  // (below), not in ServiceStats (that one counts in-process submits).
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->unknown_stream_requests, 0u);
  const auto ok = client.label({query.xs, 1e9, nullptr});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, service::ServeStatus::kOk);

  EXPECT_GE(served.server->counters().unknown_stream_responses, 4u);
  EXPECT_EQ(served.server->counters().malformed_frames, 0u);
}

}  // namespace
}  // namespace fairdms
