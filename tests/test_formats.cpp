// Byte pins for every persisted and wire format.
//
// Round-trip tests pass after any symmetric format change, including one
// that leaves every stored segment, snapshot and model blob unreadable.
// These tests encode one fixed input per format and compare the bytes
// with a hex literal captured from the format as first shipped, then
// decode the literal and compare the result with the input. A failure
// here means the format changed: either revert the change or bump the
// format's version and teach its reader the old layout.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/serialize.hpp"
#include "store/codec.hpp"
#include "store/docstore.hpp"
#include "store/log_engine.hpp"
#include "store/nfs.hpp"
#include "store/persist.hpp"
#include "store/storage_engine.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<std::uint8_t>;
using service::ServeStatus;
using store::Array;
using store::Binary;
using store::Object;
using store::Value;
using tensor::Tensor;

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Bytes unhex(const std::string& text) {
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  Bytes out(text.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(nibble(text[2 * i]) << 4 |
                                       nibble(text[2 * i + 1]));
  }
  return out;
}

struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(::testing::TempDir() + "fairdms_formats_" + tag + "_" +
             std::to_string(::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool same_tensor(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

Tensor xs_fixture() { return Tensor::from_vector({1, 1, 2}, {1.5f, -0.25f}); }
Tensor ys_fixture() { return Tensor::from_vector({1, 2}, {0.5f, 2.0f}); }

// --- wire -------------------------------------------------------------------

TEST(FormatPins, FrameHeader) {
  const std::string kPin = "46444d5303000301080706050403020102000000aabb";
  const Bytes frame = net::encode_frame(
      net::Op::kRecommend, ServeStatus::kShedOverload, 0x0102030405060708ull,
      Bytes{0xaa, 0xbb});
  EXPECT_EQ(hex(frame), kPin);

  const auto header = net::decode_header(unhex(kPin));
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->version, net::kProtocolVersion);
  EXPECT_EQ(header->op, static_cast<std::uint8_t>(net::Op::kRecommend));
  EXPECT_EQ(header->status, ServeStatus::kShedOverload);
  EXPECT_EQ(header->correlation_id, 0x0102030405060708ull);
  EXPECT_EQ(header->payload_len, 2u);
}

TEST(FormatPins, HelloAck) {
  const std::string kPin = "030000001000";
  const net::HelloAck ack{net::kProtocolVersion, 1u << 20};
  EXPECT_EQ(hex(net::encode_hello_ack(ack)), kPin);
  net::HelloAck back{0, 0};
  ASSERT_TRUE(net::decode_hello_ack(unhex(kPin), &back));
  EXPECT_EQ(back.version, ack.version);
  EXPECT_EQ(back.max_payload, ack.max_payload);
}

TEST(FormatPins, LabelRequestAndResponse) {
  const std::string kRequestPin =
      "030000000100000000000000010000000000000002000000000000000000c03f"
      "000080be000000000000e83f0100000073";
  const service::LabelRequest req{xs_fixture(), 0.75, nullptr, "s"};
  EXPECT_EQ(hex(net::encode_label_request(req)), kRequestPin);
  service::LabelRequest req_back;
  ASSERT_TRUE(net::decode_label_request(unhex(kRequestPin), &req_back));
  EXPECT_TRUE(same_tensor(req_back.xs, req.xs));
  EXPECT_EQ(req_back.threshold, req.threshold);
  EXPECT_EQ(req_back.stream, req.stream);

  const std::string kResponsePin =
      "030000000100000000000000010000000000000002000000000000000000c03f"
      "000080be02000000010000000000000002000000000000000000003f00000040"
      "010000000000000002000000000000000300000000000000000000000000c03f";
  service::LabelResponse resp;
  resp.batch = {xs_fixture(), ys_fixture()};
  resp.reuse = {1, 2};
  resp.snapshot_version = 3;
  resp.seconds = 0.125;
  EXPECT_EQ(hex(net::encode_label_response(resp)), kResponsePin);
  service::LabelResponse resp_back;
  ASSERT_TRUE(net::decode_label_response(unhex(kResponsePin), &resp_back));
  EXPECT_TRUE(same_tensor(resp_back.batch.xs, resp.batch.xs));
  EXPECT_TRUE(same_tensor(resp_back.batch.ys, resp.batch.ys));
  EXPECT_EQ(resp_back.reuse.reused, 1u);
  EXPECT_EQ(resp_back.reuse.computed, 2u);
  EXPECT_EQ(resp_back.snapshot_version, 3u);
  EXPECT_EQ(resp_back.seconds, 0.125);
}

TEST(FormatPins, LookupRequestAndResponse) {
  const std::string kRequestPin =
      "030000000100000000000000010000000000000002000000000000000000c03f"
      "000080be09000000000000000100000074";
  const service::LookupRequest req{xs_fixture(), 9, "t"};
  EXPECT_EQ(hex(net::encode_lookup_request(req)), kRequestPin);
  service::LookupRequest req_back;
  ASSERT_TRUE(net::decode_lookup_request(unhex(kRequestPin), &req_back));
  EXPECT_TRUE(same_tensor(req_back.xs, req.xs));
  EXPECT_EQ(req_back.seed, 9u);
  EXPECT_EQ(req_back.stream, "t");

  const std::string kResponsePin =
      "030000000100000000000000010000000000000002000000000000000000c03f"
      "000080be02000000010000000000000002000000000000000000003f00000040"
      "0400000000000000000000000000d03f";
  service::LookupResponse resp;
  resp.batch = {xs_fixture(), ys_fixture()};
  resp.snapshot_version = 4;
  resp.seconds = 0.25;
  EXPECT_EQ(hex(net::encode_lookup_response(resp)), kResponsePin);
  service::LookupResponse resp_back;
  ASSERT_TRUE(net::decode_lookup_response(unhex(kResponsePin), &resp_back));
  EXPECT_TRUE(same_tensor(resp_back.batch.xs, resp.batch.xs));
  EXPECT_TRUE(same_tensor(resp_back.batch.ys, resp.batch.ys));
  EXPECT_EQ(resp_back.snapshot_version, 4u);
  EXPECT_EQ(resp_back.seconds, 0.25);
}

TEST(FormatPins, RecommendRequestAndResponse) {
  const std::string kRequestPin =
      "0500000062726167670300000001000000000000000100000000000000020000"
      "00000000000000c03f000080be00000000";
  const service::RecommendRequest req{"bragg", xs_fixture(), ""};
  EXPECT_EQ(hex(net::encode_recommend_request(req)), kRequestPin);
  service::RecommendRequest req_back;
  ASSERT_TRUE(net::decode_recommend_request(unhex(kRequestPin), &req_back));
  EXPECT_EQ(req_back.architecture, "bragg");
  EXPECT_TRUE(same_tensor(req_back.xs, req.xs));
  EXPECT_EQ(req_back.stream, "");

  const std::string kResponsePin =
      "012a00000000000000000000000000e03f02000000000000000000d03f000000"
      "000000e83f0500000000000000000000000000f03f";
  service::RecommendResponse resp;
  resp.pick = fairms::Ranked{42, 0.5};
  resp.pdf = {0.25, 0.75};
  resp.snapshot_version = 5;
  resp.seconds = 1.0;
  EXPECT_EQ(hex(net::encode_recommend_response(resp)), kResponsePin);
  service::RecommendResponse resp_back;
  ASSERT_TRUE(
      net::decode_recommend_response(unhex(kResponsePin), &resp_back));
  ASSERT_TRUE(resp_back.pick.has_value());
  EXPECT_EQ(resp_back.pick->model_id, 42u);
  EXPECT_EQ(resp_back.pick->distance, 0.5);
  EXPECT_EQ(resp_back.pdf, resp.pdf);
  EXPECT_EQ(resp_back.snapshot_version, 5u);
  EXPECT_EQ(resp_back.seconds, 1.0);
}

TEST(FormatPins, RetrainRequestAndResponse) {
  const std::string kRequestPin =
      "030000000100000000000000010000000000000002000000000000000000c03f"
      "000080be0100000072";
  const service::RetrainRequest req{xs_fixture(), "r"};
  EXPECT_EQ(hex(net::encode_retrain_request(req)), kRequestPin);
  service::RetrainRequest req_back;
  ASSERT_TRUE(net::decode_retrain_request(unhex(kRequestPin), &req_back));
  EXPECT_TRUE(same_tensor(req_back.xs, req.xs));
  EXPECT_EQ(req_back.stream, "r");

  const std::string kResponsePin = "01";
  EXPECT_EQ(hex(net::encode_retrain_response(true)), kResponsePin);
  bool accepted = false;
  ASSERT_TRUE(net::decode_retrain_response(unhex(kResponsePin), &accepted));
  EXPECT_TRUE(accepted);
}

TEST(FormatPins, StatsBody) {
  const std::string kPin =
      "0100000000000000020000000000000003000000000000000400000000000000"
      "0500000000000000060000000000000007000000000000000800000000000000"
      "010000000700000064656661756c740b000000000000000c000000000000000d"
      "000000000000000e000000000000000f00000000000000100000000000000011"
      "0000000000000012000000000000001300000000000000140000000000000015"
      "0000000000000016000000000000001700000000000000180000000000000019"
      "000000000000000000000000000440000000000000e03f1a000000000000001b"
      "000000000000001c000000000000001d000000000000001e000000000000001f"
      "000000000000002000000000000000";
  service::ServiceStats stats;
  stats.queue_depth = 1;
  stats.max_queue_depth = 2;
  stats.max_pending = 3;
  stats.unknown_stream_requests = 4;
  stats.model_cache_hits = 5;
  stats.model_cache_misses = 6;
  stats.model_cache_evictions = 7;
  stats.model_cache_bytes = 8;
  service::StreamStats s;
  s.stream = "default";
  s.label_requests = 11;
  s.lookup_requests = 12;
  s.recommend_requests = 13;
  s.label_answered = 14;
  s.lookup_answered = 15;
  s.recommend_answered = 16;
  s.label_shed = 17;
  s.lookup_shed = 18;
  s.recommend_shed = 19;
  s.queue_depth = 20;
  s.max_queue_depth = 21;
  s.max_pending = 22;
  s.samples_labeled = 23;
  s.labels_reused = 24;
  s.labels_computed = 25;
  s.busy_seconds = 2.5;
  s.max_request_seconds = 0.5;
  s.retrain_checks = 26;
  s.retrains = 27;
  s.retrains_coalesced = 28;
  s.retrains_capped = 29;
  s.policy_cooldown_skips = 30;
  s.snapshot_version = 31;
  s.store_shards = 32;
  stats.streams.push_back(s);
  EXPECT_EQ(hex(net::encode_stats_response(stats)), kPin);

  service::ServiceStats back;
  ASSERT_TRUE(net::decode_stats_response(unhex(kPin), &back));
  EXPECT_EQ(back.queue_depth, 1u);
  EXPECT_EQ(back.max_queue_depth, 2u);
  EXPECT_EQ(back.max_pending, 3u);
  EXPECT_EQ(back.unknown_stream_requests, 4u);
  EXPECT_EQ(back.model_cache_hits, 5u);
  EXPECT_EQ(back.model_cache_misses, 6u);
  EXPECT_EQ(back.model_cache_evictions, 7u);
  EXPECT_EQ(back.model_cache_bytes, 8u);
  ASSERT_EQ(back.streams.size(), 1u);
  const service::StreamStats& b = back.streams[0];
  EXPECT_EQ(b.stream, "default");
  EXPECT_EQ(b.label_requests, 11u);
  EXPECT_EQ(b.lookup_requests, 12u);
  EXPECT_EQ(b.recommend_requests, 13u);
  EXPECT_EQ(b.label_answered, 14u);
  EXPECT_EQ(b.lookup_answered, 15u);
  EXPECT_EQ(b.recommend_answered, 16u);
  EXPECT_EQ(b.label_shed, 17u);
  EXPECT_EQ(b.lookup_shed, 18u);
  EXPECT_EQ(b.recommend_shed, 19u);
  EXPECT_EQ(b.queue_depth, 20u);
  EXPECT_EQ(b.max_queue_depth, 21u);
  EXPECT_EQ(b.max_pending, 22u);
  EXPECT_EQ(b.samples_labeled, 23u);
  EXPECT_EQ(b.labels_reused, 24u);
  EXPECT_EQ(b.labels_computed, 25u);
  EXPECT_EQ(b.busy_seconds, 2.5);
  EXPECT_EQ(b.max_request_seconds, 0.5);
  EXPECT_EQ(b.retrain_checks, 26u);
  EXPECT_EQ(b.retrains, 27u);
  EXPECT_EQ(b.retrains_coalesced, 28u);
  EXPECT_EQ(b.retrains_capped, 29u);
  EXPECT_EQ(b.policy_cooldown_skips, 30u);
  EXPECT_EQ(b.snapshot_version, 31u);
  EXPECT_EQ(b.store_shards, 32u);
}

// --- store ------------------------------------------------------------------

Value every_tag_doc() {
  Object inner;
  inner["flag"] = Value(false);
  Object doc;
  doc["n"] = Value(nullptr);
  doc["b"] = Value(true);
  doc["i"] = Value(std::int64_t{-3});
  doc["d"] = Value(0.5);
  doc["s"] = Value("hi");
  doc["x"] = Value(Binary{0xde, 0xad});
  doc["a"] = Value(Array{Value(std::int64_t{7}), Value("z")});
  doc["o"] = Value(std::move(inner));
  return Value(std::move(doc));
}

TEST(FormatPins, ValueEveryTag) {
  const std::string kPin =
      "0708000000000000000100000000000000610602000000000000000207000000"
      "000000000401000000000000007a010000000000000062010101000000000000"
      "006403000000000000e03f01000000000000006902fdffffffffffffff010000"
      "00000000006e0001000000000000006f07010000000000000004000000000000"
      "00666c6167010001000000000000007304020000000000000068690100000000"
      "00000078050200000000000000dead";
  const Value doc = every_tag_doc();
  Binary bytes;
  doc.encode(bytes);
  EXPECT_EQ(hex(bytes), kPin);
  EXPECT_EQ(doc.encoded_size(), bytes.size());

  const std::optional<Value> back = Value::try_decode(unhex(kPin));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->compare(doc), 0) << back->to_json();
}

Value sample_doc() {
  Object doc;
  doc["cluster"] = Value(std::int64_t{2});
  doc["tag"] = Value("a");
  return Value(std::move(doc));
}

TEST(FormatPins, PersistManifestAndCollection) {
  const std::string kManifestPin =
      "4e414d46010000000100000000000000070000000000000073616d706c6573";
  const std::string kCollectionPin =
      "4c4f434601000000020000000000000001000000000000000700000000000000"
      "636c7573746572010000000000000001000000000000004a0000000000000007"
      "030000000000000003000000000000005f696402010000000000000007000000"
      "00000000636c7573746572020200000000000000030000000000000074616704"
      "010000000000000061";
  TempDir dir("persist");
  {
    store::DocStore db;
    auto& col = db.collection("samples");
    col.create_index("cluster");
    (void)col.insert_one(sample_doc());
    ASSERT_TRUE(store::try_save_store(db, dir.path).ok());
  }
  EXPECT_EQ(hex(read_bytes(dir.path + "/manifest.bin")), kManifestPin);
  EXPECT_EQ(hex(read_bytes(dir.path + "/samples.col")), kCollectionPin);

  TempDir pinned("persist_pinned");
  write_bytes(pinned.path + "/manifest.bin", unhex(kManifestPin));
  write_bytes(pinned.path + "/samples.col", unhex(kCollectionPin));
  store::DocStore db;
  const store::PersistResult r = store::try_load_store(db, pinned.path);
  ASSERT_TRUE(r.ok()) << r.error;
  auto& col = db.collection("samples");
  EXPECT_EQ(col.index_fields(), std::vector<std::string>{"cluster"});
  std::vector<std::pair<store::DocId, Value>> docs;
  col.scan([&](store::DocId id, const Value& v) { docs.emplace_back(id, v); });
  ASSERT_EQ(docs.size(), 1u);
  Value expected = sample_doc();
  expected.as_object()["_id"] = Value(static_cast<std::int64_t>(docs[0].first));
  EXPECT_EQ(docs[0].second.compare(expected), 0) << docs[0].second.to_json();
  EXPECT_EQ(col.next_id(), docs[0].first + 1);
}

TEST(FormatPins, LogSegmentPutAndTombstone) {
  const std::string kPin =
      "474f4c4601000000000000000000000036000000010700000000000000070200"
      "0000000000000700000000000000636c75737465720202000000000000000300"
      "000000000000746167040100000000000000612c5b6082000000000207000000"
      "0000000082e652f3";
  TempDir dir("log");
  const std::string path = dir.path + "/shard.log";
  const Value doc = sample_doc();
  {
    store::LogEngine engine(path);
    engine.insert(7, doc, doc.encoded_size());
    ASSERT_TRUE(engine.erase(7));
  }
  const Bytes segment = read_bytes(path);
  EXPECT_EQ(hex(segment), kPin);

  // The whole pinned segment replays without truncation to an empty store.
  const Bytes pinned = unhex(kPin);
  const std::string full = dir.path + "/full.log";
  write_bytes(full, pinned);
  {
    store::LogEngine engine(full);
    EXPECT_EQ(engine.size(), 0u);
    EXPECT_EQ(engine.segment_bytes(), pinned.size());
  }
  // Its header and first record replay to the put document.
  const std::size_t put_end = 16 + 17 + doc.encoded_size();
  ASSERT_LE(put_end, pinned.size());
  const std::string put_only = dir.path + "/put.log";
  write_bytes(put_only, Bytes(pinned.begin(), pinned.begin() + put_end));
  store::LogEngine engine(put_only);
  ASSERT_EQ(engine.size(), 1u);
  std::optional<Value> back;
  ASSERT_TRUE(engine.read(7, [&](const Value& v, std::size_t /*bytes*/) {
    back = v;
  }));
  EXPECT_EQ(back->compare(doc), 0);
  EXPECT_EQ(engine.segment_bytes(), put_end);
}

TEST(FormatPins, EngineMeta) {
  const std::string kPin = "54454d46010000000200000000000000";
  TempDir dir("meta");
  store::StorageEngineConfig config;
  config.kind = store::EngineKind::kLog;
  config.directory = dir.path + "/written";
  EXPECT_EQ(store::make_shard_engines(config, "samples", 2).size(), 2u);
  EXPECT_EQ(hex(read_bytes(config.directory + "/engine.meta")), kPin);

  config.directory = dir.path + "/pinned";
  fs::create_directories(config.directory);
  write_bytes(config.directory + "/engine.meta", unhex(kPin));
  EXPECT_EQ(store::make_shard_engines(config, "samples", 2).size(), 2u);
  EXPECT_DEATH((void)store::make_shard_engines(config, "samples", 3),
               "was written with 2 shard");
}

TEST(FormatPins, FloatCodecs) {
  const std::vector<float> values = {0.0f, 0.0f,  0.0f,  0.0f,
                                     1.5f, 1.5f, -2.25f, 0.1f};
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"raw",
       "4657415208000000000000000000000000000000000000000000c03f0000c03f"
       "000010c0cdcccc3d"},
      {"pickle", "464c4b5008000000305203460000c03f520146000010c046cdcccc3d2e"},
      {"blosc",
       "46534c42080000000007000101cd0007000101cc0004000104c0c010cc000400"
       "01043f3fc03d"},
  };
  for (const auto& [name, pin] : pins) {
    const auto codec = store::make_codec(name);
    EXPECT_EQ(hex(codec->encode(values)), pin) << name;
    std::vector<float> back;
    codec->decode(unhex(pin), back);
    EXPECT_EQ(back, values) << name;
  }
}

nn::Sequential tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential model;
  model.emplace<nn::Linear>(2, 2, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Linear>(2, 1, rng);
  return model;
}

TEST(FormatPins, ModelParameterBlob) {
  const std::string kPin =
      "534d444601000000040000000000000002000000000000000200000000000000"
      "02000000000000000000003f000080bf000000400000803e0100000000000000"
      "02000000000000000000003e000000bf02000000000000000100000000000000"
      "020000000000000000004040000040bf01000000000000000100000000000000"
      "0000803f1775ccff2484625a";
  nn::Sequential model = tiny_model(1);
  const std::vector<std::vector<float>> weights = {
      {0.5f, -1.0f, 2.0f, 0.25f}, {0.125f, -0.5f}, {3.0f, -0.75f}, {1.0f}};
  const auto params = model.params();
  ASSERT_EQ(params.size(), weights.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->numel(), weights[i].size());
    std::copy(weights[i].begin(), weights[i].end(), params[i]->data());
  }
  EXPECT_EQ(hex(nn::save_parameters(model)), kPin);

  nn::Sequential loaded = tiny_model(2);
  nn::load_parameters(loaded, unhex(kPin));
  const auto loaded_params = loaded.params();
  for (std::size_t i = 0; i < loaded_params.size(); ++i) {
    EXPECT_EQ(std::vector<float>(loaded_params[i]->data(),
                                 loaded_params[i]->data() + weights[i].size()),
              weights[i])
        << "tensor " << i;
  }
}

TEST(FormatPins, NfsMetadata) {
  const std::string kPin =
      "0200000000000000030000000000000001000000000000000200000000000000"
      "020000000000000001000000000000000200000000000000";
  TempDir dir("nfs");
  const store::RemoteLinkConfig fast{0.0, 1e15};
  {
    store::NfsStore nfs(dir.path + "/written", fast);
    nn::Batchset data{Tensor({2, 1, 2, 2}), Tensor({2, 2})};
    nfs.write_dataset("bragg", data);
  }
  EXPECT_EQ(hex(read_bytes(dir.path + "/written/bragg.meta")), kPin);

  store::NfsStore nfs(dir.path + "/pinned", fast);
  write_bytes(dir.path + "/pinned/bragg.meta", unhex(kPin));
  EXPECT_EQ(nfs.sample_count("bragg"), 2u);
  EXPECT_EQ(nfs.x_shape("bragg"), (std::vector<std::size_t>{1, 2, 2}));
  EXPECT_EQ(nfs.y_shape("bragg"), (std::vector<std::size_t>{2}));
}

}  // namespace
}  // namespace fairdms
