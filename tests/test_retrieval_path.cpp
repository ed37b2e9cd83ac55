// Reuse-path tests: exact parity between the reuse-index lookup_or_label
// and a brute-force oracle over the stored images, the empty-store cold
// start, single-member/empty clusters, stored rows from an older record
// layout, the batched find_many read (missing ids, projections, single
// round trip), and approx_bytes invariance across insert/update/replace/
// remove cycles.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "datagen/bragg.hpp"
#include "fairds/fairds.hpp"
#include "store/codec.hpp"
#include "store/docstore.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using store::Binary;
using store::Object;
using store::Value;
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
  config.seed = 29;
  return config;
}

nn::Batchset regime_data(double drift, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  datagen::BraggRegime regime;
  regime.sigma_major_mean *= 1.0 + drift;
  regime.eta_mean = std::min(0.95, regime.eta_mean + drift * 0.5);
  return datagen::make_bragg_batchset(regime, {}, n, rng);
}

/// Deterministic, input-dependent fallback so parity failures can't hide
/// behind a constant label: ys(i, j) = mean(pixel row i) * (j + 1).
Tensor deterministic_labeler(const Tensor& xs, std::size_t label_w) {
  const std::size_t n = xs.dim(0);
  const std::size_t pixels = xs.numel() / n;
  Tensor ys({n, label_w});
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t p = 0; p < pixels; ++p) {
      sum += static_cast<double>(xs[i * pixels + p]);
    }
    const auto mean = static_cast<float>(sum / static_cast<double>(pixels));
    for (std::size_t j = 0; j < label_w; ++j) {
      ys.data()[i * label_w + j] = mean * static_cast<float>(j + 1);
    }
  }
  return ys;
}

void expect_batchsets_identical(const nn::Batchset& a, const nn::Batchset& b,
                                const std::string& context) {
  ASSERT_EQ(a.xs.shape(), b.xs.shape()) << context;
  ASSERT_EQ(a.ys.shape(), b.ys.shape()) << context;
  for (std::size_t i = 0; i < a.xs.numel(); ++i) {
    ASSERT_EQ(a.xs[i], b.xs[i]) << context << " xs[" << i << "]";
  }
  for (std::size_t i = 0; i < a.ys.numel(); ++i) {
    ASSERT_EQ(a.ys[i], b.ys[i]) << context << " ys[" << i << "]";
  }
}

/// The first `n` images of `xs`.
Tensor head_rows(const Tensor& xs, std::size_t n) {
  Tensor out({n, xs.dim(1), xs.dim(2), xs.dim(3)});
  std::copy_n(xs.data(), out.numel(), out.data());
  return out;
}

std::vector<float> decode(const Value& field) {
  const store::RawCodec codec;
  std::vector<float> out;
  codec.decode(field.as_binary(), out);
  return out;
}

/// Brute-force reference for Snapshot::lookup_or_label, independent of the
/// reuse index: embeds every stored image with the snapshot and assigns it
/// with the snapshot's clustering, then scans the query's cluster in
/// ascending id with a double-precision distance and a strict `<` (ties keep
/// the lowest id). Misses go to one fallback call, as in the served path.
nn::Batchset brute_force_lookup_or_label(
    const fairds::Snapshot& snap, const store::Collection& samples,
    const Tensor& xs, double threshold,
    const std::function<Tensor(const Tensor&)>& fallback_labeler,
    fairds::ReuseStats* stats) {
  const std::size_t s = snap.image_size();
  const std::size_t pixels = s * s;
  const std::size_t dim = snap.embedding_dim();
  const std::vector<store::DocId> ids = samples.all_ids();
  const std::vector<std::string> fields = {"x", "y"};
  const auto docs = samples.find_many(ids, fields);
  Tensor stored_xs({ids.size(), 1, s, s});
  std::vector<std::vector<float>> stored_ys;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const std::vector<float> x = decode(docs[j]->at("x"));
    std::copy(x.begin(), x.end(), stored_xs.data() + j * pixels);
    stored_ys.push_back(decode(docs[j]->at("y")));
  }
  const Tensor stored_emb = snap.embed(stored_xs);
  const auto stored_cluster = snap.clusters().assign_batch(stored_emb);
  const Tensor query_emb = snap.embed(xs);
  const auto query_cluster = snap.clusters().assign_batch(query_emb);

  const std::size_t n = xs.dim(0);
  const std::size_t label_w = stored_ys.front().size();
  nn::Batchset out;
  out.xs = xs;
  out.ys = Tensor({n, label_w});
  std::vector<std::size_t> fallback_rows;
  for (std::size_t i = 0; i < n; ++i) {
    const float* e = query_emb.data() + i * dim;
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_row = ids.size();
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (stored_cluster[j] != query_cluster[i]) continue;
      const float* r = stored_emb.data() + j * dim;
      double d = 0.0;
      for (std::size_t k = 0; k < dim; ++k) {
        const double diff = static_cast<double>(e[k]) - r[k];
        d += diff * diff;
      }
      d = std::sqrt(d);
      if (d < best) {
        best = d;
        best_row = j;
      }
    }
    if (best_row < ids.size() && best < threshold) {
      std::copy_n(stored_xs.data() + best_row * pixels, pixels,
                  out.xs.data() + i * pixels);
      std::copy(stored_ys[best_row].begin(), stored_ys[best_row].end(),
                out.ys.data() + i * label_w);
      if (stats != nullptr) ++stats->reused;
    } else {
      fallback_rows.push_back(i);
    }
  }
  if (!fallback_rows.empty()) {
    Tensor pending({fallback_rows.size(), 1, s, s});
    for (std::size_t j = 0; j < fallback_rows.size(); ++j) {
      std::copy_n(xs.data() + fallback_rows[j] * pixels, pixels,
                  pending.data() + j * pixels);
    }
    const Tensor computed = fallback_labeler(pending);
    for (std::size_t j = 0; j < fallback_rows.size(); ++j) {
      std::copy_n(computed.data() + j * label_w, label_w,
                  out.ys.data() + fallback_rows[j] * label_w);
    }
    if (stats != nullptr) stats->computed += fallback_rows.size();
  }
  return out;
}

class RetrievalPathFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = regime_data(0.0, 96, 21);
    ds_ = std::make_unique<fairds::FairDS>(small_config(), db_);
    ds_->train_system(history_.xs);
    ds_->ingest(history_.xs, history_.ys, "history_0");
  }

  store::DocStore db_;
  nn::Batchset history_;
  std::unique_ptr<fairds::FairDS> ds_;
};

TEST_F(RetrievalPathFixture, IndexMirrorsStoreAfterIngest) {
  const auto snap = ds_->snapshot();
  const fairds::ReuseIndex& index = snap->reuse_index();
  EXPECT_EQ(index.size(), ds_->stored_count());
  EXPECT_EQ(index.dim(), ds_->config().embedding_dim);
  std::size_t from_clusters = 0;
  for (std::size_t c = 0; c < index.cluster_count(); ++c) {
    from_clusters += index.cluster_size(c);
  }
  EXPECT_EQ(from_clusters, 96u);
}

TEST_F(RetrievalPathFixture, ParityWithBruteForceAcrossThresholds) {
  const nn::Batchset query = regime_data(0.01, 32, 22);
  const auto labeler = [](const Tensor& xs) {
    return deterministic_labeler(xs, 2);
  };
  // Spans everything-reused down to everything-computed; the mid values
  // exercise mixed reuse/fallback batches.
  bool saw_mixed = false;
  const auto snap = ds_->snapshot();
  for (const double threshold : {1e9, 2.0, 0.5, 0.2, 0.05, 1e-12}) {
    fairds::ReuseStats new_stats;
    const auto got =
        snap->lookup_or_label(query.xs, threshold, labeler, &new_stats);
    fairds::ReuseStats old_stats;
    const auto want = brute_force_lookup_or_label(
        *snap, db_.collection(ds_->config().collection), query.xs, threshold,
        labeler, &old_stats);
    const std::string context = "threshold=" + std::to_string(threshold);
    EXPECT_EQ(new_stats.reused, old_stats.reused) << context;
    EXPECT_EQ(new_stats.computed, old_stats.computed) << context;
    expect_batchsets_identical(got, want, context);
    saw_mixed = saw_mixed || (new_stats.reused > 0 && new_stats.computed > 0);
  }
  EXPECT_TRUE(saw_mixed) << "no threshold produced a mixed batch; widen the "
                            "threshold sweep";
}

TEST(RetrievalPath, ParityWithBruteForceAfterRetrain) {
  // Certainty is in [0, 1], so a threshold above 1 forces the retrain
  // unconditionally — this test is about the post-retrain index rebuild,
  // not the trigger condition (covered in test_fairds).
  store::DocStore db;
  auto config = small_config();
  config.certainty_threshold = 1.01;
  fairds::FairDS ds(config, db);
  const nn::Batchset history = regime_data(0.0, 96, 21);
  ds.train_system(history.xs);
  ds.ingest(history.xs, history.ys, "history_0");

  const nn::Batchset shifted = regime_data(1.8, 64, 23);
  ASSERT_TRUE(ds.maybe_retrain(shifted.xs));
  const auto snap = ds.snapshot();
  EXPECT_EQ(snap->reuse_index().size(), ds.stored_count());
  const nn::Batchset query = regime_data(0.02, 24, 24);
  const auto labeler = [](const Tensor& xs) {
    return deterministic_labeler(xs, 2);
  };
  for (const double threshold : {1e9, 0.5, 1e-12}) {
    fairds::ReuseStats new_stats;
    const auto got =
        snap->lookup_or_label(query.xs, threshold, labeler, &new_stats);
    fairds::ReuseStats old_stats;
    const auto want = brute_force_lookup_or_label(
        *snap, db.collection(config.collection), query.xs, threshold, labeler,
        &old_stats);
    EXPECT_EQ(new_stats.reused, old_stats.reused);
    EXPECT_EQ(new_stats.computed, old_stats.computed);
    expect_batchsets_identical(got, want,
                               "post-retrain threshold=" +
                                   std::to_string(threshold));
  }
}

TEST(RetrievalColdStart, EmptyStoreRoutesEverythingToFallback) {
  // Pre-rewrite this aborted in label_width() ("no stored samples"); now it
  // must label every sample via the fallback and take its width.
  store::DocStore db;
  fairds::FairDS ds(small_config(), db);
  const nn::Batchset history = regime_data(0.0, 48, 31);
  ds.train_system(history.xs);  // trained, but nothing ingested

  const nn::Batchset query = regime_data(0.0, 12, 32);
  fairds::ReuseStats stats;
  std::size_t labeler_calls = 0;
  const auto labeled = ds.snapshot()->lookup_or_label(
      query.xs, /*threshold=*/1e9,
      [&](const Tensor& xs) {
        ++labeler_calls;
        return deterministic_labeler(xs, 3);
      },
      &stats);
  EXPECT_EQ(stats.reused, 0u);
  EXPECT_EQ(stats.computed, 12u);
  EXPECT_EQ(labeler_calls, 1u);
  ASSERT_EQ(labeled.ys.shape(), (std::vector<std::size_t>{12, 3}));
  const Tensor want = deterministic_labeler(query.xs, 3);
  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(labeled.ys[i], want[i]);
  }
}

TEST(RetrievalEdgeCases, SingleMemberAndEmptyClusters) {
  // Train the clustering on a spread of data but ingest only 3 samples
  // with k=4: at least one cluster is empty and the populated ones hold
  // one-ish members. Reuse must work for hits and fall back for misses.
  store::DocStore db;
  fairds::FairDS ds(small_config(4), db);
  const nn::Batchset history = regime_data(0.0, 64, 41);
  ds.train_system(history.xs);

  nn::Batchset tiny;
  tiny.xs = Tensor({3, 1, 15, 15});
  tiny.ys = Tensor({3, 2});
  const std::size_t pixels = 225;
  for (std::size_t i = 0; i < 3; ++i) {
    std::copy_n(history.xs.data() + i * pixels, pixels,
                tiny.xs.data() + i * pixels);
    std::copy_n(history.ys.data() + i * 2, 2, tiny.ys.data() + i * 2);
  }
  ds.ingest(tiny.xs, tiny.ys, "tiny");
  const auto snap = ds.snapshot();
  EXPECT_EQ(snap->reuse_index().size(), 3u);

  const nn::Batchset query = regime_data(0.0, 24, 42);
  const auto labeler = [](const Tensor& xs) {
    return deterministic_labeler(xs, 2);
  };
  fairds::ReuseStats new_stats;
  const auto got = snap->lookup_or_label(query.xs, 1e9, labeler, &new_stats);
  EXPECT_EQ(new_stats.reused + new_stats.computed, 24u);

  fairds::ReuseStats old_stats;
  const auto want = brute_force_lookup_or_label(
      *snap, db.collection(ds.config().collection), query.xs, 1e9, labeler,
      &old_stats);
  EXPECT_EQ(new_stats.reused, old_stats.reused);
  EXPECT_EQ(new_stats.computed, old_stats.computed);
  expect_batchsets_identical(got, want, "sparse-store");
}

TEST_F(RetrievalPathFixture, VanishedDocumentsFallBackInsteadOfAborting) {
  // Remove half the stored samples directly from the collection: the reuse
  // index still holds their rows, so some winners resolve to vanished
  // documents. Those queries must be served by the fallback labeler.
  auto& col = db_.collection(ds_->config().collection);
  const auto ids = col.all_ids();
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(col.remove_one(ids[i]));
  }
  ASSERT_EQ(ds_->stored_count(), 48u);
  const auto snap = ds_->snapshot();
  ASSERT_EQ(snap->reuse_index().size(), 96u);  // stale on purpose

  const nn::Batchset query = regime_data(0.0, 24, 25);
  fairds::ReuseStats stats;
  const auto labeled = snap->lookup_or_label(
      query.xs, /*threshold=*/1e9,
      [](const Tensor& xs) { return deterministic_labeler(xs, 2); }, &stats);
  EXPECT_EQ(stats.reused + stats.computed, 24u);
  EXPECT_EQ(labeled.ys.shape(), (std::vector<std::size_t>{24, 2}));
}

TEST(RetrievalEdgeCases, StoredClusterAndEmbeddingFieldsAreIgnored) {
  // Rows written by an older record layout carry `cluster` and `embedding`
  // fields: here a negative cluster id, one beyond k, and embeddings of the
  // wrong width. The index derives both from the stored images, so
  // train_system must not abort and each row is found again by a query of
  // its own image.
  store::DocStore db;
  auto config = small_config(4);
  auto& col = db.collection(config.collection);
  const store::RawCodec codec;
  const nn::Batchset rows = regime_data(0.0, 2, 54);
  const std::int64_t stale_cluster[] = {-1, 9};
  for (std::size_t i = 0; i < 2; ++i) {
    Object doc;
    doc["cluster"] = Value(stale_cluster[i]);
    doc["embedding"] = Value(
        codec.encode(std::vector<float>(config.embedding_dim + 3, 0.5f)));
    doc["x"] = Value(codec.encode(
        std::span<const float>(rows.xs.data() + i * 225, 225)));
    doc["y"] =
        Value(codec.encode(std::span<const float>(rows.ys.data() + i * 2, 2)));
    col.insert_one(Value(std::move(doc)));
  }

  fairds::FairDS ds(config, db);
  ds.train_system(regime_data(0.0, 48, 52).xs);  // must not abort
  const auto snap = ds.snapshot();
  EXPECT_EQ(snap->indexed_count(), 2u);
  EXPECT_EQ(snap->label_width(), 2u);

  fairds::ReuseStats stats;
  const auto labeled = snap->lookup_or_label(
      rows.xs, 1e-6,
      [](const Tensor& xs) { return deterministic_labeler(xs, 2); }, &stats);
  EXPECT_EQ(stats.reused, 2u);
  EXPECT_EQ(stats.computed, 0u);
  expect_batchsets_identical(labeled, rows, "own-image queries");
}

// --- the stored sample record: x, y and dataset_id only --------------------

/// A log-engine store root under the test temp directory, removed on exit.
struct LogStoreDir {
  explicit LogStoreDir(const std::string& tag)
      : path(::testing::TempDir() + "fairdms_retrieval_" + tag + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(path);
  }
  ~LogStoreDir() { std::filesystem::remove_all(path); }

  [[nodiscard]] store::DocStoreConfig config() const {
    store::DocStoreConfig db_config;
    db_config.engine.kind = store::EngineKind::kLog;
    db_config.engine.directory = path;
    return db_config;
  }
  /// Bytes of every file under the store root.
  [[nodiscard]] std::uintmax_t bytes() const {
    std::uintmax_t total = 0;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(path)) {
      if (entry.is_regular_file()) total += entry.file_size();
    }
    return total;
  }

  std::string path;
};

TEST(StoredSampleRecord, ForcedRetrainAppendsNothingToALogCollection) {
  // A retrain rebuilds only the in-memory index: the log, which appends
  // every rewritten document in full, must not grow by a byte.
  LogStoreDir dir("retrain_bytes");
  store::DocStore db(dir.config());
  fairds::FairDS ds(small_config(), db);
  const nn::Batchset history = regime_data(0.0, 1024, 61);
  ds.train_system(head_rows(history.xs, 128));
  ds.ingest(history.xs, history.ys, "history");
  const std::uintmax_t before = dir.bytes();

  const nn::Batchset probe = regime_data(1.8, 64, 62);
  ASSERT_TRUE(ds.maybe_retrain(probe.xs, 1.01));
  EXPECT_EQ(dir.bytes(), before);
  EXPECT_EQ(ds.snapshot()->indexed_count(), 1024u);
}

TEST(StoredSampleRecord, ReopenedLogStoreReusesEveryStoredImage) {
  // Retrain once, drop the store, reopen its directory and train a fresh
  // plane: the index is rebuilt from the stored images under that plane,
  // so querying each stored image finds it at distance zero.
  LogStoreDir dir("restart");
  const auto config = small_config();
  const nn::Batchset history = regime_data(0.0, 256, 63);
  {
    store::DocStore db(dir.config());
    fairds::FairDS ds(config, db);
    ds.train_system(history.xs);
    ds.ingest(history.xs, history.ys, "history");
    ASSERT_TRUE(ds.maybe_retrain(regime_data(1.8, 64, 64).xs, 1.01));
  }
  store::DocStore db(dir.config());
  fairds::FairDS ds(config, db);
  ds.train_system(history.xs);
  const auto snap = ds.snapshot();
  ASSERT_EQ(snap->indexed_count(), 256u);
  EXPECT_EQ(snap->label_width(), 2u);

  fairds::ReuseStats stats;
  const auto labeled = snap->lookup_or_label(
      history.xs, 1e-6,
      [](const Tensor& xs) { return deterministic_labeler(xs, 2); }, &stats);
  EXPECT_EQ(stats.reused, 256u);
  expect_batchsets_identical(labeled, history, "restart");
}

// --- batched reads ----------------------------------------------------------

TEST(FindMany, ReturnsDocsAndNulloptsInOrder) {
  store::DocStore db;
  auto& col = db.collection("c");
  std::vector<store::DocId> ids;
  for (int i = 0; i < 5; ++i) {
    Object doc;
    doc["v"] = Value(static_cast<std::int64_t>(i));
    ids.push_back(col.insert_one(Value(std::move(doc))));
  }
  const store::DocId removed = ids[2];
  col.remove_one(removed);

  const std::vector<store::DocId> ask = {ids[4], removed, ids[0], 9999};
  const auto got = col.find_many(ask);
  ASSERT_EQ(got.size(), 4u);
  ASSERT_TRUE(got[0].has_value());
  EXPECT_EQ(got[0]->at("v").as_int(), 4);
  EXPECT_FALSE(got[1].has_value());
  ASSERT_TRUE(got[2].has_value());
  EXPECT_EQ(got[2]->at("v").as_int(), 0);
  EXPECT_EQ(got[2]->at("_id").as_int(), static_cast<std::int64_t>(ids[0]));
  EXPECT_FALSE(got[3].has_value());
}

TEST(FindMany, ProjectionReturnsOnlyRequestedFields) {
  store::DocStore db;
  auto& col = db.collection("c");
  Object doc;
  doc["a"] = Value(std::int64_t{1});
  doc["b"] = Value("payload");
  doc["big"] = Value(Binary(4096, 0x7f));
  const store::DocId id = col.insert_one(Value(std::move(doc)));

  const std::vector<store::DocId> ask = {id};
  const std::vector<std::string> fields = {"a", "missing"};
  const auto got = col.find_many(ask, fields);
  ASSERT_TRUE(got[0].has_value());
  const Object& obj = got[0]->as_object();
  EXPECT_EQ(obj.size(), 1u);  // "missing" omitted, "b"/"big"/"_id" excluded
  EXPECT_EQ(got[0]->at("a").as_int(), 1);
}

TEST(FindMany, OneRoundTripAndProjectedBytesOnly) {
  store::DocStore db(store::RemoteLinkConfig{.latency_seconds = 1e-9,
                                             .bandwidth_bytes_per_s = 1e12});
  auto& col = db.collection("c");
  std::vector<store::DocId> ids;
  for (int i = 0; i < 16; ++i) {
    Object doc;
    doc["small"] = Value(std::int64_t{i});
    doc["big"] = Value(Binary(2048, 0x11));
    ids.push_back(col.insert_one(Value(std::move(doc))));
  }

  const auto before_reqs = db.link().requests();
  const auto before_bytes = db.link().bytes_moved();
  const std::vector<std::string> fields = {"small"};
  const auto got = col.find_many(ids, fields);
  ASSERT_EQ(got.size(), 16u);
  EXPECT_EQ(db.link().requests(), before_reqs + 1);  // one batched trip
  // Projected reads must not pay for the 2 KB binaries.
  EXPECT_LT(db.link().bytes_moved() - before_bytes, 16u * 256u);
}

// --- payload-byte accounting ------------------------------------------------

TEST(PayloadAccounting, EncodedSizeMatchesEncode) {
  Object inner;
  inner["flag"] = Value(true);
  Object obj;
  obj["name"] = Value("bragg");
  obj["count"] = Value(std::int64_t{15});
  obj["ratio"] = Value(0.75);
  obj["none"] = Value(nullptr);
  obj["blob"] = Value(Binary{1, 2, 3, 4, 5});
  obj["pdf"] = Value(store::Array{Value(0.25), Value(0.75)});
  obj["meta"] = Value(std::move(inner));
  const Value doc{std::move(obj)};
  Binary buf;
  doc.encode(buf);
  EXPECT_EQ(doc.encoded_size(), buf.size());
}

/// approx_bytes() must equal the bytes of a freshly built collection with
/// identical contents, no matter the mutation history that produced it.
std::size_t rebuilt_bytes(store::Collection& col) {
  store::DocStore fresh_db;
  auto& fresh = fresh_db.collection("fresh");
  // Buffer during the scan, insert after: the scan callback runs under the
  // source shard's lock, and inserting into another collection from inside
  // it nests two same-rank shard locks (the lock-rank checker aborts, and
  // two threads doing crossed scan/insert could genuinely deadlock).
  std::vector<Value> copies;
  col.scan([&](store::DocId, const Value& doc) {
    Object copy = doc.as_object();
    copy.erase("_id");  // re-assigned on insert; same encoded size
    copies.emplace_back(std::move(copy));
  });
  for (Value& copy : copies) fresh.insert_one(std::move(copy));
  return fresh.approx_bytes();
}

TEST(PayloadAccounting, ApproxBytesInvariantAcrossMutationCycles) {
  store::DocStore db;
  auto& col = db.collection("c");
  col.create_index("cluster");
  std::vector<store::DocId> ids;
  for (int i = 0; i < 12; ++i) {
    Object doc;
    doc["cluster"] = Value(static_cast<std::int64_t>(i % 3));
    doc["embedding"] = Value(Binary(64, static_cast<std::uint8_t>(i)));
    ids.push_back(col.insert_one(Value(std::move(doc))));
  }
  EXPECT_EQ(col.approx_bytes(), rebuilt_bytes(col));

  // update_field with a larger value (the retrain re-embedding pattern —
  // pre-fix this drifted payload_bytes_ by the full value size each pass).
  for (const store::DocId id : ids) {
    EXPECT_TRUE(col.update_field(id, "embedding",
                                 Value(Binary(256, 0x2a))));
    EXPECT_TRUE(col.update_field(id, "cluster", Value(std::int64_t{7})));
  }
  EXPECT_EQ(col.approx_bytes(), rebuilt_bytes(col));

  // update_fields / update_many single-pass updates agree too.
  {
    std::vector<std::pair<store::DocId, Object>> updates;
    for (const store::DocId id : ids) {
      Object fields;
      fields["cluster"] = Value(std::int64_t{1});
      fields["embedding"] = Value(Binary(32, 0x01));
      updates.emplace_back(id, std::move(fields));
    }
    EXPECT_EQ(col.update_many(std::move(updates)), ids.size());
    EXPECT_EQ(col.approx_bytes(), rebuilt_bytes(col));
  }

  // A shrinking update and remove cycles drive it back to a consistent
  // state and to exactly zero when emptied.
  EXPECT_TRUE(col.update_field(ids[0], "embedding", Value(Binary{})));
  EXPECT_EQ(col.approx_bytes(), rebuilt_bytes(col));
  for (const store::DocId id : ids) EXPECT_TRUE(col.remove_one(id));
  EXPECT_EQ(col.size(), 0u);
  EXPECT_EQ(col.approx_bytes(), 0u);
}

TEST(PayloadAccounting, UpdateFieldChargesValueSizeNotFlatConstant) {
  store::DocStore db(store::RemoteLinkConfig{.latency_seconds = 1e-9,
                                             .bandwidth_bytes_per_s = 1e12});
  auto& col = db.collection("c");
  Object doc;
  doc["payload"] = Value(Binary(16, 0x00));
  const store::DocId id = col.insert_one(Value(std::move(doc)));

  const auto before = db.link().bytes_moved();
  EXPECT_TRUE(col.update_field(id, "payload", Value(Binary(4096, 0x01))));
  const auto charged = db.link().bytes_moved() - before;
  EXPECT_GT(charged, 4096u);       // pre-fix: flat 128 regardless of size
  EXPECT_LT(charged, 4096u + 256); // but not the whole document either
}

TEST(PayloadAccounting, UpdateManyIsOneRoundTrip) {
  store::DocStore db(store::RemoteLinkConfig{.latency_seconds = 1e-9,
                                             .bandwidth_bytes_per_s = 1e12});
  auto& col = db.collection("c");
  std::vector<store::DocId> ids;
  for (int i = 0; i < 8; ++i) {
    Object doc;
    doc["v"] = Value(std::int64_t{0});
    ids.push_back(col.insert_one(Value(std::move(doc))));
  }
  std::vector<std::pair<store::DocId, Object>> updates;
  for (const store::DocId id : ids) {
    Object fields;
    fields["v"] = Value(std::int64_t{1});
    updates.emplace_back(id, std::move(fields));
  }
  updates.emplace_back(424242, Object{{"v", Value(std::int64_t{1})}});
  const auto before = db.link().requests();
  EXPECT_EQ(col.update_many(std::move(updates)), 8u);  // missing id skipped
  EXPECT_EQ(db.link().requests(), before + 1);
  for (const store::DocId id : ids) {
    EXPECT_EQ(col.find_by_id(id)->at("v").as_int(), 1);
  }
}

}  // namespace
}  // namespace fairdms
