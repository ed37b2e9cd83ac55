// Model-plane cache and rank-index tests (`service` label — runs under the
// TSan CI job): raw ModelCache LRU/budget/floor mechanics, zoo revision
// monotonicity (including resume-after-restart), zero-link-traffic repeat
// foundation loads, cache invalidation after attach_parameters/reindex,
// rank/recommend making no store or cache call, a randomized parity suite
// of the incrementally maintained rank index against a freshly built one
// and against a store-read reference ranking, a concurrent
// hit/miss/evict stress drive that also pins the index under racing
// mutations, and regression tests for the model-plane bugfixes (reindex
// mass validation, rank surviving malformed stored PDFs and legacy
// records, attach_parameters rejecting empty blobs) plus the
// single-round-trip models_of rewrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fairms/jsd.hpp"
#include "fairms/model_cache.hpp"
#include "fairms/zoo.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using fairms::CachedModel;
using fairms::ModelCache;
using fairms::ModelZoo;

ModelCache::RecordPtr make_record(store::DocId id, std::uint64_t revision,
                                  std::size_t blob_bytes) {
  auto record = std::make_shared<CachedModel>();
  record->id = id;
  record->revision = revision;
  record->architecture = "braggnn";
  record->dataset_id = "d" + std::to_string(id);
  record->train_pdf = {0.5, 0.5};
  record->parameters = std::make_shared<const std::vector<std::uint8_t>>(
      blob_bytes, static_cast<std::uint8_t>(id));
  return record;
}

std::vector<double> random_pdf(util::Rng& rng, std::size_t width) {
  std::vector<double> pdf(width);
  for (double& v : pdf) v = rng.uniform();
  pdf[rng.uniform_index(width)] += 0.5;  // guarantee positive mass
  return pdf;
}

std::vector<std::uint8_t> random_blob(util::Rng& rng, std::size_t bytes) {
  std::vector<std::uint8_t> blob(bytes);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  return blob;
}

/// A store whose link *counts* requests/bytes (a local latency-0 store skips
/// the link entirely). Negligible simulated wire time, real counters — the
/// CountingLink harness of the byte-accounting pins below.
store::DocStore counting_db() {
  return store::DocStore(store::RemoteLinkConfig{
      .latency_seconds = 1e-9, .bandwidth_bytes_per_s = 1e12});
}

// --- raw ModelCache mechanics -----------------------------------------------

TEST(ModelCacheLru, BudgetEvictsLeastRecentlyUsed) {
  // Three ~1KB records against a budget that holds only two.
  ModelCache cache(2 * 1200);
  cache.put_record(make_record(1, 1, 1024));
  cache.put_record(make_record(2, 1, 1024));
  EXPECT_NE(cache.get_record(1), nullptr);  // 1 is now more recent than 2
  cache.put_record(make_record(3, 1, 1024));
  EXPECT_EQ(cache.get_record(2), nullptr);  // LRU victim
  EXPECT_NE(cache.get_record(1), nullptr);
  EXPECT_NE(cache.get_record(3), nullptr);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.resident_bytes, 2048u);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ModelCacheLru, ZeroBudgetDisablesCaching) {
  ModelCache cache(0);
  cache.put_record(make_record(1, 1, 16));
  EXPECT_EQ(cache.get_record(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(ModelCacheLru, OversizedEntryIsNotCachedAndEvictsNothing) {
  ModelCache cache(2048);
  cache.put_record(make_record(1, 1, 512));
  cache.put_record(make_record(2, 1, 1 << 20));  // larger than the budget
  EXPECT_EQ(cache.get_record(2), nullptr);
  EXPECT_NE(cache.get_record(1), nullptr);  // resident entry untouched
}

TEST(ModelCacheLru, RevisionFloorRejectsStalePuts) {
  ModelCache cache(1 << 20);
  cache.put_record(make_record(7, 3, 64));
  cache.invalidate_below(7, 5);
  EXPECT_EQ(cache.get_record(7), nullptr);  // rev 3 < floor 5: dropped
  cache.put_record(make_record(7, 4, 64));  // a racing reader's stale write
  EXPECT_EQ(cache.get_record(7), nullptr);
  cache.put_record(make_record(7, 5, 64));
  ASSERT_NE(cache.get_record(7), nullptr);
  EXPECT_EQ(cache.get_record(7)->revision, 5u);
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST(ModelCacheLru, AdmitsRecordMatchesPutRecordAdmission) {
  ModelCache cache(2048);
  // admits_record and put_record must agree at the boundary: if admits says
  // yes, the entry really lands; if it says no, a put is a no-op.
  const auto probe = [&](std::size_t blob_bytes) {
    auto record = make_record(1, 1, blob_bytes);
    const bool admits = cache.admits_record(
        blob_bytes, record->train_pdf.size(), record->architecture.size(),
        record->dataset_id.size());
    cache.put_record(std::move(record));
    const bool cached = cache.get_record(1) != nullptr;
    EXPECT_EQ(admits, cached) << "blob_bytes " << blob_bytes;
    cache.clear();
  };
  probe(256);   // comfortably fits
  probe(1950);  // blob < budget but entry overhead pushes it over
  probe(4096);  // clearly over
}

// --- zoo revisions ----------------------------------------------------------

TEST(ZooRevision, MonotonicAcrossMutationsAndRestart) {
  store::DocStore db;
  store::DocId id = 0;
  {
    ModelZoo zoo(db);
    EXPECT_EQ(zoo.revision(), 0u);
    id = zoo.publish("braggnn", "a", {0.5, 0.5}, {1, 2, 3});
    const auto after_publish = zoo.fetch(id)->revision;
    EXPECT_GE(after_publish, 1u);

    ASSERT_TRUE(zoo.attach_parameters(id, {4, 5, 6}));
    const auto after_attach = zoo.fetch(id)->revision;
    EXPECT_GT(after_attach, after_publish);

    ASSERT_TRUE(zoo.reindex(id, {0.25, 0.75}));
    const auto after_reindex = zoo.fetch(id)->revision;
    EXPECT_GT(after_reindex, after_attach);
    EXPECT_GE(zoo.revision(), after_reindex);
  }
  // A fresh zoo over the same store resumes past every stored revision, so
  // (id, revision) cache keys never repeat across restarts.
  ModelZoo reopened(db);
  EXPECT_GE(reopened.revision(), reopened.fetch(id)->revision);
  const auto next = reopened.publish("braggnn", "b", {1.0}, {9});
  EXPECT_GT(reopened.fetch(next)->revision, reopened.fetch(id)->revision);
}

// --- cached fetch path ------------------------------------------------------

TEST(ZooCache, RepeatFoundationLoadCostsZeroLinkTraffic) {
  store::DocStore db = counting_db();
  ModelZoo zoo(db);
  util::Rng rng(19);
  const auto id =
      zoo.publish("braggnn", "scan", {0.3, 0.7}, random_blob(rng, 4096));
  const auto reference = zoo.fetch(id);

  // publish() pre-warms the cache: even the *first* cached load after a
  // publish is free.
  auto before_req = db.link().requests();
  auto before_bytes = db.link().bytes_moved();
  const auto warm = zoo.fetch_cached(id);
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(db.link().requests() - before_req, 0u);
  EXPECT_EQ(db.link().bytes_moved() - before_bytes, 0u);

  // Cold (post-clear) load pays once; the repeat is free again.
  zoo.cache().clear();
  before_req = db.link().requests();
  before_bytes = db.link().bytes_moved();
  const auto cold = zoo.fetch_cached(id);
  ASSERT_NE(cold, nullptr);
  EXPECT_GT(db.link().requests() - before_req, 0u);
  EXPECT_GT(db.link().bytes_moved() - before_bytes, 0u);

  before_req = db.link().requests();
  before_bytes = db.link().bytes_moved();
  const auto repeat = zoo.fetch_cached(id);
  ASSERT_NE(repeat, nullptr);
  EXPECT_EQ(db.link().requests() - before_req, 0u);
  EXPECT_EQ(db.link().bytes_moved() - before_bytes, 0u);

  // All three answers match the uncached read exactly.
  for (const auto& cached : {warm, cold, repeat}) {
    EXPECT_EQ(cached->architecture, reference->architecture);
    EXPECT_EQ(cached->dataset_id, reference->dataset_id);
    EXPECT_EQ(cached->train_pdf, reference->train_pdf);
    EXPECT_EQ(*cached->parameters, reference->parameters);
    EXPECT_EQ(cached->revision, reference->revision);
  }
  EXPECT_EQ(zoo.fetch_cached(999999), nullptr);
}

TEST(ZooCache, InvalidatedAfterAttachParametersAndReindex) {
  store::DocStore db;
  ModelZoo zoo(db);
  const auto id = zoo.publish("braggnn", "d", {0.5, 0.5}, {1, 2, 3});
  ASSERT_NE(zoo.fetch_cached(id), nullptr);

  ASSERT_TRUE(zoo.attach_parameters(id, {7, 8}));
  const auto after_attach = zoo.fetch_cached(id);
  ASSERT_NE(after_attach, nullptr);
  EXPECT_EQ(*after_attach->parameters, (std::vector<std::uint8_t>{7, 8}));

  ASSERT_TRUE(zoo.reindex(id, {0.2, 0.8}));
  const auto after_reindex = zoo.fetch_cached(id);
  ASSERT_NE(after_reindex, nullptr);
  EXPECT_EQ(after_reindex->train_pdf, (std::vector<double>{0.2, 0.8}));
  EXPECT_EQ(*after_reindex->parameters, (std::vector<std::uint8_t>{7, 8}));
  EXPECT_GT(after_reindex->revision, after_attach->revision);
}

TEST(ZooCache, WarmRankTransfersNoPdfPayload) {
  // rank and recommend read the zoo's in-memory rank index: zero link
  // requests, zero bytes and zero cache lookups, whether the blob cache is
  // cold or warm and whether the zoo was just constructed.
  store::DocStore db = counting_db();
  ModelZoo zoo(db);
  util::Rng rng(411);
  constexpr std::size_t kModels = 48;
  constexpr std::size_t kWidth = 16;
  for (std::size_t i = 0; i < kModels; ++i) {
    zoo.publish("braggnn", "m" + std::to_string(i), random_pdf(rng, kWidth),
                random_blob(rng, 64));
  }
  const auto query = random_pdf(rng, kWidth);

  const auto expect_no_traffic = [&](const ModelZoo& z, const char* pass) {
    const fairms::ModelManager manager(z, 1.0);
    const auto requests = db.link().requests();
    const auto bytes = db.link().bytes_moved();
    const auto lookups = z.cache().stats().hits + z.cache().stats().misses;
    const auto ranked = manager.rank("braggnn", query);
    const auto pick = manager.recommend("braggnn", query);
    EXPECT_EQ(db.link().requests() - requests, 0u) << pass;
    EXPECT_EQ(db.link().bytes_moved() - bytes, 0u) << pass;
    EXPECT_EQ(z.cache().stats().hits + z.cache().stats().misses, lookups)
        << pass;
    ASSERT_EQ(ranked.size(), kModels) << pass;
    ASSERT_TRUE(pick.has_value()) << pass;
    EXPECT_EQ(pick->model_id, ranked.front().model_id) << pass;
    EXPECT_EQ(pick->distance, ranked.front().distance) << pass;
  };
  zoo.cache().clear();
  expect_no_traffic(zoo, "cold");
  expect_no_traffic(zoo, "warm");
  // A zoo over an existing store pays one read at construction, never per
  // call.
  const ModelZoo reopened(db);
  expect_no_traffic(reopened, "reopened");
}

// --- rank-index parity ------------------------------------------------------

/// The ranking read straight from the store: every weight-bearing record of
/// `architecture` whose stored PDF has the query's width and normalizes,
/// ascending by (distance, id).
std::vector<fairms::Ranked> store_rank(const ModelZoo& zoo,
                                       const std::string& architecture,
                                       const std::vector<double>& query) {
  std::vector<fairms::Ranked> out;
  const auto input = fairms::try_normalized(query);
  if (!input.has_value()) return out;
  for (const auto& record : zoo.models_of(architecture)) {
    if (record.parameters.empty()) continue;
    if (record.train_pdf.size() != input->size()) continue;
    const auto pdf = fairms::try_normalized(record.train_pdf);
    if (!pdf.has_value()) continue;
    out.push_back({record.id, fairms::jsd_normalized(*input, *pdf)});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.model_id < b.model_id;
  });
  return out;
}

void expect_same_ranking(const std::vector<fairms::Ranked>& got,
                         const std::vector<fairms::Ranked>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].model_id, want[i].model_id) << what << " #" << i;
    // Bitwise-equal distances: the same arithmetic on every path.
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " #" << i;
  }
}

TEST(RankParity, RandomizedCachedParallelMatchesUncachedSequential) {
  // The writer zoo maintains its rank index incrementally through random
  // publishes (some weightless), attach_parameters and reindex calls
  // (including width changes). After each round its rankings and picks
  // must be bitwise equal to those of a zoo freshly constructed over the
  // same store (the rebuild path) and to the store-read reference above.
  store::DocStore db;
  ModelZoo writer(db);
  util::Rng rng(2024);
  const std::vector<std::string> archs = {"braggnn", "cookienetae"};
  const std::vector<std::size_t> widths = {4, 6};
  const auto random_width = [&] {
    return widths[rng.uniform_index(widths.size())];
  };
  std::vector<store::DocId> ids;

  const auto check_parity = [&](int round) {
    const ModelZoo rebuilt(db);
    // fetch parity over every record.
    for (const auto id : ids) {
      const auto cached = writer.fetch_cached(id);
      const auto reference = rebuilt.fetch(id);
      ASSERT_TRUE(cached != nullptr && reference.has_value());
      EXPECT_EQ(cached->architecture, reference->architecture);
      EXPECT_EQ(cached->train_pdf, reference->train_pdf);
      EXPECT_EQ(*cached->parameters, reference->parameters);
      EXPECT_EQ(cached->revision, reference->revision);
    }
    for (const double threshold : {1.0, 0.05}) {
      const fairms::ModelManager incremental(writer, threshold);
      const fairms::ModelManager fresh(rebuilt, threshold);
      for (int q = 0; q < 4; ++q) {
        const auto query = random_pdf(rng, random_width());
        for (const auto& arch : archs) {
          const std::string what = "round " + std::to_string(round) + " " +
                                   arch + " width " +
                                   std::to_string(query.size());
          const auto reference = store_rank(writer, arch, query);
          expect_same_ranking(incremental.rank(arch, query), reference,
                              what + " incremental");
          expect_same_ranking(fresh.rank(arch, query), reference,
                              what + " rebuilt");
          const bool expected = !reference.empty() &&
                                reference.front().distance <= threshold;
          for (const auto* manager : {&incremental, &fresh}) {
            const auto pick = manager->recommend(arch, query);
            ASSERT_EQ(pick.has_value(), expected) << what;
            if (expected) {
              EXPECT_EQ(pick->model_id, reference.front().model_id) << what;
              EXPECT_EQ(pick->distance, reference.front().distance) << what;
            }
          }
        }
      }
    }
  };

  for (int round = 0; round < 6; ++round) {
    // Publish a few models: mostly weighted, occasionally metadata-first.
    for (int i = 0; i < 8; ++i) {
      const bool weightless = rng.uniform() < 0.2;
      ids.push_back(writer.publish(
          archs[rng.uniform_index(archs.size())],
          "r" + std::to_string(round) + "_" + std::to_string(i),
          random_pdf(rng, random_width()),
          weightless ? std::vector<std::uint8_t>{}
                     : random_blob(rng, 32 + rng.uniform_index(96))));
    }
    // Mutate a few existing records.
    for (int m = 0; m < 6; ++m) {
      const auto id = ids[rng.uniform_index(ids.size())];
      if (rng.uniform() < 0.4) {
        EXPECT_TRUE(writer.attach_parameters(
            id, random_blob(rng, 16 + rng.uniform_index(64))));
      } else {
        EXPECT_TRUE(writer.reindex(id, random_pdf(rng, random_width())));
      }
    }
    check_parity(round);
  }
}

// --- concurrent stress (runs under the TSan CI job) -------------------------

TEST(ConcurrentStress, CachedReadsUnderMutationAndEviction) {
  store::DocStore db;
  // A budget small enough that the blob working set does not fit: every
  // thread keeps hitting the insert/evict path, not just warm gets.
  ModelZoo zoo(db, /*cache_bytes=*/16 * 1024);
  util::Rng seed_rng(77);
  constexpr std::size_t kModels = 24;
  std::vector<store::DocId> ids;
  for (std::size_t i = 0; i < kModels; ++i) {
    ids.push_back(zoo.publish("braggnn", "m" + std::to_string(i),
                              random_pdf(seed_rng, 8),
                              random_blob(seed_rng, 2048)));
  }
  fairms::ModelManager manager(zoo, 1.0);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(1000 + t);
      while (!stop.load(std::memory_order_acquire)) {
        const auto id = ids[rng.uniform_index(ids.size())];
        const auto record = zoo.fetch_cached(id);
        if (record == nullptr || record->parameters->empty()) {
          failures.fetch_add(1);
        }
        // Every record stays rankable throughout: a row lost or duplicated
        // by an index swap racing attach/reindex changes the count.
        const auto ranked = manager.rank("braggnn", random_pdf(rng, 8));
        if (ranked.size() != kModels) failures.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }
  // Two mutators over the SAME id set: concurrent attach/reindex of one
  // record must keep revision allocation and store commit in the same
  // order, or the record's stored revision falls behind the cache floor
  // and it silently becomes uncacheable (the post-drive hit-count check
  // below would see a cache that never warms).
  for (int m = 0; m < 2; ++m) {
    threads.emplace_back([&, m] {
      util::Rng rng(3000 + m);
      while (!stop.load(std::memory_order_acquire)) {
        const auto id = ids[rng.uniform_index(ids.size())];
        if (rng.uniform() < 0.5) {
          if (!zoo.attach_parameters(id, random_blob(rng, 2048))) {
            failures.fetch_add(1);
          }
        } else {
          if (!zoo.reindex(id, random_pdf(rng, 8))) failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    // Publishes go to a different architecture so the readers' rank result
    // set stays stable while the cache and the index churn under the new
    // inserts.
    util::Rng rng(4000);
    int published = 0;
    while (!stop.load(std::memory_order_acquire) && published < 16) {
      zoo.publish("cookienetae", "late_" + std::to_string(published++),
                  random_pdf(rng, 8), random_blob(rng, 2048));
    }
  });

  while (reads.load() < 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  // Post-drive coherence: every cached record matches the store.
  for (const auto id : ids) {
    const auto cached = zoo.fetch_cached(id);
    const auto reference = zoo.fetch(id);
    ASSERT_TRUE(cached != nullptr && reference.has_value()) << id;
    EXPECT_EQ(*cached->parameters, reference->parameters) << id;
    EXPECT_EQ(cached->train_pdf, reference->train_pdf) << id;
    EXPECT_EQ(cached->revision, reference->revision) << id;
  }
  const auto stats = zoo.cache().stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);

  // No record was stranded uncacheable by a revision-order inversion: with
  // the drive over, a re-fetch of any record must warm the cache again (a
  // stranded record has a floor above its stored revision, so its puts are
  // rejected forever and the repeat read misses).
  for (const auto id : ids) {
    (void)zoo.fetch_cached(id);  // populate (hit or miss)
    const auto hits_before = zoo.cache().stats().hits;
    (void)zoo.fetch_cached(id);  // must now be a pure hit
    EXPECT_EQ(zoo.cache().stats().hits, hits_before + 1) << "id " << id;
  }
}

// --- bugfix regressions -----------------------------------------------------

TEST(Regression, ReindexRejectsMalformedPdfs) {
  store::DocStore db;
  ModelZoo zoo(db);
  const auto id = zoo.publish("braggnn", "d", {0.5, 0.5}, {1});
  const auto revision_before = zoo.fetch(id)->revision;

  // The old behavior accepted all of these; a zero-mass PDF then aborted
  // every later rank/recommend inside the JSD normalizer.
  EXPECT_FALSE(zoo.reindex(id, {}));
  EXPECT_FALSE(zoo.reindex(id, {0.0, 0.0}));
  EXPECT_FALSE(zoo.reindex(id, {1.0, -0.5}));
  EXPECT_FALSE(zoo.reindex(id, {1.0, std::nan("")}));
  EXPECT_FALSE(
      zoo.reindex(id, {1.0, std::numeric_limits<double>::infinity()}));

  const auto record = zoo.fetch(id);
  EXPECT_EQ(record->train_pdf, (std::vector<double>{0.5, 0.5}));
  EXPECT_EQ(record->revision, revision_before);  // nothing changed

  fairms::ModelManager manager(zoo, 1.0);
  const auto pick = manager.recommend("braggnn", std::vector<double>{1.0, 1.0});
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->model_id, id);
}

TEST(Regression, RankSkipsMalformedStoredPdfInsteadOfAborting) {
  store::DocStore db;
  store::DocId bad = 0;
  store::DocId good = 0;
  {
    ModelZoo writer(db);
    bad = writer.publish("braggnn", "bad", {0.5, 0.5}, {1});
    good = writer.publish("braggnn", "good", {0.4, 0.6}, {2});
  }
  // Corrupt the stored PDF *behind* the validation gate, and add a legacy
  // record written before revisions and param_bytes existed — the way a
  // snapshot restored from an older build would present both.
  store::Collection& collection = db.collection("model_zoo");
  store::Array zero_mass;
  zero_mass.emplace_back(0.0);
  zero_mass.emplace_back(0.0);
  ASSERT_TRUE(collection.update_field(bad, "train_pdf",
                                      store::Value(std::move(zero_mass))));
  store::Array legacy_pdf;
  legacy_pdf.emplace_back(0.45);
  legacy_pdf.emplace_back(0.55);
  store::Object legacy;
  legacy["architecture"] = store::Value(std::string("braggnn"));
  legacy["dataset_id"] = store::Value(std::string("legacy"));
  legacy["train_pdf"] = store::Value(std::move(legacy_pdf));
  legacy["parameters"] = store::Value(store::Binary{3});
  const auto legacy_id =
      collection.insert_one(store::Value(std::move(legacy)));

  // A restored store is served by a new zoo: construction rebuilds the rank
  // index, skipping (and logging) the bad record and shelving the legacy
  // one as weight-bearing.
  ModelZoo zoo(db);
  fairms::ModelManager manager(zoo, 1.0);
  // Previously: FAIRDMS_CHECK abort inside jsd normalized(). Now: the bad
  // record is skipped, the good one still serves.
  for (int call = 0; call < 2; ++call) {
    const auto ranked = manager.rank("braggnn", std::vector<double>{0.4, 0.6});
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].model_id, good);
    EXPECT_EQ(ranked[1].model_id, legacy_id);
    const auto pick =
        manager.recommend("braggnn", std::vector<double>{0.4, 0.6});
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(pick->model_id, good);
  }
  EXPECT_EQ(zoo.fetch(legacy_id)->revision, 0u);
  EXPECT_GE(zoo.revision(), zoo.fetch(good)->revision);

  // Re-indexing the bad record with a valid PDF makes it rankable again; it
  // ties with `good` at distance 0 and wins the tie on id.
  ASSERT_TRUE(zoo.reindex(bad, {0.4, 0.6}));
  const auto ranked = manager.rank("braggnn", std::vector<double>{0.4, 0.6});
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].model_id, bad);
  EXPECT_EQ(ranked[1].model_id, good);
}

TEST(Regression, RankSurvivesMalformedInputPdf) {
  // Client-reachable: an empty RecommendRequest batch produces an all-zero
  // cluster PDF. That must answer "no candidates", not abort the serving
  // worker.
  store::DocStore db;
  ModelZoo zoo(db);
  zoo.publish("braggnn", "d", {0.5, 0.5}, {1});
  fairms::ModelManager manager(zoo, 1.0);
  EXPECT_TRUE(manager.rank("braggnn", std::vector<double>{0.0, 0.0}).empty());
  EXPECT_FALSE(manager.recommend("braggnn", std::vector<double>{0.0, 0.0})
                   .has_value());
  EXPECT_TRUE(manager.rank("braggnn", std::vector<double>{}).empty());
  // A valid query still ranks.
  EXPECT_EQ(manager.rank("braggnn", std::vector<double>{0.5, 0.5}).size(),
            1u);
}

TEST(Regression, AttachParametersRejectsEmptyBlob) {
  store::DocStore db;
  ModelZoo zoo(db);
  const auto id = zoo.publish("braggnn", "d", {0.5, 0.5}, {1, 2, 3});
  const auto revision_before = zoo.fetch(id)->revision;

  // Silently accepting {} used to demote a rankable record to weightless.
  EXPECT_FALSE(zoo.attach_parameters(id, {}));
  const auto record = zoo.fetch(id);
  EXPECT_EQ(record->parameters, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(record->revision, revision_before);

  fairms::ModelManager manager(zoo, 1.0);
  EXPECT_FALSE(
      manager.rank("braggnn", std::vector<double>{0.5, 0.5}).empty());

  // Metadata-first records still complete the normal way.
  const auto pending = zoo.publish("braggnn", "pending", {0.5, 0.5}, {});
  EXPECT_FALSE(zoo.attach_parameters(pending, {}));  // still not a detach
  EXPECT_TRUE(zoo.attach_parameters(pending, {9}));
  EXPECT_EQ(manager.rank("braggnn", std::vector<double>{0.5, 0.5}).size(),
            2u);
}

TEST(Regression, ModelsOfIsOneIndexLookupPlusOneBatchedRead) {
  store::DocStore db = counting_db();
  ModelZoo zoo(db);
  util::Rng rng(88);
  constexpr std::size_t kModels = 12;
  for (std::size_t i = 0; i < kModels; ++i) {
    zoo.publish("braggnn", "m" + std::to_string(i), random_pdf(rng, 4),
                random_blob(rng, 256));
  }
  zoo.publish("cookienetae", "other", random_pdf(rng, 4), {1});

  // CountingLink-style pin: exactly two round trips (find_eq + find_many)
  // regardless of how many models the architecture holds — this used to be
  // 1 + N requests with N per-id lock acquisitions.
  const auto before = db.link().requests();
  const auto records = zoo.models_of("braggnn");
  EXPECT_EQ(db.link().requests() - before, 2u);
  ASSERT_EQ(records.size(), kModels);
  for (const auto& r : records) {
    EXPECT_EQ(r.architecture, "braggnn");
    EXPECT_EQ(r.parameters.size(), 256u);
  }
}

}  // namespace
}  // namespace fairdms
