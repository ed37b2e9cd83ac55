// Deterministic multi-thread stress suite for the sharded document store:
// N writers x M readers over one collection, seeded per-thread op
// schedules, invariant checks on approx_bytes / doc counts / per-document
// atomicity, and mid-stream find_many consistency. Carries the `service`
// ctest label so it runs under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "store/docstore.hpp"
#include "store/persist.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using store::Binary;
using store::Collection;
using store::DocId;
using store::Object;
using store::Value;

/// approx_bytes must always equal the sum of the stored documents' encoded
/// sizes (the accounting invariant every write op maintains).
void expect_bytes_consistent(const Collection& col) {
  std::size_t recomputed = 0;
  col.scan([&](DocId, const Value& doc) { recomputed += doc.encoded_size(); });
  EXPECT_EQ(col.approx_bytes(), recomputed);
}

Value fixed_size_doc(std::int64_t key, std::int64_t payload) {
  Object doc;
  doc["k"] = Value(key);
  doc["payload"] = Value(payload);
  return Value(std::move(doc));
}

TEST(StoreConcurrency, ParallelInsertersProduceContiguousConsistentStore) {
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kPerWriter = 400;
  Collection col("ingest", nullptr, 8);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      util::Rng rng(1000 + w);
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        col.insert_one(fixed_size_doc(
            static_cast<std::int64_t>(rng.uniform_index(4)),
            static_cast<std::int64_t>(rng.uniform_index(1 << 20))));
      }
    });
  }
  for (auto& t : writers) t.join();

  constexpr std::size_t kTotal = kWriters * kPerWriter;
  EXPECT_EQ(col.size(), kTotal);
  EXPECT_EQ(col.next_id(), kTotal + 1);
  const auto ids = col.all_ids();
  ASSERT_EQ(ids.size(), kTotal);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1);  // contiguous ascending block, no id lost
  }
  expect_bytes_consistent(col);
}

TEST(StoreConcurrency, ReadersSeeAtomicMultiFieldUpdates) {
  // Writers keep the invariant b == 2a inside every update_fields call; a
  // reader observing a torn document (mixed generations of a and b) means
  // per-document atomicity broke.
  constexpr std::size_t kDocs = 256;
  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kReaders = 2;
  constexpr std::size_t kWritesPerWriter = 1200;
  constexpr std::size_t kReadsPerReader = 600;
  Collection col("atomic", nullptr, 8);
  std::vector<DocId> ids;
  for (std::size_t i = 0; i < kDocs; ++i) {
    Object doc;
    doc["a"] = Value(static_cast<std::int64_t>(i));
    doc["b"] = Value(static_cast<std::int64_t>(2 * i));
    ids.push_back(col.insert_one(Value(std::move(doc))));
  }

  std::atomic<std::size_t> torn{0};
  const auto check_doc = [&](const Value& doc) {
    if (doc.at("b").as_int() != 2 * doc.at("a").as_int()) {
      torn.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(2000 + w);
      for (std::size_t i = 0; i < kWritesPerWriter; ++i) {
        const DocId id = ids[rng.uniform_index(ids.size())];
        const auto v = static_cast<std::int64_t>(rng.uniform_index(1 << 16));
        Object fields;
        fields["a"] = Value(v);
        fields["b"] = Value(2 * v);
        EXPECT_TRUE(col.update_fields(id, std::move(fields)));
      }
    });
  }
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      util::Rng rng(3000 + r);
      for (std::size_t i = 0; i < kReadsPerReader; ++i) {
        // Mid-stream find_many: every element of the batch must be an
        // internally consistent document (whole-batch atomicity across
        // shards is explicitly not promised).
        std::vector<DocId> batch;
        for (std::size_t j = 0; j < 16; ++j) {
          batch.push_back(ids[rng.uniform_index(ids.size())]);
        }
        const auto docs = col.find_many(batch);
        for (const auto& doc : docs) {
          ASSERT_TRUE(doc.has_value());
          check_doc(*doc);
        }
        const auto one = col.find_by_id(ids[rng.uniform_index(ids.size())]);
        ASSERT_TRUE(one.has_value());
        check_doc(*one);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(col.size(), kDocs);
  expect_bytes_consistent(col);
}

TEST(StoreConcurrency, IndexedQueriesStayConsistentDuringIngest) {
  // Insert-only workload: any id find_eq returns must exist and match the
  // queried value, and results must be ascending. Readers race the index
  // maintenance inside each shard.
  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kPerWriter = 500;
  Collection col("indexed", nullptr, 8);
  col.create_index("k");

  std::atomic<bool> done{false};
  std::atomic<std::size_t> violations{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(4000 + r);
      while (!done.load(std::memory_order_acquire)) {
        const auto key = static_cast<std::int64_t>(rng.uniform_index(4));
        const auto hits = col.find_eq("k", Value(key));
        if (!std::is_sorted(hits.begin(), hits.end())) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        for (const DocId id : hits) {
          const auto doc = col.find_by_id(id);
          if (!doc.has_value() || doc->at("k").as_int() != key) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Exercised concurrently; content is racy by design, order is not.
        const auto snapshot_ids = col.all_ids();
        if (!std::is_sorted(snapshot_ids.begin(), snapshot_ids.end())) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      util::Rng rng(5000 + w);
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        if (rng.uniform() < 0.2) {
          std::vector<Value> batch;
          for (std::size_t j = 0; j < 4; ++j) {
            batch.push_back(fixed_size_doc(
                static_cast<std::int64_t>(rng.uniform_index(4)),
                static_cast<std::int64_t>(i)));
          }
          col.insert_many(std::move(batch));
        } else {
          col.insert_one(fixed_size_doc(
              static_cast<std::int64_t>(rng.uniform_index(4)),
              static_cast<std::int64_t>(i)));
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0u);
  std::size_t indexed = 0;
  for (std::int64_t key = 0; key < 4; ++key) {
    indexed += col.find_eq("k", Value(key)).size();
  }
  EXPECT_EQ(indexed, col.size());  // every document is indexed exactly once
  expect_bytes_consistent(col);
}

TEST(StoreConcurrency, BatchedFanoutRacesSingleDocWrites) {
  // Batched ops large enough to fan out onto the thread pool (>= the
  // internal threshold) race per-document writers; per-document results
  // must still be consistent.
  constexpr std::size_t kBatch = 600;  // above the fan-out threshold
  Collection col("fanout", nullptr, 4);
  std::vector<Value> seed_docs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    seed_docs.push_back(fixed_size_doc(0, 0));
  }
  const auto ids = col.insert_many(std::move(seed_docs));

  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // batched updater (fans out per shard)
    for (int round = 0; round < 6; ++round) {
      std::vector<std::pair<DocId, Object>> updates;
      for (const DocId id : ids) {
        Object fields;
        fields["payload"] = Value(std::int64_t{round});
        updates.emplace_back(id, std::move(fields));
      }
      EXPECT_EQ(col.update_many(std::move(updates)), ids.size());
    }
  });
  threads.emplace_back([&] {  // batched reader (fans out per shard)
    for (int round = 0; round < 12; ++round) {
      const auto docs = col.find_many(ids);
      for (const auto& doc : docs) {
        ASSERT_TRUE(doc.has_value());
        const auto v = doc->at("payload").as_int();
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 6);
      }
    }
  });
  threads.emplace_back([&] {  // single-doc writer racing the batches
    util::Rng rng(7000);
    for (std::size_t i = 0; i < 300; ++i) {
      col.update_field(ids[rng.uniform_index(ids.size())], "k",
                       Value(std::int64_t{1}));
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(col.size(), kBatch);
  const auto final_docs = col.find_many(ids);
  for (const auto& doc : final_docs) {
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->at("payload").as_int(), 5);
  }
  expect_bytes_consistent(col);
}

TEST(StoreConcurrency, SaveStoreDuringIngestProducesLoadableSnapshot) {
  // try_save_store on a live collection is a fuzzy snapshot, but it must
  // always be internally consistent: the captured doc count frames the
  // file and next_id bounds every captured id, so loading never trips the
  // restore checks regardless of how the scan raced the writers.
  const std::string dir =
      ::testing::TempDir() + "/fairdms_concurrent_save";
  store::DocStore db(store::DocStoreConfig{.shards = 8});
  auto& col = db.collection("live");
  col.create_index("k");
  col.insert_one(fixed_size_doc(0, 0));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    util::Rng rng(9000);
    while (!stop.load(std::memory_order_acquire)) {
      col.insert_one(fixed_size_doc(
          static_cast<std::int64_t>(rng.uniform_index(4)), 1));
    }
  });
  for (int round = 0; round < 5; ++round) {
    store::DocStore loaded;
    const auto saved = store::try_save_store(db, dir);
    const auto r = saved.ok() ? store::try_load_store(loaded, dir) : saved;
    EXPECT_TRUE(r.ok()) << r.error;  // restore reports any inconsistency
    if (!r.ok()) break;  // still join the writer below
    auto& lcol = loaded.collection("live");
    EXPECT_GE(lcol.size(), 1u);
    EXPECT_LE(lcol.next_id(), col.next_id());
    const auto ids = lcol.all_ids();
    EXPECT_LT(ids.back(), lcol.next_id());
    expect_bytes_consistent(lcol);
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(StoreConcurrency, MixedScheduleMatchesSerialReplay) {
  // Each thread runs a deterministic schedule over documents it owns
  // (insert / update / remove), so the final multiset of document payloads
  // and the total byte accounting are interleaving-independent. Replaying
  // the same schedules serially into a 1-shard collection must yield the
  // same aggregate state (ids differ; contents must not).
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 500;

  const auto run_schedule = [](Collection& col, std::size_t thread_id) {
    util::Rng rng(8000 + thread_id);
    std::vector<DocId> mine;
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      util::Rng op_rng = rng.fork(i);
      const double pick = op_rng.uniform();
      if (mine.empty() || pick < 0.5) {
        Object doc;
        doc["owner"] = Value(static_cast<std::int64_t>(thread_id));
        Binary blob(op_rng.uniform_index(40));
        for (auto& b : blob) {
          b = static_cast<std::uint8_t>(op_rng.uniform_index(256));
        }
        doc["payload"] = Value(std::move(blob));
        mine.push_back(col.insert_one(Value(std::move(doc))));
      } else if (pick < 0.85) {
        const DocId id = mine[op_rng.uniform_index(mine.size())];
        Binary blob(op_rng.uniform_index(40));
        for (auto& b : blob) {
          b = static_cast<std::uint8_t>(op_rng.uniform_index(256));
        }
        EXPECT_TRUE(col.update_field(id, "payload", Value(std::move(blob))));
      } else {
        const std::size_t at = op_rng.uniform_index(mine.size());
        EXPECT_TRUE(col.remove_one(mine[at]));
        mine.erase(mine.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
  };

  // Documents' contents are id-independent (int64s and binaries encode at
  // fixed width per value), so aggregate payload bytes are deterministic.
  Collection concurrent("mixed", nullptr, 8);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { run_schedule(concurrent, t); });
    }
    for (auto& t : threads) t.join();
  }
  Collection serial("mixed-serial", nullptr, 1);
  for (std::size_t t = 0; t < kThreads; ++t) run_schedule(serial, t);

  EXPECT_EQ(concurrent.size(), serial.size());
  EXPECT_EQ(concurrent.approx_bytes(), serial.approx_bytes());
  expect_bytes_consistent(concurrent);

  // The multiset of (owner, payload) documents must match exactly.
  const auto fingerprint = [](const Collection& col) {
    std::vector<std::string> prints;
    col.scan([&](DocId, const Value& doc) {
      std::string p = std::to_string(doc.at("owner").as_int());
      p.push_back(':');
      const Binary& blob = doc.at("payload").as_binary();
      p.append(blob.begin(), blob.end());
      prints.push_back(std::move(p));
    });
    std::sort(prints.begin(), prints.end());
    return prints;
  };
  EXPECT_EQ(fingerprint(concurrent), fingerprint(serial));
}

}  // namespace
}  // namespace fairdms
