// Sharded-collection semantics: 1-shard vs N-shard parity under randomized
// op sequences (every query result and every charged byte must agree),
// pinned duplicate-id / missing-id behavior, the ascending-id ordering
// guarantee, shard-count plumbing through DocStore, and persistence across
// different shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
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
using store::RemoteLink;
using store::RemoteLinkConfig;
using store::Value;

/// Counts requests/bytes without sleeping (latency 0 skips the wire model
/// but still accounts), so tests can compare charge accounting exactly.
RemoteLink accounting_link() {
  return RemoteLink(RemoteLinkConfig{.latency_seconds = 0.0,
                                     .bandwidth_bytes_per_s = 1e12});
}

Value random_doc(util::Rng& rng) {
  Object doc;
  doc["cluster"] = Value(static_cast<std::int64_t>(rng.uniform_index(8)));
  doc["tag"] = Value(static_cast<std::int64_t>(rng.uniform_index(5)));
  Binary blob(rng.uniform_index(48));
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  doc["blob"] = Value(std::move(blob));
  return Value(std::move(doc));
}

void expect_same_docs(const std::optional<Value>& a,
                      const std::optional<Value>& b, std::size_t op) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
  if (a.has_value()) {
    EXPECT_EQ(a->compare(*b), 0) << "op " << op;
  }
}

/// Drives identical randomized op sequences against a 1-shard and an
/// n-shard collection; every query result and both links' byte accounting
/// must agree at every step.
void run_parity(std::size_t n_shards, std::uint64_t seed) {
  const RemoteLink link_a = accounting_link();
  const RemoteLink link_b = accounting_link();
  Collection a("parity", &link_a, 1);
  Collection b("parity", &link_b, n_shards);
  ASSERT_EQ(a.shard_count(), 1u);
  ASSERT_EQ(b.shard_count(), n_shards);
  a.create_index("cluster");
  b.create_index("cluster");

  util::Rng rng(seed);
  std::vector<DocId> live;  // ids both collections currently hold
  const auto any_id = [&](util::Rng& r) -> DocId {
    // Mostly live ids, sometimes removed/never-issued ones.
    if (!live.empty() && r.uniform() < 0.85) {
      return live[r.uniform_index(live.size())];
    }
    return a.next_id() + r.uniform_index(4);
  };

  constexpr std::size_t kOps = 1000;
  for (std::size_t op = 0; op < kOps; ++op) {
    util::Rng op_rng = rng.fork(op);
    switch (op_rng.uniform_index(10)) {
      case 0: {  // insert_one
        Value doc = random_doc(op_rng);
        Value copy = doc;
        const DocId ia = a.insert_one(std::move(doc));
        const DocId ib = b.insert_one(std::move(copy));
        ASSERT_EQ(ia, ib) << "op " << op;
        live.push_back(ia);
        break;
      }
      case 1: {  // insert_many
        const std::size_t n = 1 + op_rng.uniform_index(6);
        std::vector<Value> docs;
        std::vector<Value> copies;
        for (std::size_t i = 0; i < n; ++i) {
          docs.push_back(random_doc(op_rng));
          copies.push_back(docs.back());
        }
        const auto ia = a.insert_many(std::move(docs));
        const auto ib = b.insert_many(std::move(copies));
        ASSERT_EQ(ia, ib) << "op " << op;
        live.insert(live.end(), ia.begin(), ia.end());
        break;
      }
      case 2: {  // update_field (sometimes on a missing id)
        const DocId id = any_id(op_rng);
        Value v(static_cast<std::int64_t>(op_rng.uniform_index(8)));
        EXPECT_EQ(a.update_field(id, "cluster", v),
                  b.update_field(id, "cluster", v))
            << "op " << op;
        break;
      }
      case 3: {  // update_fields, multi-field
        const DocId id = any_id(op_rng);
        Object fields;
        fields["tag"] = Value(static_cast<std::int64_t>(
            op_rng.uniform_index(5)));
        Binary blob(op_rng.uniform_index(32));
        for (auto& byte : blob) {
          byte = static_cast<std::uint8_t>(op_rng.uniform_index(256));
        }
        fields["blob"] = Value(std::move(blob));
        Object copy = fields;
        EXPECT_EQ(a.update_fields(id, std::move(fields)),
                  b.update_fields(id, std::move(copy)))
            << "op " << op;
        break;
      }
      case 4: {  // update_many with duplicate and missing ids
        std::vector<std::pair<DocId, Object>> updates;
        const std::size_t n = 1 + op_rng.uniform_index(5);
        for (std::size_t i = 0; i < n; ++i) {
          Object fields;
          fields["tag"] = Value(static_cast<std::int64_t>(
              op_rng.uniform_index(5)));
          updates.emplace_back(any_id(op_rng), std::move(fields));
        }
        auto copy = updates;
        EXPECT_EQ(a.update_many(std::move(updates)),
                  b.update_many(std::move(copy)))
            << "op " << op;
        break;
      }
      case 5: {  // remove_one
        const DocId id = any_id(op_rng);
        EXPECT_EQ(a.remove_one(id), b.remove_one(id)) << "op " << op;
        std::erase(live, id);
        break;
      }
      case 6: {  // find_by_id
        const DocId id = any_id(op_rng);
        expect_same_docs(a.find_by_id(id), b.find_by_id(id), op);
        break;
      }
      case 7: {  // find_many with duplicates/missing, sometimes projected
        std::vector<DocId> ids;
        const std::size_t n = 1 + op_rng.uniform_index(8);
        for (std::size_t i = 0; i < n; ++i) ids.push_back(any_id(op_rng));
        if (n > 1) ids.push_back(ids.front());  // guaranteed duplicate
        std::vector<std::string> fields;
        if (op_rng.uniform() < 0.5) fields = {"cluster", "blob"};
        const auto ra = a.find_many(ids, fields);
        const auto rb = b.find_many(ids, fields);
        ASSERT_EQ(ra.size(), rb.size()) << "op " << op;
        for (std::size_t i = 0; i < ra.size(); ++i) {
          expect_same_docs(ra[i], rb[i], op);
        }
        break;
      }
      case 8: {  // find_eq: indexed field and scanned field
        const Value c(static_cast<std::int64_t>(op_rng.uniform_index(8)));
        EXPECT_EQ(a.find_eq("cluster", c), b.find_eq("cluster", c))
            << "op " << op;
        const Value t(static_cast<std::int64_t>(op_rng.uniform_index(5)));
        EXPECT_EQ(a.find_eq("tag", t), b.find_eq("tag", t)) << "op " << op;
        break;
      }
      case 9: {  // bulk introspection
        EXPECT_EQ(a.all_ids(), b.all_ids()) << "op " << op;
        EXPECT_EQ(a.size(), b.size()) << "op " << op;
        break;
      }
    }
    ASSERT_EQ(a.approx_bytes(), b.approx_bytes()) << "op " << op;
    ASSERT_EQ(a.next_id(), b.next_id()) << "op " << op;
    ASSERT_EQ(link_a.bytes_moved(), link_b.bytes_moved()) << "op " << op;
    ASSERT_EQ(link_a.requests(), link_b.requests()) << "op " << op;
  }
  EXPECT_GT(a.size(), 0u);
  EXPECT_GT(link_a.bytes_moved(), 0u);
}

TEST(ShardParity, TwoShardsMatchOneShard) { run_parity(2, 11); }
TEST(ShardParity, ThreeShardsMatchOneShard) { run_parity(3, 22); }
TEST(ShardParity, EightShardsMatchOneShard) { run_parity(8, 33); }

// --- pinned duplicate-id / missing-id semantics -----------------------------

TEST(ShardSemantics, FindManyDuplicatesResolvedAndChargedIndependently) {
  const RemoteLink link = accounting_link();
  Collection col("dups", &link, 4);
  util::Rng rng(7);
  const DocId a = col.insert_one(random_doc(rng));
  const DocId b = col.insert_one(random_doc(rng));
  const std::size_t a_bytes = col.find_by_id(a)->encoded_size();
  const std::size_t b_bytes = col.find_by_id(b)->encoded_size();
  const DocId missing = col.next_id() + 3;

  const std::uint64_t before = link.bytes_moved();
  const std::vector<DocId> ids = {a, a, missing, b};
  const auto out = col.find_many(ids);
  ASSERT_EQ(out.size(), 4u);
  ASSERT_TRUE(out[0].has_value());
  ASSERT_TRUE(out[1].has_value());
  EXPECT_EQ(out[0]->compare(*out[1]), 0);  // duplicate: same document twice
  EXPECT_FALSE(out[2].has_value());        // missing: nullopt, no payload
  ASSERT_TRUE(out[3].has_value());
  // One envelope; the duplicate occurrence is charged again, the missing
  // id costs nothing beyond its share of the envelope.
  EXPECT_EQ(link.bytes_moved() - before, 64 + 2 * a_bytes + b_bytes);
}

TEST(ShardSemantics, UpdateFieldsOnMissingIdChargesValueBytes) {
  const RemoteLink link = accounting_link();
  Collection col("missing", &link, 4);
  util::Rng rng(8);
  col.insert_one(random_doc(rng));
  const std::size_t bytes_before = col.approx_bytes();
  const DocId missing = col.next_id() + 1;

  const Value v(std::int64_t{9});
  const std::uint64_t before = link.bytes_moved();
  EXPECT_FALSE(col.update_field(missing, "cluster", v));
  // The value travels to the server whether or not the document exists:
  // envelope + per-field overhead + key + encoded value.
  EXPECT_EQ(link.bytes_moved() - before,
            64 + 8 + std::string("cluster").size() + v.encoded_size());
  EXPECT_EQ(col.approx_bytes(), bytes_before);  // nothing stored changed

  // update_many counts only found ids but charges all value bytes.
  std::vector<std::pair<DocId, Object>> updates;
  Object fields;
  fields["tag"] = Value(std::int64_t{1});
  updates.emplace_back(missing, fields);
  updates.emplace_back(missing + 1, std::move(fields));
  EXPECT_EQ(col.update_many(std::move(updates)), 0u);
}

TEST(ShardSemantics, QueriesReturnAscendingIdsAfterUpdates) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    Collection col("ordered", nullptr, shards);
    col.create_index("v");
    std::vector<DocId> ids;
    for (int i = 0; i < 12; ++i) {
      Object doc;
      doc["v"] = Value(std::int64_t{0});
      ids.push_back(col.insert_one(Value(std::move(doc))));
    }
    // Bounce a middle document's value so a naive per-value index list
    // would hold it out of insertion order.
    col.update_field(ids[3], "v", Value(std::int64_t{1}));
    col.update_field(ids[3], "v", Value(std::int64_t{0}));

    const auto eq = col.find_eq("v", Value(std::int64_t{0}));
    ASSERT_EQ(eq.size(), ids.size()) << shards << " shards";
    EXPECT_TRUE(std::is_sorted(eq.begin(), eq.end())) << shards << " shards";
    const auto all = col.all_ids();
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end())) << shards << " shards";
    EXPECT_EQ(all, eq) << shards << " shards";
  }
}

// --- shard-count plumbing ---------------------------------------------------

TEST(ShardPlumbing, DocStoreDefaultAndExplicitShardCounts) {
  store::DocStore db(store::DocStoreConfig{.shards = 4});
  EXPECT_EQ(db.default_shards(), 4u);
  EXPECT_EQ(db.collection("defaulted").shard_count(), 4u);
  EXPECT_EQ(db.collection("explicit", 2).shard_count(), 2u);
  // Re-getting with a different count returns the existing collection.
  EXPECT_EQ(db.collection("explicit", 8).shard_count(), 2u);
  EXPECT_EQ(&db.collection("explicit", 8), &db.collection("explicit"));

  store::DocStore plain;
  EXPECT_EQ(plain.default_shards(), 1u);
  EXPECT_EQ(plain.collection("c").shard_count(), 1u);
}

TEST(ShardPlumbing, InsertManyIdsAreContiguousPerBatch) {
  Collection col("batch", nullptr, 8);
  std::vector<Value> docs;
  util::Rng rng(9);
  for (int i = 0; i < 20; ++i) docs.push_back(random_doc(rng));
  const auto ids = col.insert_many(std::move(docs));
  ASSERT_EQ(ids.size(), 20u);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], ids[i - 1] + 1);
  }
}

TEST(ShardPlumbing, PersistRoundTripsAcrossShardCounts) {
  const std::string dir = ::testing::TempDir() + "/fairdms_shard_persist";
  store::DocStore src(store::DocStoreConfig{.shards = 8});
  auto& col = src.collection("samples");
  col.create_index("cluster");
  util::Rng rng(10);
  for (int i = 0; i < 64; ++i) col.insert_one(random_doc(rng));
  col.remove_one(5);
  ASSERT_TRUE(store::try_save_store(src, dir).ok());

  // Load into stores with different shard counts; contents must agree.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    store::DocStore dst(store::DocStoreConfig{.shards = shards});
    ASSERT_TRUE(store::try_load_store(dst, dir).ok());
    auto& rcol = dst.collection("samples");
    EXPECT_EQ(rcol.shard_count(), shards);
    EXPECT_EQ(rcol.size(), col.size());
    EXPECT_EQ(rcol.next_id(), col.next_id());
    EXPECT_EQ(rcol.approx_bytes(), col.approx_bytes());
    EXPECT_EQ(rcol.all_ids(), col.all_ids());
    EXPECT_EQ(rcol.index_fields(), col.index_fields());
    for (std::int64_t c = 0; c < 8; ++c) {
      EXPECT_EQ(rcol.find_eq("cluster", Value(c)),
                col.find_eq("cluster", Value(c)));
    }
    for (const DocId id : col.all_ids()) {
      const auto orig = col.find_by_id(id);
      const auto back = rcol.find_by_id(id);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(orig->compare(*back), 0);
    }
  }
}

}  // namespace
}  // namespace fairdms
