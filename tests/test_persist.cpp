// Snapshot persistence tests: store round trips, index rebuild, zoo
// survival across a simulated service restart.
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "fairms/zoo.hpp"
#include "nn/linear.hpp"
#include "nn/serialize.hpp"
#include "store/persist.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using store::Object;
using store::Value;

TEST(Persist, StoreRoundTripPreservesDocumentsAndIds) {
  const std::string dir = ::testing::TempDir() + "/fairdms_snap_roundtrip";
  store::DocStore original;
  auto& col = original.collection("samples");
  col.create_index("cluster");
  std::vector<store::DocId> ids;
  for (int i = 0; i < 50; ++i) {
    Object doc;
    doc["cluster"] = Value(static_cast<std::int64_t>(i % 5));
    doc["payload"] = Value(store::Binary(static_cast<std::size_t>(i), 0xAB));
    ids.push_back(col.insert_one(Value(std::move(doc))));
  }
  // A second collection, un-indexed.
  original.collection("notes").insert_one(Value(Object{
      {"text", Value("hello")}}));
  ASSERT_TRUE(store::try_save_store(original, dir).ok());

  store::DocStore restored;
  ASSERT_TRUE(store::try_load_store(restored, dir).ok());
  auto& rcol = restored.collection("samples");
  EXPECT_EQ(rcol.size(), 50u);
  EXPECT_EQ(rcol.index_fields(), std::vector<std::string>{"cluster"});
  // Ids and contents survive.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto doc = rcol.find_by_id(ids[i]);
    ASSERT_TRUE(doc.has_value()) << "id " << ids[i];
    EXPECT_EQ(doc->at("cluster").as_int(),
              static_cast<std::int64_t>(i % 5));
    EXPECT_EQ(doc->at("payload").as_binary().size(), i);
  }
  // Rebuilt index answers queries identically.
  for (std::int64_t c = 0; c < 5; ++c) {
    EXPECT_EQ(rcol.find_eq("cluster", Value(c)).size(), 10u);
  }
  // Id counter continues after the last persisted id.
  const auto new_id = rcol.insert_one(Value(Object{}));
  EXPECT_GT(new_id, ids.back());
  // Other collections restored too.
  EXPECT_EQ(restored.collection("notes").size(), 1u);
}

TEST(Persist, SnapshotCollectionsListsManifest) {
  const std::string dir = ::testing::TempDir() + "/fairdms_snap_manifest";
  store::DocStore db;
  db.collection("alpha").insert_one(Value(Object{}));
  db.collection("beta").insert_one(Value(Object{}));
  ASSERT_TRUE(store::try_save_store(db, dir).ok());
  std::vector<std::string> names;
  ASSERT_TRUE(store::try_snapshot_collections(dir, names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "beta"}));
}

TEST(Persist, ModelZooSurvivesRestart) {
  const std::string dir = ::testing::TempDir() + "/fairdms_snap_zoo";
  util::Rng rng(1);
  nn::Sequential net;
  net.emplace<nn::Linear>(4, 2, rng);
  store::DocId id;
  {
    store::DocStore db;
    fairms::ModelZoo zoo(db);
    id = zoo.publish("braggnn", "scan_7", {0.25, 0.75},
                     nn::save_parameters(net));
    ASSERT_TRUE(store::try_save_store(db, dir).ok());
  }
  // "Restart": fresh process state, reload.
  store::DocStore db;
  ASSERT_TRUE(store::try_load_store(db, dir).ok());
  fairms::ModelZoo zoo(db);
  EXPECT_EQ(zoo.size(), 1u);
  const auto record = zoo.fetch(id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->dataset_id, "scan_7");
  // Parameters load back into a matching architecture.
  nn::Sequential restored;
  restored.emplace<nn::Linear>(4, 2, rng);
  nn::load_parameters(restored, record->parameters);
  EXPECT_EQ((*restored.params()[0])[0], (*net.params()[0])[0]);
  // And the manager still ranks it.
  fairms::ModelManager manager(zoo, 1.0);
  EXPECT_TRUE(
      manager.recommend("braggnn", std::vector<double>{0.3, 0.7}).has_value());
}

TEST(Persist, MissingManifestIsAnError) {
  std::vector<std::string> names;
  const auto r =
      store::try_snapshot_collections("/nonexistent/fairdms_dir", names);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("manifest"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace fairdms
