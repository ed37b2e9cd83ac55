// fairMS tests: JSD identities and bounds (property suite), the Pinsker
// lower bound recommend prunes by, model Zoo CRUD, manager ranking order,
// distance-threshold fallback, re-indexing, and recommend's parity with
// rank() on fleet-sized shelves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "fairms/jsd.hpp"
#include "fairms/zoo.hpp"
#include "nn/linear.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace fairdms {
namespace {

using fairms::jensen_shannon_divergence;

TEST(Jsd, IdenticalDistributionsAreZero) {
  const std::vector<double> p{0.2, 0.3, 0.5};
  EXPECT_NEAR(jensen_shannon_divergence(p, p), 0.0, 1e-12);
}

TEST(Jsd, DisjointSupportIsOne) {
  const std::vector<double> p{1.0, 0.0};
  const std::vector<double> q{0.0, 1.0};
  EXPECT_NEAR(jensen_shannon_divergence(p, q), 1.0, 1e-12);
}

TEST(Jsd, SymmetricAndNormalizing) {
  const std::vector<double> p{2.0, 6.0, 2.0};   // unnormalized
  const std::vector<double> q{0.5, 0.25, 0.25};
  EXPECT_NEAR(jensen_shannon_divergence(p, q),
              jensen_shannon_divergence(q, p), 1e-12);
  const std::vector<double> p_norm{0.2, 0.6, 0.2};
  EXPECT_NEAR(jensen_shannon_divergence(p, q),
              jensen_shannon_divergence(p_norm, q), 1e-12);
}

TEST(Jsd, MonotoneInDivergenceForInterpolation) {
  // Sliding q from p toward disjoint support increases JSD monotonically.
  const std::vector<double> p{0.7, 0.3, 0.0};
  const std::vector<double> far{0.0, 0.3, 0.7};
  double prev = -1.0;
  for (double t = 0.0; t <= 1.0; t += 0.25) {
    std::vector<double> q(3);
    for (std::size_t i = 0; i < 3; ++i) {
      q[i] = (1.0 - t) * p[i] + t * far[i];
    }
    const double d = jensen_shannon_divergence(p, q);
    EXPECT_GT(d, prev - 1e-12);
    prev = d;
  }
}

// Property: bounds hold for random PDFs of various widths.
class JsdBounds : public ::testing::TestWithParam<int> {};

TEST_P(JsdBounds, AlwaysInUnitInterval) {
  const auto k = static_cast<std::size_t>(GetParam());
  util::Rng rng(k * 977);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> p(k), q(k);
    for (std::size_t i = 0; i < k; ++i) {
      p[i] = rng.uniform();
      q[i] = rng.uniform();
    }
    p[rng.uniform_index(k)] += 0.5;  // ensure nonzero mass
    q[rng.uniform_index(k)] += 0.5;
    const double d = jensen_shannon_divergence(p, q);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, JsdBounds, ::testing::Values(2, 5, 15, 64));

// Property: the bound recommend prunes by, margin included, never exceeds
// the kernel's value.
std::vector<double> normalized(const std::vector<double>& p) {
  return *fairms::try_normalized(p);
}

void expect_bound_below_kernel(const std::vector<double>& p,
                               const std::vector<double>& q,
                               const std::string& what) {
  const double bound = fairms::jsd_lower_bound(p, q);
  EXPECT_GE(bound, 0.0) << what;
  EXPECT_LE(bound, fairms::jsd_normalized(p, q)) << what;
}

TEST(JsdLowerBound, NearIdenticalPairNeedsTheAbsoluteMargin) {
  // The kernel rounds below the exact Pinsker bound here (9.79e-16 against
  // 1.057e-15); only an absolute margin keeps the bound under it.
  const std::vector<double> p = {0.479969420248929, 0.520030579751071};
  const std::vector<double> q = {0.4799694585365943, 0.5200305414634058};
  const double l1 = std::abs(p[0] - q[0]) + std::abs(p[1] - q[1]);
  EXPECT_GT(l1 * l1 / (8.0 * std::numbers::ln2),
            fairms::jsd_normalized(p, q));
  expect_bound_below_kernel(p, q, "p, q");
  expect_bound_below_kernel(q, p, "q, p");
}

TEST(JsdLowerBound, ValuesAtIdenticalAndDisjointPairs) {
  // Identical PDFs bound at 0, the kernel's value; disjoint support bounds
  // at 4 / (8 ln 2) bits against the kernel's 1.
  const std::vector<double> p = {0.25, 0.75, 0.0, 0.0};
  const std::vector<double> q = {0.0, 0.0, 0.5, 0.5};
  EXPECT_EQ(fairms::jsd_lower_bound(p, p), 0.0);
  EXPECT_NEAR(fairms::jsd_lower_bound(p, q), 0.5 / std::numbers::ln2, 1e-9);
}

class JsdLowerBoundWidths : public ::testing::TestWithParam<int> {};

TEST_P(JsdLowerBoundWidths, NeverExceedsTheKernel) {
  const auto k = static_cast<std::size_t>(GetParam());
  util::Rng rng(k * 7919 + 5);
  const auto random = [&] {
    std::vector<double> p(k);
    for (double& v : p) v = rng.uniform();
    p[rng.uniform_index(k)] += 0.5;
    return p;
  };
  const auto with_zeros = [&] {
    std::vector<double> p = random();
    for (double& v : p) {
      if (rng.uniform() < 0.4) v = 0.0;
    }
    p[rng.uniform_index(k)] = 1.0;
    return p;
  };
  const auto one_hot = [&] {
    std::vector<double> p(k, 0.0);
    p[rng.uniform_index(k)] = 1.0;
    return p;
  };
  // q = p with every bin moved by a relative `scale`, renormalized.
  const auto nudged = [&](const std::vector<double>& p, double scale) {
    std::vector<double> q = p;
    for (double& v : q) v *= 1.0 + scale * (rng.uniform() - 0.5);
    return normalized(q);
  };
  for (int trial = 0; trial < 400; ++trial) {
    const std::string what = "width " + std::to_string(k) + " trial " +
                             std::to_string(trial);
    const auto p = normalized(random());
    const auto z = normalized(with_zeros());
    const auto h = normalized(one_hot());
    expect_bound_below_kernel(p, normalized(random()), what + " random");
    expect_bound_below_kernel(z, normalized(with_zeros()), what + " zeros");
    expect_bound_below_kernel(p, z, what + " random/zeros");
    expect_bound_below_kernel(h, p, what + " one-hot/random");
    expect_bound_below_kernel(h, normalized(one_hot()), what + " one-hot");
    expect_bound_below_kernel(p, p, what + " identical");
    expect_bound_below_kernel(z, z, what + " identical zeros");
    for (const double scale : {1e-4, 1e-7, 1e-10, 1e-13, 1e-15}) {
      expect_bound_below_kernel(p, nudged(p, scale), what + " near");
      expect_bound_below_kernel(z, nudged(z, scale), what + " near zeros");
    }
    if (k >= 2) {
      // Disjoint support: p on the even bins, q on the odd ones.
      std::vector<double> even(k, 0.0), odd(k, 0.0);
      for (std::size_t i = 0; i < k; ++i) {
        (i % 2 == 0 ? even : odd)[i] = rng.uniform() + 0.1;
      }
      expect_bound_below_kernel(normalized(even), normalized(odd),
                                what + " disjoint");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths1To32, JsdLowerBoundWidths,
                         ::testing::Range(1, 33));

TEST(Kl, SelfDivergenceIsZeroAndAsymmetry) {
  const std::vector<double> p{0.5, 0.5};
  const std::vector<double> q{0.9, 0.1};
  EXPECT_NEAR(fairms::kl_divergence(p, p), 0.0, 1e-12);
  EXPECT_NE(fairms::kl_divergence(p, q), fairms::kl_divergence(q, p));
}

std::vector<std::uint8_t> dummy_params(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential net;
  net.emplace<nn::Linear>(4, 2, rng);
  return nn::save_parameters(net);
}

TEST(ModelZoo, PublishFetchRoundTrip) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  const std::vector<double> pdf{0.1, 0.9};
  const auto id = zoo.publish("braggnn", "scan_5", pdf, dummy_params(1));
  EXPECT_EQ(zoo.size(), 1u);
  const auto rec = zoo.fetch(id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->architecture, "braggnn");
  EXPECT_EQ(rec->dataset_id, "scan_5");
  EXPECT_EQ(rec->train_pdf, pdf);
  EXPECT_FALSE(rec->parameters.empty());
  EXPECT_FALSE(zoo.fetch(9999).has_value());
}

TEST(ModelZoo, ModelsOfFiltersByArchitecture) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  zoo.publish("braggnn", "a", {1.0}, dummy_params(1));
  zoo.publish("cookienetae", "b", {1.0}, dummy_params(2));
  zoo.publish("braggnn", "c", {1.0}, dummy_params(3));
  EXPECT_EQ(zoo.models_of("braggnn").size(), 2u);
  EXPECT_EQ(zoo.models_of("cookienetae").size(), 1u);
  EXPECT_TRUE(zoo.models_of("tomonet").empty());
}

TEST(ModelZoo, ReindexUpdatesPdf) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  const auto id = zoo.publish("braggnn", "a", {0.5, 0.5}, dummy_params(1));
  EXPECT_TRUE(zoo.reindex(id, {0.25, 0.25, 0.5}));
  EXPECT_EQ(zoo.fetch(id)->train_pdf.size(), 3u);
  EXPECT_FALSE(zoo.reindex(12345, {1.0}));
}

TEST(ModelManager, RanksByDistanceAscending) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  const std::vector<double> input{0.8, 0.2, 0.0};
  const auto near_id =
      zoo.publish("braggnn", "near", {0.75, 0.25, 0.0}, dummy_params(1));
  const auto mid_id =
      zoo.publish("braggnn", "mid", {0.4, 0.4, 0.2}, dummy_params(2));
  const auto far_id =
      zoo.publish("braggnn", "far", {0.0, 0.1, 0.9}, dummy_params(3));

  fairms::ModelManager manager(zoo, 1.0);
  const auto ranked = manager.rank("braggnn", input);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].model_id, near_id);
  EXPECT_EQ(ranked[1].model_id, mid_id);
  EXPECT_EQ(ranked[2].model_id, far_id);
  EXPECT_LT(ranked[0].distance, ranked[1].distance);
  EXPECT_LT(ranked[1].distance, ranked[2].distance);
}

TEST(ModelManager, ThresholdDeclinesDistantModels) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  zoo.publish("braggnn", "far", {0.0, 1.0}, dummy_params(1));
  fairms::ModelManager strict(zoo, 0.05);
  EXPECT_FALSE(strict.recommend("braggnn", std::vector<double>{1.0, 0.0})
                   .has_value());
  fairms::ModelManager lax(zoo, 1.0);
  EXPECT_TRUE(lax.recommend("braggnn", std::vector<double>{1.0, 0.0})
                  .has_value());
}

TEST(ModelManager, SkipsStaleIndexWidths) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  zoo.publish("braggnn", "old_clustering", {0.5, 0.5}, dummy_params(1));
  zoo.publish("braggnn", "new_clustering", {0.3, 0.3, 0.4}, dummy_params(2));
  fairms::ModelManager manager(zoo, 1.0);
  const auto ranked =
      manager.rank("braggnn", std::vector<double>{0.2, 0.2, 0.6});
  ASSERT_EQ(ranked.size(), 1u);  // the 2-wide record is skipped
}

TEST(ModelManager, EmptyZooYieldsNoRecommendation) {
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  fairms::ModelManager manager(zoo, 0.5);
  EXPECT_FALSE(
      manager.recommend("braggnn", std::vector<double>{1.0}).has_value());
}

// --- recommend's bound-pruned scan against rank() on fleet-sized shelves --

/// A PDF as perfbench draws its fleet: u^3 + 1e-3 per bin.
std::vector<double> fleet_pdf(util::Rng& rng, std::size_t width) {
  std::vector<double> pdf(width);
  for (double& v : pdf) {
    const double u = rng.uniform();
    v = u * u * u + 1e-3;
  }
  return normalized(pdf);
}

/// A PDF as abl_zoo draws its random zoo: uniform bins plus one spike.
std::vector<double> spiked_pdf(util::Rng& rng, std::size_t width) {
  std::vector<double> pdf(width);
  for (double& v : pdf) v = rng.uniform();
  pdf[rng.uniform_index(width)] += 0.5;
  return pdf;
}

/// The bin counts of `samples` draws from `pdf`: a query batch's cluster
/// histogram, zero bins included.
std::vector<double> histogram(util::Rng& rng, const std::vector<double>& pdf,
                              std::size_t samples) {
  const auto p = normalized(pdf);
  std::vector<double> counts(p.size(), 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    double u = rng.uniform();
    std::size_t bin = 0;
    while (bin + 1 < p.size() && u >= p[bin]) u -= p[bin++];
    counts[bin] += 1.0;
  }
  return counts;
}

TEST(RecommendParity, PrunedPickIsRankFrontOnFleetShelves) {
  // Two 2000-row shelves of one zoo: perfbench's fleet (8 bins) and
  // abl_zoo's random zoo (16 bins). On each, three PDFs get a duplicate
  // whose lower id sits later in shelf order: the duplicate is published
  // (higher id, appended), then the original is reindexed to another width
  // and back, which moves its row behind the duplicate's.
  store::DocStore db;
  fairms::ModelZoo zoo(db);
  util::Rng rng(4242);
  const std::vector<std::uint8_t> blob = {1};
  constexpr std::size_t kRows = 2000;
  struct Kind {
    const char* name;
    std::size_t width;
    std::vector<double> (*draw)(util::Rng&, std::size_t);
  };
  for (const Kind& kind : {Kind{"fleet", 8, fleet_pdf},
                           Kind{"spiked", 16, spiked_pdf}}) {
    std::vector<std::vector<double>> pdfs;
    std::vector<store::DocId> ids;
    for (std::size_t i = 0; i < kRows; ++i) {
      pdfs.push_back(kind.draw(rng, kind.width));
      ids.push_back(zoo.publish("braggnn", kind.name, pdfs.back(), blob));
    }
    const std::vector<std::size_t> duplicated = {3, 700, 1500};
    for (const std::size_t d : duplicated) {
      const auto copy = zoo.publish("braggnn", "copy", pdfs[d], blob);
      ASSERT_TRUE(
          zoo.reindex(ids[d], std::vector<double>(kind.width + 1, 1.0)));
      ASSERT_TRUE(zoo.reindex(ids[d], pdfs[d]));
      const auto& order = zoo.shelf("braggnn", kind.width)->ids;
      ASSERT_GT(std::find(order.begin(), order.end(), ids[d]),
                std::find(order.begin(), order.end(), copy));
      ASSERT_LT(ids[d], copy);
    }

    struct Query {
      const char* shape;
      std::vector<double> pdf;
      store::DocId original = 0;  ///< the expected pick of a duplicate
    };
    std::vector<Query> queries;
    for (int i = 0; i < 24; ++i) {
      queries.push_back(
          {"16-sample", histogram(rng, kind.draw(rng, kind.width), 16)});
      queries.push_back(
          {"4-sample", histogram(rng, kind.draw(rng, kind.width), 4)});
    }
    for (int i = 0; i < 8; ++i) {
      queries.push_back({"stored row", pdfs[rng.uniform_index(kRows)]});
    }
    for (const std::size_t d : duplicated) {
      queries.push_back({"duplicate", pdfs[d], ids[d]});
    }

    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::vector<double>& query = queries[q].pdf;
      const std::string what = std::string(kind.name) + " query " +
                               std::to_string(q) + " (" +
                               queries[q].shape + ")";
      const auto ranked =
          fairms::ModelManager(zoo, 1.0).rank("braggnn", query);
      ASSERT_EQ(ranked.size(), kRows + duplicated.size()) << what;
      const fairms::Ranked front = ranked.front();
      std::vector<double> thresholds = {1.0, 0.05};
      if (front.distance > 0.0) {
        thresholds.push_back(front.distance);
        thresholds.push_back(std::nextafter(front.distance, 0.0));
      }
      for (const double threshold : thresholds) {
        const auto pick =
            fairms::ModelManager(zoo, threshold).recommend("braggnn", query);
        const std::string at = what + " threshold " +
                               std::to_string(threshold);
        ASSERT_EQ(pick.has_value(), front.distance <= threshold) << at;
        if (!pick.has_value()) continue;
        EXPECT_EQ(pick->model_id, front.model_id) << at;
        EXPECT_EQ(pick->distance, front.distance) << at;  // bit for bit
      }
      if (queries[q].original != 0) {
        // The copy scans first and ties at 0; the original's lower id wins.
        EXPECT_EQ(front.model_id, queries[q].original) << what;
        EXPECT_EQ(front.distance, 0.0) << what;
      }
    }
  }
}

}  // namespace
}  // namespace fairdms
