#include "fairms/jsd.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "util/check.hpp"

namespace fairdms::fairms {

namespace {

/// Total mass of `p`, or nullopt when `p` is not a valid distribution —
/// the single definition of validity that is_valid_pdf and try_normalized
/// both gate on (they must never disagree about the same record).
std::optional<double> checked_total(std::span<const double> p) noexcept {
  if (p.empty()) return std::nullopt;
  double total = 0.0;
  for (double v : p) {
    if (!std::isfinite(v) || v < 0.0) return std::nullopt;
    total += v;
  }
  if (!(total > 0.0) || !std::isfinite(total)) return std::nullopt;
  return total;
}

/// Aborting wrapper over try_normalized for the callers whose contract is
/// "a malformed distribution is a caller bug".
std::vector<double> normalized(std::span<const double> p) {
  auto out = try_normalized(p);
  FAIRDMS_CHECK(out.has_value(),
                "distribution is not normalizable (empty, negative or "
                "non-finite mass, or zero total)");
  return std::move(*out);
}

}  // namespace

double kl_divergence(std::span<const double> p, std::span<const double> q) {
  FAIRDMS_CHECK(p.size() == q.size(), "KL: size mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] <= 0.0) continue;
    FAIRDMS_CHECK(q[i] > 0.0, "KL: q does not dominate p at bin ", i);
    sum += p[i] * std::log2(p[i] / q[i]);
  }
  return sum;
}

double jensen_shannon_divergence(std::span<const double> p,
                                 std::span<const double> q) {
  const std::vector<double> pn = normalized(p);
  const std::vector<double> qn = normalized(q);
  return jsd_normalized(pn, qn);
}

bool is_valid_pdf(std::span<const double> p) noexcept {
  return checked_total(p).has_value();
}

std::optional<std::vector<double>> try_normalized(std::span<const double> p) {
  const auto total = checked_total(p);
  if (!total.has_value()) return std::nullopt;
  std::vector<double> out(p.begin(), p.end());
  for (double& v : out) v /= *total;
  return out;
}

double jsd_normalized(std::span<const double> p, std::span<const double> q) {
  FAIRDMS_CHECK(p.size() == q.size(), "JSD: size mismatch (", p.size(),
                " vs ", q.size(), ")");
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double m = 0.5 * (p[i] + q[i]);
    if (p[i] > 0.0) sum += 0.5 * p[i] * std::log2(p[i] / m);
    if (q[i] > 0.0) sum += 0.5 * q[i] * std::log2(q[i] / m);
  }
  // Clamp tiny negative rounding residue.
  return sum < 0.0 ? 0.0 : sum;
}

double jsd_lower_bound(std::span<const double> p, std::span<const double> q) {
  FAIRDMS_CHECK(p.size() == q.size(), "JSD bound: size mismatch (", p.size(),
                " vs ", q.size(), ")");
  double l1 = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) l1 += std::abs(p[i] - q[i]);
  // Pinsker in bits: KL(p || m) >= ||p - m||_1^2 / (2 ln 2), where
  // ||p - m||_1 = l1 / 2; the same holds for q, and JSD is their mean.
  const double bound = l1 * l1 / (8.0 * std::numbers::ln2);
  // The kernel's value can sit just below the exact bound: for
  // p = (0.479969420248929, 0.520030579751071) against
  // q = (0.4799694585365943, 0.5200305414634058) it returns 9.79e-16 where
  // the bound reads 1.057e-15. The absolute term covers that; the relative
  // term covers rounding in l1 itself.
  return std::max(0.0, bound * (1.0 - 1e-9) - 1e-12);
}

}  // namespace fairdms::fairms
