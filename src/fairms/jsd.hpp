// Jensen–Shannon divergence between discrete distributions (paper §II-B).
// Base-2 logarithm, so JSD(p, q) is bounded in [0, 1]: 0 for identical
// distributions, 1 for distributions with disjoint support.
#pragma once

#include <optional>
#include <span>
#include <vector>

namespace fairdms::fairms {

/// KL(p || q) in bits; q must dominate p (q_i == 0 => p_i == 0). Terms with
/// p_i == 0 contribute zero.
double kl_divergence(std::span<const double> p, std::span<const double> q);

/// JSD(p, q) = (KL(p||m) + KL(q||m)) / 2 with m = (p+q)/2, in bits.
/// Inputs are normalized internally (all-zero inputs abort).
double jensen_shannon_divergence(std::span<const double> p,
                                 std::span<const double> q);

/// True when `p` is a usable (unnormalized) distribution: non-empty, every
/// entry finite and non-negative, total mass positive and finite. The
/// validation gate the ModelZoo applies at publish/reindex time.
[[nodiscard]] bool is_valid_pdf(std::span<const double> p) noexcept;

/// Normalized copy of `p`, or nullopt when !is_valid_pdf(p). The
/// non-aborting sibling of the internal normalizer: serving paths use it to
/// skip malformed stored distributions instead of crashing the worker.
[[nodiscard]] std::optional<std::vector<double>> try_normalized(
    std::span<const double> p);

/// JSD of two *already normalized* distributions — no validation, no
/// normalization pass, no allocation. The hot ranking kernel: callers
/// normalize the query once, and the zoo's rank index holds stored PDFs
/// normalized once, when they are indexed.
double jsd_normalized(std::span<const double> p, std::span<const double> q);

/// A lower bound on jsd_normalized(p, q) from the L1 distance alone:
/// Pinsker's inequality gives JSD >= ||p - q||_1^2 / (8 ln 2) bits. The
/// bound is shrunk by a relative and an absolute margin, because the kernel
/// rounds below it for near-identical PDFs, and it is never negative. One
/// pass of subtractions: no logarithm, no division. recommend() skips the
/// kernel for a row whose bound already exceeds the distance to beat.
double jsd_lower_bound(std::span<const double> p, std::span<const double> q);

}  // namespace fairdms::fairms
