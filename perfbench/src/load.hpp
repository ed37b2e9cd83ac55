// Load generators. Label and recommend traffic is open-loop over loopback
// TCP: every request has a due time fixed before the phase starts, one
// thread sends on schedule whether or not replies have come back, a second
// thread reads replies on the same connection, and latency runs from the
// due time. Ingest is open-loop in-process (FairDS::ingest), forced
// retrains go over the wire at fixed schedule points, and the saturation
// phase is closed-loop through net::Client's pipelined send/recv.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "util/rng.hpp"
#include "world.hpp"

namespace perfbench {

enum class WireOp : std::uint8_t { kLabel, kRecommend };

struct Request {
  double due = 0.0;  ///< seconds after the phase epoch
  WireOp op = WireOp::kLabel;
  std::uint32_t pool = 0;
};

/// What happened to one planned request. The sender owns sent/sent_end, the
/// receiver owns the rest; neither reads the other's fields until both have
/// been joined.
struct Outcome {
  double sent = -1.0;      ///< < 0: never sent
  double sent_end = -1.0;
  double received = -1.0;  ///< < 0: no reply
  double decoded = -1.0;
  bool ok = false;         ///< answered kOk and decoded
  double exec = 0.0;       ///< the reply's service execution seconds
};

/// A label reply kept for the reuse-parity check, with the snapshot that
/// served it when it was still current on arrival (else null).
struct SampledReply {
  std::size_t request = 0;
  service::LabelResponse response;
  std::shared_ptr<const fairds::Snapshot> snapshot;
};

struct WireTraffic {
  Clock::time_point epoch;  ///< the times in `plan` and `outcomes` count from here
  std::vector<Request> plan;
  std::vector<Outcome> outcomes;
  std::vector<SampledReply> sampled;
  bool transport_ok = true;
};

/// Poisson arrivals per op at the phase's fixed mean rates, pools drawn
/// with NURand skew.
std::vector<Request> plan_requests(const Spec& spec, double seconds,
                                   std::size_t pools, std::size_t nurand_c,
                                   util::Rng& rng);

/// One label reply in this many is kept for the parity check.
inline constexpr std::size_t kParitySampleEvery = 25;

struct WireContext {
  World* world = nullptr;
  const Inputs* inputs = nullptr;
  double threshold = 0.0;
};

WireTraffic run_wire(const WireContext& ctx, std::vector<Request> plan,
                     Clock::time_point epoch);

struct IngestResult {
  Samples latency;  ///< from due time, seconds
  Samples call;     ///< FairDS::ingest call time, seconds
  std::size_t rows = 0;
  double payload_bytes = 0.0;
  double max_lateness = 0.0;
};

IngestResult run_ingest(World& world, const Inputs& inputs, double per_s,
                        double seconds, Clock::time_point epoch);

/// One forced retrain over the wire. Records the seconds from the accepted
/// reply until the retrained snapshot is published, or a failure when the
/// request was refused or coalesced.
void run_retrain(World& world, const Inputs& inputs, Samples* seconds);

struct SaturateResult {
  std::size_t sent = 0;
  std::size_t answered = 0;
  std::size_t failed = 0;
  /// Labeled samples answered per second over each of about
  /// kSaturateBlocks runs of consecutive completions.
  std::vector<double> block_per_s;
};

inline constexpr std::size_t kSaturateBlocks = 16;
inline constexpr std::size_t kSaturateConnections = 2;
inline constexpr std::size_t kSaturateDepth = 2;  ///< requests in flight each

/// Closed loop: kSaturateConnections clients keep kSaturateDepth label
/// requests in flight each until `seconds` have passed, then drain.
SaturateResult run_saturate(World& world, const Inputs& inputs,
                            double threshold, double seconds);

}  // namespace perfbench
