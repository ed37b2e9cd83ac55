// The traced run's layer decomposition. For a sample of the workload's own
// label inputs it runs Snapshot::lookup_or_label whole, then re-runs its
// public stages on the same snapshot version (embed, k-means assign,
// reuse-index search, projected find_many, fallback labeler) and the wire
// codec on the same frames, recording one span per stage.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "world.hpp"

namespace perfbench {

struct Decomposition {
  std::size_t requests = 0;
  double whole_s = 0.0;  ///< summed lookup_or_label time
  double embed_s = 0.0;
  double assign_s = 0.0;
  double nearest_s = 0.0;
  double find_many_s = 0.0;
  double labeler_s = 0.0;
  std::size_t find_many_docs = 0;
  std::size_t labeled = 0;
  double encode_s = 0.0;  ///< request + reply frame encode
  double decode_s = 0.0;  ///< request + reply frame decode
  double request_bytes = 0.0;
  double reply_bytes = 0.0;
  bool codec_ok = true;  ///< every frame round-tripped
  /// Per request: stage sum / whole lookup_or_label time. Its median is
  /// checked, so one preempted stage cannot fail the run.
  std::vector<double> stage_ratio;

  [[nodiscard]] double stage_sum() const {
    return embed_s + assign_s + nearest_s + find_many_s + labeler_s;
  }
  /// Name of the stage with the largest share of the stage sum.
  [[nodiscard]] std::string dominant() const;
};

Decomposition decompose(World& world, const Inputs& inputs, double threshold,
                        std::size_t sample, Trace& trace);

/// Mean cost of recording one span, in microseconds.
double span_overhead_us();

}  // namespace perfbench
