#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/fleet.hpp"

namespace perfbench {

/// Per-frame cost of the TDF codec on flush windows shaped like the
/// workload's device uplinks.
struct CodecTiming {
  double encode_us_per_frame = 0.0;
  double decode_us_per_frame = 0.0;
  std::size_t frames = 0;
  bool round_trip_ok = false;  ///< every decode gave back its window's rows
};

/// Time tdf::encode_frame and tdf::decode_frame directly over flush windows
/// built with pipeline::simulate_sensor and integrate_streams at the
/// workload's sensing period, flush interval and wire resolution.
CodecTiming time_tdf_codec(const iotml::sim::FleetConfig& config);

/// Wall seconds of one learners::DecisionTree::fit on a seeded dataset of
/// `train_rows` sensed rows labelled like the fleet's analytics concept.
/// 0 when train_rows is 0.
double time_fit_replay(const iotml::sim::FleetConfig& config, std::size_t train_rows);

}  // namespace perfbench
