#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Time attributed to one span name, summed over every span of that name.
struct SelfTime {
  std::uint64_t count = 0;
  std::int64_t total_us = 0;  ///< summed span durations
  std::int64_t self_us = 0;   ///< summed durations minus direct children's
};

/// Fold completed spans into self time per span name. Spans must be in the
/// order the collector recorded them, which is completion order: on each
/// thread a span completes after all of its children, so the spans one
/// level deeper that completed since the previous span at this depth are
/// exactly its children.
std::map<std::string, SelfTime> fold_self_times(const std::vector<iotml::obs::TraceEvent>& spans);

/// Self time of every span inside the interval of a span named `root` on
/// its thread, `root` included, summed over every span named `root`. Equals
/// their summed durations when the fold is consistent.
std::int64_t self_time_within(const std::vector<iotml::obs::TraceEvent>& spans,
                              const std::string& root);

/// Metric-name stem for a span name: "stage:clean(hampel)" becomes
/// "pipeline.stage.clean-hampel", "sim.event:device-flush" becomes
/// "sim.event.device-flush", "sim.deploy_prepare" becomes "deploy.prepare".
/// Characters outside [A-Za-z0-9_.-] become single '-' separators.
std::string metric_stem(const std::string& span_name);

/// The metric name grammar: starts with a letter or digit, at most 64
/// letters, digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);

}  // namespace perfbench
