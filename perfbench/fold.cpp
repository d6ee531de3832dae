#include "fold.hpp"

#include <cctype>
#include <cstddef>
#include <utility>

namespace perfbench {

using iotml::obs::TraceEvent;

std::map<std::string, SelfTime> fold_self_times(const std::vector<TraceEvent>& spans) {
  std::map<std::string, SelfTime> out;
  // Per thread, per depth: summed durations of completed spans at that
  // depth whose parent has not completed yet.
  std::map<std::uint32_t, std::vector<std::int64_t>> pending;
  for (const TraceEvent& e : spans) {
    std::vector<std::int64_t>& child_us = pending[e.tid];
    if (child_us.size() < e.depth + 2) child_us.resize(e.depth + 2, 0);
    SelfTime& t = out[e.name];
    ++t.count;
    t.total_us += e.dur_us;
    t.self_us += e.dur_us - child_us[e.depth + 1];
    child_us[e.depth + 1] = 0;
    child_us[e.depth] += e.dur_us;
  }
  return out;
}

std::int64_t self_time_within(const std::vector<TraceEvent>& spans, const std::string& root) {
  std::int64_t sum = 0;
  for (const TraceEvent& r : spans) {
    if (r.name != root) continue;
    std::vector<TraceEvent> inside;
    for (const TraceEvent& e : spans) {
      if (e.tid == r.tid && e.depth >= r.depth && e.ts_us >= r.ts_us &&
          e.ts_us + e.dur_us <= r.ts_us + r.dur_us) {
        inside.push_back(e);
      }
    }
    for (const auto& [name, t] : fold_self_times(inside)) sum += t.self_us;
  }
  return sum;
}

std::string metric_stem(const std::string& span_name) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"stage:", "pipeline.stage."},
      {"sim.event:", "sim.event."},
      {"sim.deploy_prepare", "deploy.prepare"},
  };
  std::string name = span_name;
  for (const auto& [from, to] : kPrefixes) {
    const std::string prefix = from;
    if (name.compare(0, prefix.size(), prefix) == 0) {
      name = to + name.substr(prefix.size());
      break;
    }
  }
  std::string out;
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
                    c == '.' || c == '-';
    if (ok) {
      out += c;
    } else if (!out.empty() && out.back() != '-') {
      out += '-';
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name[0])) == 0) return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
