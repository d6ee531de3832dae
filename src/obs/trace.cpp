#include "obs/trace.hpp"

#include <sstream>
#include <utility>

#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace iotml::obs {

namespace {

std::uint32_t this_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Per-thread nesting depth of live spans; balanced by ctor/dtor pairs.
thread_local std::uint32_t t_span_depth = 0;

}  // namespace

void TraceCollector::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::size_t TraceCollector::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceCollector::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceCollector::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

void TraceCollector::write_chrome_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events_) {
    out << (first ? "" : ",") << "\n{\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
        << json_escape(e.category) << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
        << ", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us
        << ", \"args\": {\"depth\": " << e.depth;
    for (const TraceArg& a : e.args) {
      out << ", \"" << json_escape(a.key) << "\": ";
      if (a.is_number) {
        out << a.value;
      } else {
        out << "\"" << json_escape(a.value) << "\"";
      }
    }
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
}

std::string TraceCollector::chrome_json() const {
  std::ostringstream out;
  write_chrome_json(out);
  return out.str();
}

Span::Span(TraceCollector& collector, std::string_view name, std::string_view category) {
  if (!collector.enabled()) return;
  collector_ = &collector;
  event_.name = name;
  event_.category = category;
  event_.tid = this_thread_id();
  event_.depth = t_span_depth++;
  event_.ts_us = now_us();  // read last so children start at or after parents
}

Span::Span(std::string_view name, std::string_view category)
    : Span(trace(), name, category) {}

Span::~Span() {
  if (collector_ == nullptr) return;
  event_.dur_us = now_us() - event_.ts_us;
  --t_span_depth;
  collector_->record(std::move(event_));
}

void Span::arg(std::string_view key, double value) {
  if (collector_ == nullptr) return;
  event_.args.push_back({std::string(key), json_number(value), true});
}

void Span::arg(std::string_view key, std::int64_t value) {
  if (collector_ == nullptr) return;
  event_.args.push_back({std::string(key), std::to_string(value), true});
}

void Span::arg(std::string_view key, std::uint64_t value) {
  if (collector_ == nullptr) return;
  event_.args.push_back({std::string(key), std::to_string(value), true});
}

void Span::arg(std::string_view key, std::string_view value) {
  if (collector_ == nullptr) return;
  event_.args.push_back({std::string(key), std::string(value), false});
}

}  // namespace iotml::obs
