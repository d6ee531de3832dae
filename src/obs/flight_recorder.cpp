#include "obs/flight_recorder.hpp"

#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace iotml::obs {

FlightRecorder::FlightRecorder(std::size_t entities, std::size_t ring_capacity)
    : capacity_(ring_capacity), rings_(entities) {
  IOTML_CHECK(ring_capacity >= 1, "FlightRecorder: ring capacity must be at least 1");
}

void FlightRecorder::note(std::size_t entity, double t_s, const char* kind, std::uint64_t a,
                          std::uint64_t b) {
  const std::lock_guard<std::mutex> lock(mu_);
  IOTML_CHECK(entity < rings_.size(), "FlightRecorder::note: entity out of range");
  Ring& ring = rings_[entity];
  const FlightEvent event{t_s, kind, a, b};
  if (ring.events.size() < capacity_) {
    ring.events.push_back(event);
  } else {
    ring.events[ring.next] = event;
    ring.next = (ring.next + 1) % capacity_;
  }
  ++ring.total;
}

std::uint64_t FlightRecorder::noted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const Ring& ring : rings_) total += ring.total;
  return total;
}

std::vector<FlightEvent> FlightRecorder::dump_locked(std::size_t entity) const {
  IOTML_CHECK(entity < rings_.size(), "FlightRecorder::dump: entity out of range");
  const Ring& ring = rings_[entity];
  std::vector<FlightEvent> out;
  out.reserve(ring.events.size());
  if (ring.events.size() < capacity_) {
    out = ring.events;
  } else {
    for (std::size_t i = 0; i < ring.events.size(); ++i) {
      out.push_back(ring.events[(ring.next + i) % ring.events.size()]);
    }
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::dump(std::size_t entity) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dump_locked(entity);
}

std::vector<std::string> FlightRecorder::dump_lines(std::size_t entity) const {
  const std::vector<FlightEvent> events = dump(entity);
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (const FlightEvent& e : events) {
    std::ostringstream line;
    line << "t=" << json_number(e.t_s) << " " << e.kind << " a=" << e.a << " b=" << e.b;
    lines.push_back(line.str());
  }
  return lines;
}

void FlightRecorder::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"ring_capacity\": " << capacity_ << ",\n  \"entities\": [";
  bool first = true;
  for (std::size_t entity = 0; entity < rings_.size(); ++entity) {
    if (rings_[entity].total == 0) continue;
    out << (first ? "" : ",") << "\n    {\"entity\": " << entity
        << ", \"total\": " << rings_[entity].total << ", \"events\": [";
    const std::vector<FlightEvent> events = dump_locked(entity);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"t\": " << json_number(events[i].t_s) << ", \"kind\": \""
          << json_escape(events[i].kind) << "\", \"a\": " << events[i].a
          << ", \"b\": " << events[i].b << "}";
    }
    out << "]}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace iotml::obs
