#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace iotml::obs {

/// One flight-recorder entry. `kind` must be a string literal (the recorder
/// stores the pointer, never copies); `a` and `b` are kind-specific details
/// (rows, bytes, message ids — DESIGN.md §13 documents each kind).
struct FlightEvent {
  double t_s = 0.0;
  const char* kind = "";
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Per-entity ring of the last `ring_capacity` events, cheap enough to
/// leave on for every node in the fleet. When a fault fires (crash,
/// partition, dead-letter) the affected entity's ring is dumped into the
/// report so the operator sees what the node was doing just before it
/// failed — a black box, not a full log. Timestamps are virtual-clock
/// seconds; dumps are byte-deterministic per seed.
class FlightRecorder {
 public:
  FlightRecorder(std::size_t entities, std::size_t ring_capacity);

  void note(std::size_t entity, double t_s, const char* kind, std::uint64_t a = 0,
            std::uint64_t b = 0);

  std::uint64_t noted() const;  ///< events ever recorded across all rings

  /// Entity's retained events, oldest -> newest.
  std::vector<FlightEvent> dump(std::size_t entity) const;

  /// Rendered dump lines: "t=<sec> <kind> a=<a> b=<b>".
  std::vector<std::string> dump_lines(std::size_t entity) const;

  /// {"ring_capacity": N, "entities": [{"entity": i, "total": n, "events": [...]}]}
  /// — entities with no events are omitted.
  void write_json(std::ostream& out) const;

 private:
  struct Ring {
    std::vector<FlightEvent> events;
    std::size_t next = 0;       // overwrite position once full
    std::uint64_t total = 0;    // events ever noted on this entity
  };

  std::vector<FlightEvent> dump_locked(std::size_t entity) const;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<Ring> rings_;
};

}  // namespace iotml::obs
