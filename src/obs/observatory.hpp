#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/journey.hpp"
#include "obs/timeseries.hpp"

namespace iotml::obs {

/// Sizing knobs for a fleet observatory. Defaults keep memory bounded at
/// fleet scale: every buffer is a ring or a capped log, never an unbounded
/// vector.
struct ObservatoryOptions {
  std::size_t series_capacity = 512;       ///< samples retained per (metric, entity, tier)
  std::size_t flight_ring = 32;            ///< events retained per entity
  std::size_t journey_capacity = 1 << 20;  ///< hop records retained per run
};

/// The fleet observatory: virtual-clock time-series, a causal journey log,
/// and per-entity flight recorders, composed behind one handle. Everything
/// samples the sim's virtual clock, draws nothing from any RNG and perturbs
/// no scheduling, so a run with the observatory on emits byte-identical event
/// logs and reports to a run with it off — it observes, it never
/// participates.
///
/// A default-constructed observatory is disabled: a null object that holds
/// no rings, series or journey storage, and whose recording calls return at
/// once without building a string or copying a record. Callers record
/// unconditionally; only readers of what was recorded ask enabled().
class Observatory {
 public:
  /// Disabled: records nothing.
  Observatory() noexcept;
  /// Enabled, with one flight-recorder ring per entity.
  explicit Observatory(std::size_t entities, ObservatoryOptions options = {});

  bool enabled() const noexcept { return enabled_; }

  /// Flight-recorder note; `kind` must be a string literal.
  void note(std::size_t entity, double t_s, const char* kind, std::uint64_t a = 0,
            std::uint64_t b = 0) {
    if (enabled_) flight_.note(entity, t_s, kind, a, b);
  }
  /// One sample of the (metric, entity, tier) series.
  void sample(std::string_view metric, std::string_view entity, std::string_view tier,
              double t_s, double value) {
    if (enabled_) series_.series(metric, entity, tier).record(t_s, value);
  }
  /// Journal a hop record (copied only when enabled).
  void record(const HopRecord& r) {
    if (enabled_) journeys_.record(r);
  }
  /// Journal the birth of `trace` at `node`: a flush window, a broadcast, a
  /// prediction batch or a patch.
  void origin(std::uint64_t trace, HopStream stream, std::size_t node, double t_s,
              std::size_t rows, std::size_t bytes) {
    if (!enabled_) return;
    journeys_.record({.trace = trace, .kind = HopKind::kOrigin, .stream = stream,
                      .src = node, .dst = node, .t0_s = t_s, .t1_s = t_s,
                      .rows = rows, .bytes = bytes, .parents = {}});
  }

  const TimeSeriesStore& series() const noexcept { return series_; }

  const JourneyLog& journeys() const noexcept { return journeys_; }

  const FlightRecorder& flight() const noexcept { return flight_; }

  /// Writes timeseries.json, journeys.jsonl, flightrec.json and events.log
  /// under `dir` (created if missing). Returns false if any file could not
  /// be written.
  bool write_artifacts(const std::string& dir,
                       const std::vector<std::string>& event_log) const;

 private:
  bool enabled_ = false;
  TimeSeriesStore series_;
  JourneyLog journeys_;
  FlightRecorder flight_;
};

}  // namespace iotml::obs
