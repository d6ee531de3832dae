#pragma once

// fleetscope — offline reader for a fleet run's artifacts (DESIGN.md §13):
// the observatory's timeseries.json, journeys.jsonl and flightrec.json, and
// the ota.json / degradation.json report ledgers. Parses what the run wrote
// with obs::parse_json, reconstructs per-row device -> edge -> core journeys
// from the hop records, and renders operator-facing tables. The ledgers are
// read back into the simulator's own sim::OtaSummary / sim::DegradationLedger
// through the field list their writer walks (sim::ota_from_json,
// sim::degradation_from_json), so this tool holds no copy of their schema.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/report.hpp"

namespace iotml::fleetscope {

// ---- Artifact models -------------------------------------------------------

/// One journeys.jsonl hop record (mirrors obs::HopRecord, strings for enums).
struct ScopeRecord {
  std::uint64_t trace = 0;
  std::uint32_t hop = 0;
  std::string kind;     ///< "origin" | "send" | "arrive"
  std::string stream;   ///< "rows" | "artifact" | "predictions"
  std::size_t src = 0;
  std::size_t dst = 0;
  double t0_s = 0.0;
  double t1_s = 0.0;
  std::size_t rows = 0;
  std::size_t bytes = 0;
  std::uint32_t attempts = 0;
  std::string outcome;
  std::vector<std::uint64_t> parents;
};

struct JourneyFile {
  bool meta_present = false;
  std::uint64_t meta_records = 0;  ///< records the writer claims it stored
  std::uint64_t meta_dropped = 0;  ///< appends shed past capacity
  std::vector<ScopeRecord> records;
};

/// Parse journeys.jsonl. Returns false (and fills `error`) if any line is
/// malformed; an empty stream is valid and yields an empty file.
bool parse_journeys(std::istream& in, JourneyFile& out, std::string& error);

/// One (metric, entity, tier) series from timeseries.json.
struct SeriesEntry {
  std::string metric;
  std::string entity;
  std::string tier;
  std::uint64_t total = 0;  ///< samples ever recorded (ring may have shed)
  std::vector<std::pair<double, double>> samples;  ///< (t_s, value), oldest first
};

struct SeriesFile {
  std::size_t capacity = 0;
  std::vector<SeriesEntry> series;
};

bool parse_timeseries(std::istream& in, SeriesFile& out, std::string& error);

/// One entity's flight-recorder ring from flightrec.json.
struct FlightEntity {
  std::size_t entity = 0;
  std::uint64_t total = 0;
  std::vector<std::string> lines;  ///< "t=<sec> <kind> a=<a> b=<b>", oldest first
};

struct FlightFile {
  std::size_t ring_capacity = 0;
  std::vector<FlightEntity> entities;
};

bool parse_flightrec(std::istream& in, FlightFile& out, std::string& error);

// ---- Journey reconstruction ------------------------------------------------

/// One origin window's reconstructed path through the tree. `hop0`/`hop1`
/// point at the delivered send that actually carried the window's rows on
/// that wire hop (null when the chain is broken there); `failed_frames`
/// counts sends carrying this window that did not deliver (timeouts, drops,
/// corruption, dead letters) — the retry/loss story of the journey.
struct Journey {
  std::uint64_t origin = 0;
  const ScopeRecord* origin_rec = nullptr;
  const ScopeRecord* hop0 = nullptr;
  const ScopeRecord* hop1 = nullptr;
  const ScopeRecord* core_arrival = nullptr;
  std::size_t failed_frames = 0;
  bool complete() const noexcept {
    return origin_rec != nullptr && hop0 != nullptr && hop1 != nullptr &&
           core_arrival != nullptr;
  }
  /// Flush-to-core latency; 0 unless complete.
  double end_to_end_s() const noexcept;
};

/// Row-stream completeness over the whole log. "Delivered" means the origin
/// window's rows reached an accepted core arrival; "complete" additionally
/// means every hop of the journey reconstructs (origin record + delivered,
/// accepted hop-0 and hop-1 sends naming the origin in their parents).
struct Completeness {
  std::size_t origins_total = 0;
  std::size_t origins_delivered = 0;
  std::size_t origins_complete = 0;
  std::uint64_t rows_delivered = 0;  ///< row-weighted, by origin window size
  std::uint64_t rows_complete = 0;

  double origin_fraction() const noexcept;
  double row_fraction() const noexcept;
};

/// Index over a parsed journey log. Holds pointers into the JourneyFile
/// passed to the constructor, which must outlive the reconstruction.
class Reconstruction {
 public:
  explicit Reconstruction(const JourneyFile& file);

  /// Delivered origin windows in trace-id order.
  const std::vector<Journey>& journeys() const noexcept { return journeys_; }
  const Completeness& completeness() const noexcept { return completeness_; }

  /// Count of (kind, outcome) pairs per stream, for the health table.
  const std::map<std::string, std::map<std::string, std::uint64_t>>& outcome_counts()
      const noexcept {
    return outcome_counts_;
  }

 private:
  std::vector<Journey> journeys_;
  Completeness completeness_;
  std::map<std::string, std::map<std::string, std::uint64_t>> outcome_counts_;
};

// ---- Rendering -------------------------------------------------------------

/// Human-readable journey chains for the first `limit` delivered origins.
std::string render_journeys(const Reconstruction& recon, std::size_t limit);

/// Per-metric heatmap: one row per (entity, tier), `columns` time buckets,
/// cell intensity proportional to the bucket's mean value relative to the
/// metric-wide max.
std::string render_heatmap(const SeriesFile& series, std::size_t columns);

/// Outcome counts, completeness fractions and flight-recorder totals.
std::string render_health(const JourneyFile& file, const Reconstruction& recon,
                          const FlightFile& flight);

/// Flight rings, newest `limit` entities with events.
std::string render_flight(const FlightFile& flight, std::size_t limit);

/// The `versions` view: per-epoch canary promote/rollback timeline plus the
/// end-of-run version-chain histogram, from the OTA deploy ledger.
std::string render_versions(const sim::OtaSummary& ota);

/// The `degradation` view: per-edge ladder timeline strips (one character
/// per time bucket, deeper rungs darker), the exact-vs-approximate window
/// split, CI coverage, and the first ledgered window estimates.
std::string render_degradation(const sim::DegradationLedger& degrade);

}  // namespace iotml::fleetscope
