#include "scope.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <istream>
#include <sstream>

#include "obs/json.hpp"

namespace iotml::fleetscope {

// ---- Artifact parsers ------------------------------------------------------

using obs::Json;
using obs::parse_json;

namespace {

std::string read_all(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Readers of one field the writers always emit. Each fills `out` and returns
// true, or sets `bad` to the field's name when it is missing or does not fit.
template <std::integral T>
bool read(const Json& row, const char* key, T& out, std::string& bad) {
  const Json* v = row.find(key);
  if (v != nullptr && v->to_int(out)) return true;
  bad = key;
  return false;
}

bool read(const Json& row, const char* key, double& out, std::string& bad) {
  const Json* v = row.find(key);
  if (v != nullptr && v->kind == Json::Kind::kNumber) {
    out = v->number;
    return true;
  }
  bad = key;
  return false;
}

bool read(const Json& row, const char* key, std::string& out, std::string& bad) {
  const Json* v = row.find(key);
  if (v != nullptr && v->kind == Json::Kind::kString) {
    out = v->str;
    return true;
  }
  bad = key;
  return false;
}

/// The array `key`, or null (and `bad` set) when it is missing or not one.
const Json* read_array(const Json& row, const char* key, std::string& bad) {
  const Json* v = row.find(key);
  if (v != nullptr && v->kind == Json::Kind::kArray) return v;
  bad = key;
  return nullptr;
}

bool bad_field(const std::string& where, const std::string& field, std::string& error) {
  error = where + ": bad or missing field " + field;
  return false;
}

}  // namespace

bool parse_journeys(std::istream& in, JourneyFile& out, std::string& error) {
  out = JourneyFile{};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "journeys.jsonl line " + std::to_string(line_no);
    Json row;
    if (!parse_json(line, row, error)) {
      error = where + ": " + error;
      return false;
    }
    std::string bad;
    if (const Json* meta = row.find("meta"); meta != nullptr) {
      out.meta_present = true;
      if (!read(*meta, "records", out.meta_records, bad) ||
          !read(*meta, "dropped", out.meta_dropped, bad)) {
        return bad_field(where, "meta." + bad, error);
      }
      continue;
    }
    ScopeRecord rec;
    if (!read(row, "trace", rec.trace, bad) || !read(row, "kind", rec.kind, bad) ||
        !read(row, "stream", rec.stream, bad) || !read(row, "hop", rec.hop, bad) ||
        !read(row, "src", rec.src, bad) || !read(row, "dst", rec.dst, bad) ||
        !read(row, "t0", rec.t0_s, bad) || !read(row, "t1", rec.t1_s, bad) ||
        !read(row, "rows", rec.rows, bad) || !read(row, "bytes", rec.bytes, bad) ||
        !read(row, "attempts", rec.attempts, bad) || !read(row, "outcome", rec.outcome, bad)) {
      return bad_field(where, bad, error);
    }
    const Json* parents = read_array(row, "parents", bad);
    if (parents == nullptr) return bad_field(where, bad, error);
    for (const Json& p : parents->arr) {
      if (!p.to_int(rec.parents.emplace_back())) {
        return bad_field(where, "parents[" + std::to_string(rec.parents.size() - 1) + "]",
                         error);
      }
    }
    out.records.push_back(std::move(rec));
  }
  return true;
}

bool parse_timeseries(std::istream& in, SeriesFile& out, std::string& error) {
  out = SeriesFile{};
  Json root;
  if (!parse_json(read_all(in), root, error)) {
    error = "timeseries.json: " + error;
    return false;
  }
  std::string bad;
  if (!read(root, "capacity", out.capacity, bad)) return bad_field("timeseries.json", bad, error);
  const Json* series = read_array(root, "series", bad);
  if (series == nullptr) return bad_field("timeseries.json", bad, error);
  for (const Json& row : series->arr) {
    const std::string at = "series[" + std::to_string(out.series.size()) + "].";
    SeriesEntry entry;
    if (!read(row, "metric", entry.metric, bad) || !read(row, "entity", entry.entity, bad) ||
        !read(row, "tier", entry.tier, bad) || !read(row, "total", entry.total, bad)) {
      return bad_field("timeseries.json", at + bad, error);
    }
    const Json* samples = read_array(row, "samples", bad);
    if (samples == nullptr) return bad_field("timeseries.json", at + bad, error);
    for (const Json& pair : samples->arr) {
      const bool ok = pair.kind == Json::Kind::kArray && pair.arr.size() == 2 &&
                      pair.arr[0].kind == Json::Kind::kNumber &&
                      pair.arr[1].kind == Json::Kind::kNumber;
      if (!ok) {
        return bad_field("timeseries.json",
                         at + "samples[" + std::to_string(entry.samples.size()) + "]", error);
      }
      entry.samples.emplace_back(pair.arr[0].number, pair.arr[1].number);
    }
    out.series.push_back(std::move(entry));
  }
  return true;
}

bool parse_flightrec(std::istream& in, FlightFile& out, std::string& error) {
  out = FlightFile{};
  Json root;
  if (!parse_json(read_all(in), root, error)) {
    error = "flightrec.json: " + error;
    return false;
  }
  std::string bad;
  if (!read(root, "ring_capacity", out.ring_capacity, bad)) {
    return bad_field("flightrec.json", bad, error);
  }
  const Json* entities = read_array(root, "entities", bad);
  if (entities == nullptr) return bad_field("flightrec.json", bad, error);
  for (const Json& row : entities->arr) {
    const std::string at = "entities[" + std::to_string(out.entities.size()) + "].";
    FlightEntity entity;
    if (!read(row, "entity", entity.entity, bad) || !read(row, "total", entity.total, bad)) {
      return bad_field("flightrec.json", at + bad, error);
    }
    const Json* events = read_array(row, "events", bad);
    if (events == nullptr) return bad_field("flightrec.json", at + bad, error);
    for (const Json& ev : events->arr) {
      double t = 0.0;
      std::string kind;
      std::uint64_t a = 0;
      std::uint64_t b = 0;
      if (!read(ev, "t", t, bad) || !read(ev, "kind", kind, bad) || !read(ev, "a", a, bad) ||
          !read(ev, "b", b, bad)) {
        return bad_field("flightrec.json",
                         at + "events[" + std::to_string(entity.lines.size()) + "]." + bad,
                         error);
      }
      char t_buf[64];
      std::snprintf(t_buf, sizeof t_buf, "%.17g", t);
      std::ostringstream line;
      line << "t=" << t_buf << " " << kind << " a=" << a << " b=" << b;
      entity.lines.push_back(line.str());
    }
    out.entities.push_back(std::move(entity));
  }
  return true;
}

// ---- Journey reconstruction ------------------------------------------------

double Journey::end_to_end_s() const noexcept {
  if (!complete()) return 0.0;
  return core_arrival->t1_s - origin_rec->t0_s;
}

double Completeness::origin_fraction() const noexcept {
  return origins_delivered == 0
             ? 1.0
             : static_cast<double>(origins_complete) /
                   static_cast<double>(origins_delivered);
}

double Completeness::row_fraction() const noexcept {
  return rows_delivered == 0 ? 1.0
                             : static_cast<double>(rows_complete) /
                                   static_cast<double>(rows_delivered);
}

Reconstruction::Reconstruction(const JourneyFile& file) {
  std::map<std::uint64_t, const ScopeRecord*> origins;
  // Per origin id, the row-stream sends carrying it, split by wire hop.
  std::map<std::uint64_t, std::vector<const ScopeRecord*>> hop0_sends;
  std::map<std::uint64_t, std::vector<const ScopeRecord*>> hop1_sends;
  std::map<std::uint64_t, std::size_t> failed_frames;
  // Frame trace -> its accepted arrival record.
  std::map<std::uint64_t, const ScopeRecord*> accepted;

  for (const ScopeRecord& rec : file.records) {
    outcome_counts_[rec.stream][rec.kind + "/" + rec.outcome] += 1;
    if (rec.stream != "rows") continue;
    if (rec.kind == "origin") {
      origins.emplace(rec.trace, &rec);
      ++completeness_.origins_total;
    } else if (rec.kind == "send") {
      auto& by_hop = rec.hop == 0 ? hop0_sends : hop1_sends;
      for (const std::uint64_t parent : rec.parents) {
        if (rec.outcome == "delivered") {
          by_hop[parent].push_back(&rec);
        } else {
          failed_frames[parent] += 1;
        }
      }
    } else if (rec.kind == "arrive" && rec.outcome == "accepted") {
      accepted.emplace(rec.trace, &rec);
    }
  }

  // An origin window was delivered iff a delivered hop-1 frame naming it as a
  // parent was accepted at the core. std::map iteration keeps the journey
  // list in origin-trace order, so output is deterministic.
  for (const auto& [origin, sends] : hop1_sends) {
    Journey j;
    j.origin = origin;
    for (const ScopeRecord* send : sends) {
      const auto it = accepted.find(send->trace);
      if (it != accepted.end()) {
        j.hop1 = send;
        j.core_arrival = it->second;
        break;
      }
    }
    if (j.hop1 == nullptr) continue;  // never accepted at the core
    const auto origin_it = origins.find(origin);
    if (origin_it != origins.end()) j.origin_rec = origin_it->second;
    const auto h0 = hop0_sends.find(origin);
    if (h0 != hop0_sends.end()) {
      for (const ScopeRecord* send : h0->second) {
        if (accepted.count(send->trace) != 0) {
          j.hop0 = send;
          break;
        }
      }
    }
    const auto failed = failed_frames.find(origin);
    j.failed_frames = failed == failed_frames.end() ? 0 : failed->second;

    ++completeness_.origins_delivered;
    const std::uint64_t weight =
        j.origin_rec != nullptr ? static_cast<std::uint64_t>(j.origin_rec->rows) : 1;
    completeness_.rows_delivered += weight;
    if (j.complete()) {
      ++completeness_.origins_complete;
      completeness_.rows_complete += weight;
    }
    journeys_.push_back(j);
  }
}

// ---- Rendering -------------------------------------------------------------

namespace {

std::string format_seconds(double s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3fs", s);
  return buf;
}

void render_leg(std::ostream& out, const char* label, const ScopeRecord* send) {
  out << "  " << label << " ";
  if (send == nullptr) {
    out << "(missing: chain breaks here)\n";
    return;
  }
  out << "node" << send->src << " -> node" << send->dst << "  sent t="
      << format_seconds(send->t0_s) << "  arrived t=" << format_seconds(send->t1_s)
      << "  (+" << format_seconds(send->t1_s - send->t0_s) << ", attempts="
      << send->attempts << ", " << send->rows << " rows, " << send->bytes
      << " bytes)\n";
}

}  // namespace

std::string render_journeys(const Reconstruction& recon, std::size_t limit) {
  std::ostringstream out;
  const auto& journeys = recon.journeys();
  out << "journeys (" << journeys.size() << " delivered origin windows, showing "
      << std::min(limit, journeys.size()) << ")\n";
  std::size_t shown = 0;
  for (const Journey& j : journeys) {
    if (shown++ >= limit) break;
    out << "journey origin#" << j.origin;
    if (j.origin_rec != nullptr) {
      out << "  (device node" << j.origin_rec->src << ", flushed t="
          << format_seconds(j.origin_rec->t0_s) << ", " << j.origin_rec->rows
          << " rows)";
    } else {
      out << "  (origin record missing)";
    }
    out << "\n";
    render_leg(out, "hop0", j.hop0);
    render_leg(out, "hop1", j.hop1);
    if (j.complete()) {
      out << "  end-to-end " << format_seconds(j.end_to_end_s());
      if (j.failed_frames > 0) out << "  (" << j.failed_frames << " failed frames)";
      out << "\n";
    } else {
      out << "  incomplete journey";
      if (j.failed_frames > 0) out << "  (" << j.failed_frames << " failed frames)";
      out << "\n";
    }
  }
  return out.str();
}

std::string render_heatmap(const SeriesFile& series, std::size_t columns) {
  static const char kRamp[] = " .:-=+*#%@";
  constexpr std::size_t kRampMax = sizeof(kRamp) - 2;  // index of densest glyph
  std::ostringstream out;

  // Group entries by metric; each metric gets its own table.
  std::map<std::string, std::vector<const SeriesEntry*>> by_metric;
  for (const SeriesEntry& entry : series.series) {
    by_metric[entry.metric].push_back(&entry);
  }
  for (const auto& [metric, entries] : by_metric) {
    double t_min = 0.0;
    double t_max = 0.0;
    double v_max = 0.0;
    bool any = false;
    for (const SeriesEntry* entry : entries) {
      for (const auto& [t, v] : entry->samples) {
        if (!any) {
          t_min = t_max = t;
          any = true;
        }
        t_min = std::min(t_min, t);
        t_max = std::max(t_max, t);
        v_max = std::max(v_max, std::fabs(v));
      }
    }
    out << "metric " << metric << "  (t=" << format_seconds(t_min) << " .. "
        << format_seconds(t_max) << ", max=" << v_max << ")\n";
    const double span = t_max > t_min ? t_max - t_min : 1.0;
    for (const SeriesEntry* entry : entries) {
      std::vector<double> sums(columns, 0.0);
      std::vector<std::uint64_t> counts(columns, 0);
      for (const auto& [t, v] : entry->samples) {
        auto col = static_cast<std::size_t>((t - t_min) / span *
                                            static_cast<double>(columns));
        col = std::min(col, columns - 1);
        sums[col] += std::fabs(v);
        counts[col] += 1;
      }
      std::string heat(columns, ' ');
      for (std::size_t c = 0; c < columns; ++c) {
        if (counts[c] == 0) continue;
        const double mean = sums[c] / static_cast<double>(counts[c]);
        const double frac = v_max > 0.0 ? mean / v_max : 0.0;
        const auto idx = static_cast<std::size_t>(frac * static_cast<double>(kRampMax));
        heat[c] = kRamp[1 + std::min(idx, kRampMax - 1)];
      }
      char label[96];
      std::snprintf(label, sizeof label, "  %-12s %-7s |%s|  total=%llu",
                    entry->entity.c_str(), entry->tier.c_str(), heat.c_str(),
                    static_cast<unsigned long long>(entry->total));
      out << label << "\n";
    }
    out << "\n";
  }
  return out.str();
}

std::string render_health(const JourneyFile& file, const Reconstruction& recon,
                          const FlightFile& flight) {
  std::ostringstream out;
  out << "health\n";
  out << "  journey log: " << file.records.size() << " records";
  if (file.meta_present) out << " (writer claims " << file.meta_records << ")";
  out << ", " << file.meta_dropped << " dropped\n";
  for (const auto& [stream, kinds] : recon.outcome_counts()) {
    out << "  stream " << stream << ":";
    for (const auto& [key, count] : kinds) out << "  " << key << "=" << count;
    out << "\n";
  }
  const Completeness& c = recon.completeness();
  char pct[128];
  std::snprintf(pct, sizeof pct,
                "  completeness: %zu/%zu delivered origins reconstruct (%.2f%%), "
                "%llu/%llu rows (%.2f%%)",
                c.origins_complete, c.origins_delivered, 100.0 * c.origin_fraction(),
                static_cast<unsigned long long>(c.rows_complete),
                static_cast<unsigned long long>(c.rows_delivered),
                100.0 * c.row_fraction());
  out << pct << "\n";
  std::uint64_t flight_total = 0;
  for (const FlightEntity& e : flight.entities) flight_total += e.total;
  out << "  flight recorder: " << flight.entities.size() << " active entities, "
      << flight_total << " events noted (ring=" << flight.ring_capacity << ")\n";
  return out.str();
}

std::string render_flight(const FlightFile& flight, std::size_t limit) {
  std::ostringstream out;
  out << "flight rings (showing " << std::min(limit, flight.entities.size()) << " of "
      << flight.entities.size() << " active entities)\n";
  std::size_t shown = 0;
  for (const FlightEntity& e : flight.entities) {
    if (shown++ >= limit) break;
    out << "  entity " << e.entity << " (" << e.total << " events total):\n";
    for (const std::string& line : e.lines) out << "    " << line << "\n";
  }
  return out.str();
}

std::string render_versions(const sim::OtaSummary& ota) {
  std::ostringstream out;
  if (!ota.enabled) {
    out << "ota versions: OTA was not enabled for this run\n";
    return out.str();
  }
  char head[160];
  const double saved =
      ota.full_broadcast_bytes > 0
          ? 100.0 * (1.0 - static_cast<double>(ota.delta_downlink_bytes) /
                               static_cast<double>(ota.full_broadcast_bytes))
          : 0.0;
  std::snprintf(head, sizeof head,
                "ota versions (%d epochs, %llu promoted, %llu rolled back; "
                "downlink %llu B vs %llu B counterfactual, %.1f%% saved)",
                ota.epochs,
                static_cast<unsigned long long>(ota.promotions),
                static_cast<unsigned long long>(ota.rollbacks),
                static_cast<unsigned long long>(ota.delta_downlink_bytes),
                static_cast<unsigned long long>(ota.full_broadcast_bytes), saved);
  out << head << "\n";

  out << "timeline\n";
  for (const sim::OtaEpochEntry& e : ota.epochs_log) {
    char line[192];
    std::snprintf(line, sizeof line, "  epoch %d  t=%-8s v%-3u %-11s", e.epoch,
                  format_seconds(e.t_s).c_str(), e.version_id,
                  e.outcome.c_str());
    out << line;
    if (e.canary_devices > 0) {
      char canary[128];
      std::snprintf(canary, sizeof canary,
                    " canary %llu/%llu reporting, acc %.3f -> %.3f,",
                    static_cast<unsigned long long>(e.devices_reporting),
                    static_cast<unsigned long long>(e.canary_devices),
                    e.accuracy_old, e.accuracy_new);
      out << canary;
    }
    out << " " << e.devices_updated << " updated";
    if (e.devices_rolled_back > 0) out << ", " << e.devices_rolled_back << " rolled back";
    if (e.full_fallbacks > 0) out << ", " << e.full_fallbacks << " full fallbacks";
    if (e.devices_stuck > 0) out << ", " << e.devices_stuck << " STUCK";
    out << "\n";
  }

  out << "fleet versions\n";
  std::size_t max_count = 1;
  std::size_t total = 0;
  std::uint32_t head_id = 0;
  for (const auto& [id, count] : ota.version_histogram) {
    max_count = std::max(max_count, count);
    total += count;
    head_id = std::max(head_id, id);
  }
  constexpr std::size_t kBarWidth = 24;
  for (const auto& [id, count] : ota.version_histogram) {
    const auto width = static_cast<std::size_t>(
        static_cast<double>(count) / static_cast<double>(max_count) *
        static_cast<double>(kBarWidth));
    char label[32];
    if (id == 0) {
      std::snprintf(label, sizeof label, "  none");
    } else {
      std::snprintf(label, sizeof label, "  v%-4u", id);
    }
    out << label << " " << std::string(std::max<std::size_t>(width, 1), '#')
        << std::string(kBarWidth - std::max<std::size_t>(width, 1), ' ') << " "
        << count << " devices" << (id != 0 && id == head_id ? "  (head)" : "")
        << "\n";
  }
  char tail[192];
  std::snprintf(tail, sizeof tail,
                "  %llu devices: on-head %llu, behind %llu, unprovisioned %llu, "
                "stuck %llu; last commit t=%s; verified %s",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(ota.devices_on_head),
                static_cast<unsigned long long>(ota.devices_behind),
                static_cast<unsigned long long>(ota.devices_unprovisioned),
                static_cast<unsigned long long>(ota.devices_stuck),
                format_seconds(ota.last_commit_t_s).c_str(),
                ota.all_devices_verified ? "yes" : "NO");
  out << tail << "\n";
  return out.str();
}

std::string render_degradation(const sim::DegradationLedger& d) {
  std::ostringstream out;
  if (!d.enabled) {
    out << "degradation: the ladder was not enabled for this run\n";
    return out.str();
  }
  char head[224];
  std::snprintf(
      head, sizeof head,
      "degradation ladder (%s; windows exact %llu / sampled %llu / sketch "
      "%llu / summary %llu; %llu up, %llu down)",
      d.pin_level >= 0
          ? ("pinned L" + std::to_string(d.pin_level)).c_str()
          : "free-running",
      static_cast<unsigned long long>(d.windows_exact),
      static_cast<unsigned long long>(d.windows_sampled),
      static_cast<unsigned long long>(d.windows_sketch),
      static_cast<unsigned long long>(d.windows_summary),
      static_cast<unsigned long long>(d.transitions_up),
      static_cast<unsigned long long>(d.transitions_down));
  out << head << "\n";

  // Per-edge ladder strips: one character per time bucket, deeper rungs
  // darker (L0 '.', L1 '-', L2 '=', L3 '#'). The horizon covers the settle
  // tail, so a healthy edge always ends in '.'.
  double horizon = d.duration_s;
  for (const sim::EdgeDegradeTimeline& e : d.edges) {
    for (const sim::DegradeTransitionEntry& t : e.transitions) {
      horizon = std::max(horizon, t.t_s);
    }
  }
  constexpr std::size_t kStripWidth = 48;
  constexpr char kLevelChar[4] = {'.', '-', '=', '#'};
  out << "ladder timeline (0.." << format_seconds(horizon) << ")\n";
  for (const sim::EdgeDegradeTimeline& e : d.edges) {
    std::string strip(kStripWidth, kLevelChar[0]);
    // Walk the step function transition by transition; the level before the
    // first move is that move's `from` rung.
    int level = e.transitions.empty() ? e.final_level : e.transitions.front().from;
    std::size_t bucket = 0;
    for (const sim::DegradeTransitionEntry& t : e.transitions) {
      const auto until = horizon > 0.0
          ? std::min(kStripWidth, static_cast<std::size_t>(
                t.t_s / horizon * static_cast<double>(kStripWidth)))
          : kStripWidth;
      for (; bucket < until; ++bucket) {
        strip[bucket] = kLevelChar[std::clamp(level, 0, 3)];
      }
      level = t.to;
    }
    for (; bucket < kStripWidth; ++bucket) {
      strip[bucket] = kLevelChar[std::clamp(level, 0, 3)];
    }
    char line[224];
    std::snprintf(line, sizeof line,
                  "  edge %-3zu %s final L%d  t@[%s %s %s %s] %zu moves",
                  e.edge, strip.c_str(), e.final_level,
                  format_seconds(e.time_at_level_s[0]).c_str(),
                  format_seconds(e.time_at_level_s[1]).c_str(),
                  format_seconds(e.time_at_level_s[2]).c_str(),
                  format_seconds(e.time_at_level_s[3]).c_str(),
                  e.transitions.size());
    out << line << "\n";
  }

  char rows[224];
  std::snprintf(rows, sizeof rows,
                "rows: exact %llu, approx %llu (%llu sampled out); summaries "
                "%llu sent / %llu delivered, %llu B, %llu relays skipped",
                static_cast<unsigned long long>(d.rows_exact),
                static_cast<unsigned long long>(d.rows_approx),
                static_cast<unsigned long long>(d.rows_sampled_out),
                static_cast<unsigned long long>(d.summaries_sent),
                static_cast<unsigned long long>(d.summaries_delivered),
                static_cast<unsigned long long>(d.summary_bytes),
                static_cast<unsigned long long>(d.artifact_relays_skipped));
  out << rows << "\n";
  if (d.ci_windows > 0) {
    char ci[224];
    std::snprintf(ci, sizeof ci,
                  "error bound: 95%% CI covered %llu/%llu windows (%.1f%%), "
                  "mean half-width %.4f, mean |err| %.4f, max |err| %.4f",
                  static_cast<unsigned long long>(d.ci_covered),
                  static_cast<unsigned long long>(d.ci_windows),
                  100.0 * d.coverage, d.mean_half_width, d.mean_abs_error,
                  d.max_abs_error);
    out << ci << "\n";
  }
  if (!d.windows.empty()) {
    out << "window estimates";
    if (d.windows_truncated > 0) {
      out << " (first " << d.windows.size() << "; "
          << d.windows_truncated << " more truncated)";
    }
    out << "\n";
    constexpr std::size_t kWindowLimit = 8;
    for (std::size_t i = 0; i < d.windows.size() && i < kWindowLimit; ++i) {
      const sim::WindowEstimate& w = d.windows[i];
      char line[224];
      std::snprintf(line, sizeof line,
                    "  t=%-8s edge %-3zu L%d %llu/%llu rows  est %.4f +/- "
                    "%.4f  exact %.4f  %s",
                    format_seconds(w.t_s).c_str(), w.edge, w.level,
                    static_cast<unsigned long long>(w.rows_used),
                    static_cast<unsigned long long>(w.rows_window),
                    w.estimate, w.half_width, w.exact,
                    w.covered ? "covered" : "MISSED");
      out << line << "\n";
    }
  }
  return out.str();
}

}  // namespace iotml::fleetscope
