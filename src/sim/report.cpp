#include "sim/report.hpp"

#include <concepts>
#include <sstream>
#include <tuple>

#include "obs/json.hpp"

namespace iotml::sim {

LatencyBreakdown LatencyBreakdown::from_histogram(const obs::LogHistogram& hist) {
  LatencyBreakdown b;
  b.summary = {.count = hist.count(),
               .mean_s = hist.mean(),
               .p50_s = hist.quantile(0.50),
               .p95_s = hist.quantile(0.95),
               .max_s = hist.max()};
  b.bounds_s = hist.bounds();
  b.counts = hist.buckets();
  return b;
}

namespace {

// ---- Ledger schema -----------------------------------------------------------
//
// Each report ledger is described once, as a list of (JSON key, member)
// entries. A Group renders members of the same struct as one nested object;
// a std::vector member is a record array whose element type has its own list.
// The writer and the reader below walk the same lists, so ota.json,
// degradation.json and what fleetscope reads back cannot drift apart.

template <class T, class M>
struct Field {
  const char* key;
  M T::*member;
};

template <class... Fields>
struct Group {
  const char* key;
  std::tuple<Fields...> fields;
};

template <class... Fields>
constexpr Group<Fields...> group(const char* key, Fields... fields) {
  return {key, {fields...}};
}

template <class T>
struct Schema;

template <>
struct Schema<OtaEpochEntry> {
  using S = OtaEpochEntry;
  static constexpr auto fields = std::make_tuple(
      Field{"epoch", &S::epoch}, Field{"t_s", &S::t_s}, Field{"version_id", &S::version_id},
      Field{"outcome", &S::outcome}, Field{"train_rows", &S::train_rows},
      Field{"image_bytes", &S::image_bytes}, Field{"patch_bytes", &S::patch_bytes},
      Field{"delta_downlink_bytes", &S::delta_downlink_bytes},
      Field{"full_broadcast_bytes", &S::full_broadcast_bytes},
      Field{"canary_devices", &S::canary_devices},
      Field{"devices_reporting", &S::devices_reporting}, Field{"pooled_rows", &S::pooled_rows},
      Field{"accuracy_old", &S::accuracy_old}, Field{"accuracy_new", &S::accuracy_new},
      Field{"devices_updated", &S::devices_updated},
      Field{"devices_rolled_back", &S::devices_rolled_back},
      Field{"full_fallbacks", &S::full_fallbacks}, Field{"devices_stuck", &S::devices_stuck});
};

template <>
struct Schema<OtaSummary> {
  using S = OtaSummary;
  static constexpr auto fields = std::make_tuple(
      Field{"enabled", &S::enabled}, Field{"epochs", &S::epochs},
      Field{"versions_published", &S::versions_published},
      group("bytes", Field{"delta_downlink", &S::delta_downlink_bytes},
            Field{"full_broadcast_counterfactual", &S::full_broadcast_bytes},
            Field{"probe_uplink", &S::probe_uplink_bytes}),
      group("chunks", Field{"sent", &S::chunks_sent}, Field{"delivered", &S::chunks_delivered},
            Field{"corrupt_rejected", &S::chunks_corrupt_rejected},
            Field{"duplicates", &S::chunk_duplicates}, Field{"stale", &S::chunks_stale}),
      Field{"resume_rounds", &S::resume_rounds}, Field{"full_fallbacks", &S::full_fallbacks},
      Field{"promotions", &S::promotions}, Field{"rollbacks", &S::rollbacks},
      Field{"last_commit_t_s", &S::last_commit_t_s},
      group("devices", Field{"on_head", &S::devices_on_head}, Field{"behind", &S::devices_behind},
            Field{"unprovisioned", &S::devices_unprovisioned},
            Field{"stuck", &S::devices_stuck}),
      Field{"all_devices_verified", &S::all_devices_verified},
      Field{"version_histogram", &S::version_histogram}, Field{"epochs_log", &S::epochs_log});
};

template <>
struct Schema<DegradeTransitionEntry> {
  using S = DegradeTransitionEntry;
  static constexpr auto fields =
      std::make_tuple(Field{"t_s", &S::t_s}, Field{"from", &S::from}, Field{"to", &S::to});
};

template <>
struct Schema<EdgeDegradeTimeline> {
  using S = EdgeDegradeTimeline;
  static constexpr auto fields = std::make_tuple(
      Field{"edge", &S::edge}, Field{"final_level", &S::final_level},
      Field{"time_at_level_s", &S::time_at_level_s}, Field{"transitions", &S::transitions});
};

template <>
struct Schema<WindowEstimate> {
  using S = WindowEstimate;
  static constexpr auto fields = std::make_tuple(
      Field{"edge", &S::edge}, Field{"t_s", &S::t_s}, Field{"level", &S::level},
      Field{"rows_window", &S::rows_window}, Field{"rows_used", &S::rows_used},
      Field{"estimate", &S::estimate}, Field{"half_width", &S::half_width},
      Field{"exact", &S::exact}, Field{"covered", &S::covered});
};

template <>
struct Schema<DegradationLedger> {
  using S = DegradationLedger;
  static constexpr auto fields = std::make_tuple(
      Field{"enabled", &S::enabled}, Field{"pin_level", &S::pin_level},
      Field{"duration_s", &S::duration_s},
      group("rows", Field{"exact", &S::rows_exact}, Field{"approx", &S::rows_approx},
            Field{"sampled_out", &S::rows_sampled_out}),
      group("windows", Field{"exact", &S::windows_exact}, Field{"sampled", &S::windows_sampled},
            Field{"sketch", &S::windows_sketch}, Field{"summary", &S::windows_summary}),
      group("transitions", Field{"up", &S::transitions_up}, Field{"down", &S::transitions_down}),
      group("summaries", Field{"sent", &S::summaries_sent},
            Field{"delivered", &S::summaries_delivered}, Field{"bytes", &S::summary_bytes},
            Field{"artifact_relays_skipped", &S::artifact_relays_skipped}),
      group("ci", Field{"windows", &S::ci_windows}, Field{"covered", &S::ci_covered},
            Field{"coverage", &S::coverage}, Field{"mean_half_width", &S::mean_half_width},
            Field{"mean_abs_error", &S::mean_abs_error},
            Field{"max_abs_error", &S::max_abs_error}),
      Field{"edges", &S::edges}, Field{"windows_truncated", &S::windows_truncated},
      Field{"window_estimates", &S::windows});
};

using VersionHistogram = std::map<std::uint32_t, std::size_t>;

// ---- Writer --------------------------------------------------------------------

void put(std::ostream& out, bool v) { out << (v ? "true" : "false"); }
void put(std::ostream& out, double v) { out << obs::json_number(v); }
void put(std::ostream& out, const std::string& v) { out << '"' << obs::json_escape(v) << '"'; }
template <std::integral I>
void put(std::ostream& out, I v) { out << v; }

void put(std::ostream& out, const double (&v)[4]) {
  out << '[' << obs::json_number(v[0]) << ", " << obs::json_number(v[1]) << ", "
      << obs::json_number(v[2]) << ", " << obs::json_number(v[3]) << ']';
}

void put(std::ostream& out, const VersionHistogram& histogram) {
  const char* sep = "";
  out << '{';
  for (const auto& [id, count] : histogram) {
    out << sep << '"' << id << "\": " << count;
    sep = ", ";
  }
  out << '}';
}

template <class T, class Tuple>
void put_inline(std::ostream& out, const T& x, const Tuple& fields);

template <class U>
void put(std::ostream& out, const std::vector<U>& records) {
  const char* sep = "";
  out << '[';
  for (const U& r : records) {
    out << sep;
    put_inline(out, r, Schema<U>::fields);
    sep = ", ";
  }
  out << ']';
}

template <class T, class M>
void put_entry(std::ostream& out, const T& x, const Field<T, M>& f) {
  out << '"' << f.key << "\": ";
  put(out, x.*f.member);
}

template <class T, class... Fields>
void put_entry(std::ostream& out, const T& x, const Group<Fields...>& g) {
  out << '"' << g.key << "\": ";
  put_inline(out, x, g.fields);
}

template <class T, class Tuple>
void put_inline(std::ostream& out, const T& x, const Tuple& fields) {
  const char* sep = "";
  out << '{';
  std::apply([&](const auto&... e) { ((out << sep, put_entry(out, x, e), sep = ", "), ...); },
             fields);
  out << '}';
}

// A member of the ledger root renders inline, except that a record array
// puts one element per line.
template <class T, class E>
void put_root_entry(std::ostream& out, const T& x, const E& e, const std::string&) {
  put_entry(out, x, e);
}

template <class T, class U>
void put_root_entry(std::ostream& out, const T& x, const Field<T, std::vector<U>>& f,
                    const std::string& ind) {
  const std::vector<U>& records = x.*f.member;
  out << '"' << f.key << "\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << ind << "  ";
    put_inline(out, records[i], Schema<U>::fields);
  }
  out << (records.empty() ? "" : "\n" + ind) << ']';
}

// Renders a ledger object with its members one per line at indentation
// `ind`, closing two spaces shallower — shared by the standalone artifacts
// (ind = "  ") and the blocks nested in FleetReport::to_json.
template <class T>
void put_ledger(std::ostream& out, const T& ledger, const std::string& ind) {
  const char* sep = "{\n";
  std::apply(
      [&](const auto&... e) {
        ((out << sep << ind, put_root_entry(out, ledger, e, ind), sep = ",\n"), ...);
      },
      Schema<T>::fields);
  out << '\n' << ind.substr(2) << '}';
}

template <class T>
std::string ledger_to_json(const T& ledger) {
  std::ostringstream out;
  put_ledger(out, ledger, "  ");
  out << '\n';
  return out.str();
}

// ---- Reader --------------------------------------------------------------------
//
// Every schema key must be present with its member's value kind, and an
// integer must fit its member. On failure `where` names the field, built
// innermost first as the recursion unwinds.

bool fail_at(std::string& where, const std::string& step) {
  where = step + (where.empty() || where[0] == '[' ? "" : ".") + where;
  return false;
}

bool get(const obs::Json& j, bool& v, std::string&) {
  v = j.boolean;
  return j.kind == obs::Json::Kind::kBool;
}
bool get(const obs::Json& j, double& v, std::string&) {
  v = j.number;
  return j.kind == obs::Json::Kind::kNumber;
}
bool get(const obs::Json& j, std::string& v, std::string&) {
  v = j.str;
  return j.kind == obs::Json::Kind::kString;
}
template <std::integral I>
bool get(const obs::Json& j, I& v, std::string&) { return j.to_int(v); }

bool get(const obs::Json& j, double (&v)[4], std::string& where) {
  if (j.kind != obs::Json::Kind::kArray || j.arr.size() != 4) return false;
  for (std::size_t i = 0; i < 4; ++i) {
    if (!get(j.arr[i], v[i], where)) return fail_at(where, '[' + std::to_string(i) + ']');
  }
  return true;
}

// Keys are strict decimal version ids; a repeated id is malformed.
bool get(const obs::Json& j, VersionHistogram& histogram, std::string& where) {
  if (j.kind != obs::Json::Kind::kObject) return false;
  for (const auto& [key, value] : j.obj) {
    std::uint32_t id = 0;
    std::size_t count = 0;
    if (!obs::parse_int(key, id) || !value.to_int(count) || !histogram.emplace(id, count).second) {
      return fail_at(where, '"' + key + '"');
    }
  }
  return true;
}

template <class T, class Tuple>
bool get_object(const obs::Json& j, T& x, const Tuple& fields, std::string& where);

template <class U>
bool get(const obs::Json& j, std::vector<U>& records, std::string& where) {
  if (j.kind != obs::Json::Kind::kArray) return false;
  for (std::size_t i = 0; i < j.arr.size(); ++i) {
    if (!get_object(j.arr[i], records.emplace_back(), Schema<U>::fields, where)) {
      return fail_at(where, '[' + std::to_string(i) + ']');
    }
  }
  return true;
}

template <class T, class M>
bool get_entry(const obs::Json& j, T& x, const Field<T, M>& f, std::string& where) {
  const obs::Json* v = j.find(f.key);
  return (v != nullptr && get(*v, x.*f.member, where)) || fail_at(where, f.key);
}

template <class T, class... Fields>
bool get_entry(const obs::Json& j, T& x, const Group<Fields...>& g, std::string& where) {
  const obs::Json* v = j.find(g.key);
  return (v != nullptr && get_object(*v, x, g.fields, where)) || fail_at(where, g.key);
}

template <class T, class Tuple>
bool get_object(const obs::Json& j, T& x, const Tuple& fields, std::string& where) {
  return j.kind == obs::Json::Kind::kObject &&
         std::apply([&](const auto&... e) { return (get_entry(j, x, e, where) && ...); }, fields);
}

template <class T>
bool ledger_from_json(const std::string& text, T& out, std::string& error) {
  out = T{};
  obs::Json root;
  if (!obs::parse_json(text, root, error)) return false;
  std::string where;
  if (get_object(root, out, Schema<T>::fields, where)) return true;
  error = where.empty() ? "not a JSON object" : "bad or missing field " + where;
  return false;
}

}  // namespace

std::string ota_to_json(const OtaSummary& ota) { return ledger_to_json(ota); }

bool ota_from_json(const std::string& text, OtaSummary& out, std::string& error) {
  return ledger_from_json(text, out, error);
}

std::string degradation_to_json(const DegradationLedger& degradation) {
  return ledger_to_json(degradation);
}

bool degradation_from_json(const std::string& text, DegradationLedger& out, std::string& error) {
  return ledger_from_json(text, out, error);
}

std::size_t FleetReport::rows_accounted() const noexcept {
  return rows_delivered + rows_lost + rows_skipped + rows_stranded +
         faults.rows_corrupt_rejected + faults.rows_buffer_evicted +
         faults.rows_lost_to_crash + faults.rows_retained +
         degradation.rows_sampled_out;
}

std::map<std::string, StageTotals> FleetReport::stage_totals() const {
  std::map<std::string, StageTotals> totals;
  for (const pipeline::StageReport& r : stage_reports) {
    StageTotals& t = totals[r.stage_name];
    if (t.runs == 0) {
      t.player = r.player;
      t.tier = r.tier;
    }
    ++t.runs;
    t.rows_in += r.rows_in;
    t.rows_out += r.rows_out;
    t.cost += r.cost;
  }
  return totals;
}

std::string FleetReport::to_json() const {
  using obs::json_escape;
  using obs::json_number;
  std::ostringstream out;
  out << "{\n";
  out << "  \"devices\": " << devices << ",\n";
  out << "  \"edges\": " << edges << ",\n";
  out << "  \"duration_s\": " << json_number(duration_s) << ",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"rows\": {\"generated\": " << rows_generated
      << ", \"delivered\": " << rows_delivered << ", \"lost\": " << rows_lost
      << ", \"skipped\": " << rows_skipped << ", \"stranded\": " << rows_stranded
      << "},\n";
  out << "  \"messages\": {\"sent\": " << messages_sent
      << ", \"dropped\": " << messages_dropped
      << ", \"duplicates_discarded\": " << duplicates_discarded << "},\n";

  out << "  \"faults\": {\"rows_corrupt_rejected\": " << faults.rows_corrupt_rejected
      << ", \"rows_buffer_evicted\": " << faults.rows_buffer_evicted
      << ", \"rows_lost_to_crash\": " << faults.rows_lost_to_crash
      << ", \"rows_retained\": " << faults.rows_retained
      << ", \"rows_recovered\": " << faults.rows_recovered
      << ", \"edge_crashes\": " << faults.edge_crashes
      << ", \"core_crashes\": " << faults.core_crashes
      << ", \"partitions\": " << faults.partitions
      << ", \"loss_bursts\": " << faults.loss_bursts
      << ", \"corruption_storms\": " << faults.corruption_storms;
  // Load storms joined the chaos harness after the legacy goldens froze:
  // render the counter only when one actually fired.
  if (faults.load_storms > 0) {
    out << ", \"load_storms\": " << faults.load_storms;
  }
  out << ", \"checkpoints_written\": " << faults.checkpoints_written
      << ", \"checkpoints_restored\": " << faults.checkpoints_restored
      << ", \"stale_model_devices\": " << faults.stale_model_devices
      << ", \"rows_accounted\": " << rows_accounted()
      << ", \"conserved\": " << (rows_conserved() ? "true" : "false")
      << ", \"flight_dumps_truncated\": " << faults.flight_dumps_truncated
      << ", \"flight_dumps\": [";
  for (std::size_t i = 0; i < faults.flight_dumps.size(); ++i) {
    const FlightDump& fd = faults.flight_dumps[i];
    out << (i == 0 ? "" : ",") << "\n    {\"entity\": \"" << json_escape(fd.entity)
        << "\", \"trigger\": \"" << json_escape(fd.trigger)
        << "\", \"t_s\": " << json_number(fd.t_s) << ", \"events\": [";
    for (std::size_t j = 0; j < fd.events.size(); ++j) {
      out << (j == 0 ? "" : ", ") << "\"" << json_escape(fd.events[j]) << "\"";
    }
    out << "]}";
  }
  out << "]";
  // Backpressure gauges ride with the degradation contract; legacy runs
  // keep the historical faults object byte-for-byte.
  if (degradation.enabled && !faults.edge_gauges.empty()) {
    out << ", \"edge_gauges\": [";
    for (std::size_t i = 0; i < faults.edge_gauges.size(); ++i) {
      const BackpressureGauge& g = faults.edge_gauges[i];
      out << (i == 0 ? "" : ",") << "\n    {\"edge\": " << g.edge
          << ", \"uplink_in_flight_highwater\": " << g.uplink_in_flight_highwater
          << ", \"device_in_flight_highwater\": " << g.device_in_flight_highwater
          << ", \"uplink_dead_letters\": " << g.uplink_dead_letters
          << ", \"device_dead_letters\": " << g.device_dead_letters
          << ", \"sf_rows_highwater\": " << g.sf_rows_highwater << "}";
    }
    out << "]";
  }
  out << "},\n";

  out << "  \"channels\": {\"sends\": " << channels.sends
      << ", \"delivered\": " << channels.delivered
      << ", \"acks\": " << channels.acks
      << ", \"timeouts\": " << channels.timeouts
      << ", \"retransmits\": " << channels.retransmits
      << ", \"backoff_waits\": " << channels.backoff_waits
      << ", \"backoff_wait_s\": " << json_number(channels.backoff_wait_s)
      << ", \"dead_letters\": " << channels.dead_letters
      << ", \"corrupt_rejected\": " << channels.corrupt_rejected << "},\n";

  out << "  \"stages\": {";
  bool first = true;
  for (const auto& [name, t] : stage_totals()) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": {"
        << "\"player\": \"" << json_escape(t.player) << "\", \"tier\": \""
        << pipeline::tier_name(t.tier) << "\", \"runs\": " << t.runs
        << ", \"rows_in\": " << t.rows_in << ", \"rows_out\": " << t.rows_out
        << ", \"cost\": " << json_number(t.cost) << "}";
    first = false;
  }
  out << "\n  },\n";

  out << "  \"links\": {";
  first = true;
  for (const LinkReport& l : links) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(l.name) << "\": {"
        << "\"messages\": " << l.stats.messages << ", \"bytes\": " << l.stats.bytes
        << ", \"drops\": " << l.stats.drops
        << ", \"corrupted\": " << l.stats.corrupted
        << ", \"duplicates\": " << l.stats.duplicates
        << ", \"retransmits\": " << l.stats.retransmits << "}";
    first = false;
  }
  out << "\n  },\n";

  const auto e2e = latency_tiers.find("end-to-end");
  const LatencySummary latency =
      e2e == latency_tiers.end() ? LatencySummary{} : e2e->second.summary;
  out << "  \"latency\": {\"count\": " << latency.count
      << ", \"mean_s\": " << json_number(latency.mean_s)
      << ", \"p50_s\": " << json_number(latency.p50_s)
      << ", \"p95_s\": " << json_number(latency.p95_s)
      << ", \"max_s\": " << json_number(latency.max_s) << "},\n";

  out << "  \"latency_tiers\": {";
  first = true;
  for (const auto& [tier, b] : latency_tiers) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(tier) << "\": {"
        << "\"count\": " << b.summary.count
        << ", \"mean_s\": " << json_number(b.summary.mean_s)
        << ", \"p50_s\": " << json_number(b.summary.p50_s)
        << ", \"p95_s\": " << json_number(b.summary.p95_s)
        << ", \"max_s\": " << json_number(b.summary.max_s) << ", \"buckets\": [";
    for (std::size_t i = 0; i < b.counts.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"le\": ";
      if (i < b.bounds_s.size()) {
        out << json_number(b.bounds_s[i]);
      } else {
        out << "\"+inf\"";
      }
      out << ", \"count\": " << b.counts[i] << "}";
    }
    out << "]}";
    first = false;
  }
  out << "\n  },\n";
  out << "  \"accuracy\": " << json_number(accuracy) << ",\n";
  out << "  \"train_rows\": " << train_rows << ",\n";
  out << "  \"test_rows\": " << test_rows;
  // Telemetry and deploy blocks render only when their subsystem ran, so
  // legacy report JSON stays byte-identical.
  if (telemetry.enabled) {
    out << ",\n  \"telemetry\": {\n";
    out << "    \"enabled\": true,\n";
    out << "    \"schema\": {\"id\": " << telemetry.schema_id
        << ", \"fields\": " << telemetry.schema_fields
        << ", \"negotiations\": " << telemetry.schema_negotiations
        << ", \"bytes\": " << telemetry.schema_bytes << "},\n";
    out << "    \"frames\": {\"sent\": " << telemetry.frames_sent
        << ", \"delivered\": " << telemetry.frames_delivered
        << ", \"rejected\": " << telemetry.frames_rejected
        << ", \"retransmitted\": " << telemetry.frames_retransmitted << "},\n";
    out << "    \"rows\": {\"encoded\": " << telemetry.rows_encoded
        << ", \"decoded\": " << telemetry.rows_decoded << "},\n";
    out << "    \"bytes\": {\"encoded\": " << telemetry.encoded_wire_bytes
        << ", \"legacy_counterfactual\": " << telemetry.legacy_wire_bytes
        << ", \"per_row\": " << json_number(telemetry.bytes_per_row())
        << ", \"legacy_per_row\": "
        << json_number(telemetry.legacy_bytes_per_row()) << "},\n";
    out << "    \"device_log\": {\"frames_evicted\": "
        << telemetry.log_frames_evicted
        << ", \"rows_evicted\": " << telemetry.log_rows_evicted
        << ", \"highwater_bytes\": " << telemetry.log_highwater_bytes << "},\n";
    out << "    \"decode_identity_ok\": "
        << (telemetry.decode_identity_ok ? "true" : "false") << "\n";
    out << "  }";
  }
  // An OTA-only run still renders the deploy block (its ledger lives
  // there); legacy runs without either remain byte-identical.
  if (deploy.enabled || deploy.ota.enabled) {
    out << ",\n  \"deploy\": {\n";
    out << "    \"model\": \"" << json_escape(deploy.model) << "\",\n";
    out << "    \"precision\": \"" << json_escape(deploy.precision) << "\",\n";
    out << "    \"artifact_bytes\": {\"float32\": " << deploy.artifact_bytes_float32
        << ", \"deployed\": " << deploy.artifact_bytes_deployed << "},\n";
    out << "    \"devices\": {\"deployed\": " << deploy.devices_deployed
        << ", \"stale\": " << deploy.devices_stale
        << ", \"missed\": " << deploy.devices_missed << "},\n";
    out << "    \"rows_scored\": " << deploy.rows_scored << ",\n";
    out << "    \"rows_scored_stale\": " << deploy.rows_scored_stale << ",\n";
    out << "    \"predictions\": {\"delivered\": " << deploy.predictions_delivered
        << ", \"correct\": " << deploy.predictions_correct << "},\n";
    out << "    \"bytes\": {\"downlink\": " << deploy.downlink_bytes
        << ", \"uplink_predictions\": " << deploy.uplink_prediction_bytes
        << ", \"uplink_raw_counterfactual\": " << deploy.uplink_raw_bytes << "},\n";
    out << "    \"holdout_accuracy\": {\"float32\": "
        << json_number(deploy.holdout_accuracy_float)
        << ", \"deployed\": " << json_number(deploy.holdout_accuracy_deployed)
        << "},\n";
    out << "    \"device_accuracy\": " << json_number(deploy.device_accuracy) << ",\n";
    out << "    \"cost_per_row\": {\"multiply_adds\": " << deploy.cost_multiply_adds
        << ", \"comparisons\": " << deploy.cost_comparisons
        << ", \"table_lookups\": " << deploy.cost_table_lookups << "}";
    if (deploy.ota.enabled) {
      out << ",\n    \"ota\": ";
      put_ledger(out, deploy.ota, "      ");
      out << "\n";
    } else {
      out << "\n";
    }
    out << "  }";
  }
  if (degradation.enabled) {
    out << ",\n  \"degradation\": ";
    put_ledger(out, degradation, "    ");
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace iotml::sim
