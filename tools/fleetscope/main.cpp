// fleetscope — operator console for the fleet observatory (DESIGN.md §13).
//
//   fleetscope <artifact-dir> [--journeys N] [--flight N] [--columns N]
//       Read timeseries.json / journeys.jsonl / flightrec.json written by a
//       FleetSim run (ObservatoryConfig::artifact_dir) and print the health
//       summary, reconstructed device -> edge -> core journeys, per-tier
//       heatmap tables and flight-recorder rings.
//
//   fleetscope --self-check
//       Run a small compound-chaos fleet (partition + edge crash + 10%
//       corruption storm, ack transport, store-and-forward, checkpoints)
//       in-process with the observatory on, write its artifacts, read them
//       back through the same parsers the offline mode uses and verify that
//       at least 99% of delivered rows reconstruct a complete per-hop
//       journey. Exits non-zero on any failure — wired into ctest as
//       tools.fleetscope_selfcheck.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "scope.hpp"
#include "sim/fleet.hpp"

namespace {

using namespace iotml;

int usage() {
  std::fprintf(stderr,
               "usage: fleetscope <artifact-dir> [--journeys N] [--flight N] "
               "[--columns N]\n"
               "       fleetscope versions <artifact-dir>\n"
               "       fleetscope degradation <artifact-dir>\n"
               "       fleetscope --self-check\n");
  return 2;
}

bool load_artifacts(const std::string& dir, fleetscope::JourneyFile& journeys,
                    fleetscope::SeriesFile& series, fleetscope::FlightFile& flight) {
  std::string error;
  {
    std::ifstream in(dir + "/journeys.jsonl");
    if (!in) {
      std::fprintf(stderr, "fleetscope: cannot open %s/journeys.jsonl\n", dir.c_str());
      return false;
    }
    if (!fleetscope::parse_journeys(in, journeys, error)) {
      std::fprintf(stderr, "fleetscope: %s\n", error.c_str());
      return false;
    }
  }
  {
    std::ifstream in(dir + "/timeseries.json");
    if (!in) {
      std::fprintf(stderr, "fleetscope: cannot open %s/timeseries.json\n", dir.c_str());
      return false;
    }
    if (!fleetscope::parse_timeseries(in, series, error)) {
      std::fprintf(stderr, "fleetscope: %s\n", error.c_str());
      return false;
    }
  }
  {
    std::ifstream in(dir + "/flightrec.json");
    if (!in) {
      std::fprintf(stderr, "fleetscope: cannot open %s/flightrec.json\n", dir.c_str());
      return false;
    }
    if (!fleetscope::parse_flightrec(in, flight, error)) {
      std::fprintf(stderr, "fleetscope: %s\n", error.c_str());
      return false;
    }
  }
  return true;
}

// Reads the report ledger <dir>/<name>, written when the run had `knob`
// set, back into the simulator's struct through `from_json`. Prints why on
// stderr and returns false on failure.
template <class Ledger>
bool load_ledger(const std::string& dir, const char* name, const char* knob,
                 bool (*from_json)(const std::string&, Ledger&, std::string&),
                 Ledger& out) {
  std::ifstream in(dir + "/" + name);
  if (!in) {
    std::fprintf(stderr, "fleetscope: cannot open %s/%s (was the run configured "
                 "with %s?)\n", dir.c_str(), name, knob);
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  if (!from_json(text.str(), out, error)) {
    std::fprintf(stderr, "fleetscope: %s: %s\n", name, error.c_str());
    return false;
  }
  return true;
}

// The `versions` view: render the OTA version-chain histogram and the
// canary promote/rollback timeline from <dir>/ota.json.
int scope_versions(const std::string& dir) {
  sim::OtaSummary ota;
  if (!load_ledger(dir, "ota.json", "ota.enabled", sim::ota_from_json, ota)) {
    return 1;
  }
  std::printf("%s", fleetscope::render_versions(ota).c_str());
  return 0;
}

// The `degradation` view: render the per-edge ladder timeline and the
// bounded-error ledger from <dir>/degradation.json.
int scope_degradation(const std::string& dir) {
  sim::DegradationLedger degrade;
  if (!load_ledger(dir, "degradation.json", "degrade.enabled",
                   sim::degradation_from_json, degrade)) {
    return 1;
  }
  std::printf("%s", fleetscope::render_degradation(degrade).c_str());
  return 0;
}

int scope_dir(const std::string& dir, std::size_t journey_limit,
              std::size_t flight_limit, std::size_t columns) {
  fleetscope::JourneyFile journeys;
  fleetscope::SeriesFile series;
  fleetscope::FlightFile flight;
  if (!load_artifacts(dir, journeys, series, flight)) return 1;
  const fleetscope::Reconstruction recon(journeys);
  std::printf("%s\n", fleetscope::render_health(journeys, recon, flight).c_str());
  std::printf("%s\n", fleetscope::render_journeys(recon, journey_limit).c_str());
  std::printf("%s", fleetscope::render_heatmap(series, columns).c_str());
  std::printf("%s", fleetscope::render_flight(flight, flight_limit).c_str());
  return 0;
}

bool check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  return ok;
}

int self_check() {
  std::printf("fleetscope --self-check: compound chaos journey reconstruction\n");

  // The chaos mix from the acceptance criteria: a core partition, an edge
  // crash cycle and a 10% corruption storm, with the fault-tolerance stack
  // (ack transport, store-and-forward, checkpoints) turned on so rows keep
  // flowing through retries and drains — the hardest paths for provenance.
  sim::FleetConfig config;
  config.devices = 20;
  config.edges = 2;
  config.duration_s = 20.0;
  config.seed = 7;
  config.faults.edge_crashes = 1.0;
  config.faults.edge_downtime_mean_s = 3.0;
  config.chaos.partitions = 1.0;
  config.chaos.partition_mean_s = 4.0;
  config.chaos.corruption_storms = 1.0;
  config.chaos.storm_mean_s = 5.0;
  config.chaos.storm_corrupt_prob = 0.1;
  config.channel.mode = net::ChannelMode::kAckRetry;
  config.channel.ack_timeout_s = 0.1;
  config.channel.max_attempts = 6;
  config.checkpoint_interval_s = 2.0;
  config.device_buffer_rows = 4096;
  // The epochal OTA loop rides along so the `versions` view is exercised
  // against a ledger produced under the same chaos. Tight flush cadence so
  // the core has rows before the first epoch fires.
  config.device_flush_s = 2.0;
  config.edge_flush_s = 3.0;
  config.ota.enabled = true;
  config.ota.epochs = 3;
  config.observatory.enabled = true;
  const std::string dir = "fleetscope_selfcheck.artifacts";
  config.observatory.artifact_dir = dir;

  sim::FleetSim fleet(config);
  const sim::FleetReport report = fleet.run();

  bool ok = true;
  ok &= check(report.rows_delivered > 0, "run delivered rows");
  ok &= check(report.rows_conserved(), "row conservation held");
  ok &= check(report.faults.edge_crashes + report.faults.partitions +
                      report.faults.corruption_storms >
                  0,
              "chaos actually fired");

  fleetscope::JourneyFile journeys;
  fleetscope::SeriesFile series;
  fleetscope::FlightFile flight;
  ok &= check(load_artifacts(dir, journeys, series, flight),
              "artifacts parse through the offline readers");
  if (!ok) return 1;

  ok &= check(journeys.meta_present && journeys.meta_dropped == 0,
              "journey log shed no records");
  ok &= check(journeys.meta_records == journeys.records.size(),
              "journey record count matches the writer's meta line");
  ok &= check(!series.series.empty(), "time-series artifact has series");
  ok &= check(!flight.entities.empty(), "flight recorder noted events");
  ok &= check(!report.faults.flight_dumps.empty(),
              "fault triggers dumped flight rings into the report");

  const fleetscope::Reconstruction recon(journeys);
  const fleetscope::Completeness& c = recon.completeness();
  std::printf(
      "  journeys: %zu origins, %zu delivered, %zu complete "
      "(rows %llu/%llu = %.2f%%)\n",
      c.origins_total, c.origins_delivered, c.origins_complete,
      static_cast<unsigned long long>(c.rows_complete),
      static_cast<unsigned long long>(c.rows_delivered), 100.0 * c.row_fraction());
  ok &= check(c.origins_delivered > 0, "delivered origins exist to reconstruct");
  ok &= check(c.row_fraction() >= 0.99,
              "at least 99% of delivered rows reconstruct a full journey");

  // The versions view reads ota.json back into an OtaSummary through the
  // ledger's own schema; rendered again it must match the in-process
  // ledger byte for byte.
  const sim::OtaSummary& ledger = report.deploy.ota;
  sim::OtaSummary ota;
  ok &= check(load_ledger(dir, "ota.json", "ota.enabled", sim::ota_from_json, ota),
              "ota.json reads back through the ledger schema");
  ok &= check(sim::ota_to_json(ota) == sim::ota_to_json(ledger),
              "ota.json round-trips to the in-process ledger's bytes");
  std::size_t histogram_devices = 0;
  for (const auto& [id, count] : ota.version_histogram) histogram_devices += count;
  ok &= check(histogram_devices == config.devices,
              "version histogram accounts for every device");
  ok &= check(ota.all_devices_verified,
              "every device ends on a checksum-verified version");

  std::printf("%s", fleetscope::render_health(journeys, recon, flight).c_str());
  std::printf("%s", fleetscope::render_versions(ota).c_str());

  // A second small fleet exercises the degradation ladder (DESIGN.md §16):
  // a load storm over a shallow ack queue with bands tight enough that the
  // ladder must move, then degradation.json is read back and checked against
  // the in-process ledger byte for byte.
  {
    sim::FleetConfig dcfg;
    dcfg.devices = 20;
    dcfg.edges = 2;
    dcfg.duration_s = 30.0;
    dcfg.seed = 7;
    dcfg.channel.mode = net::ChannelMode::kAckRetry;
    dcfg.channel.queue_capacity = 2;
    dcfg.checkpoint_interval_s = 2.0;
    dcfg.device_buffer_rows = 4096;
    dcfg.chaos.partitions = 1.0;
    dcfg.chaos.partition_mean_s = 4.0;
    dcfg.chaos.loss_bursts = 1.0;
    dcfg.chaos.burst_mean_s = 3.0;
    dcfg.chaos.load_storms = 3.0;
    dcfg.chaos.load_storm_mean_s = 6.0;
    dcfg.chaos.load_storm_factor = 6.0;
    dcfg.degrade.enabled = true;
    dcfg.degrade.dead_letter_rate_ref = 0.25;
    dcfg.degrade.thresholds.up = {0.2, 0.6, 1.2};
    dcfg.degrade.thresholds.down = {0.1, 0.4, 0.9};
    dcfg.degrade.thresholds.dwell_s = 3.0;
    dcfg.observatory.enabled = true;
    const std::string ddir = "fleetscope_selfcheck.degrade.artifacts";
    dcfg.observatory.artifact_dir = ddir;
    sim::FleetSim dfleet(dcfg);
    const sim::FleetReport dreport = dfleet.run();
    const sim::DegradationLedger& dledger = dreport.degradation;

    sim::DegradationLedger degrade;
    ok &= check(load_ledger(ddir, "degradation.json", "degrade.enabled",
                            sim::degradation_from_json, degrade),
                "degradation.json reads back through the ledger schema");
    ok &= check(sim::degradation_to_json(degrade) ==
                    sim::degradation_to_json(dledger),
                "degradation.json round-trips to the in-process ledger's bytes");
    ok &= check(dreport.rows_conserved(),
                "degraded run's conservation ledger closes");
    ok &= check(dledger.transitions_up > 0, "the ladder actually moved");
    bool settled = true;
    for (const sim::EdgeDegradeTimeline& e : degrade.edges) {
      settled = settled && e.final_level == 0;
    }
    ok &= check(settled, "every edge settled back to L0");
    std::printf("%s", fleetscope::render_degradation(degrade).c_str());
  }

  std::printf("self-check %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::size_t journey_limit = 3;
  std::size_t flight_limit = 4;
  std::size_t columns = 40;
  bool run_self_check = false;
  bool versions_view = false;
  bool degradation_view = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_size = [&](std::size_t& out) {
      if (i + 1 >= argc) return false;
      return obs::parse_int(argv[++i], out) && out > 0;
    };
    if (arg == "--self-check") {
      run_self_check = true;
    } else if (arg == "versions" && !versions_view && !degradation_view &&
               dir.empty()) {
      versions_view = true;
    } else if (arg == "degradation" && !versions_view && !degradation_view &&
               dir.empty()) {
      degradation_view = true;
    } else if (arg == "--journeys") {
      if (!next_size(journey_limit)) return usage();
    } else if (arg == "--flight") {
      if (!next_size(flight_limit)) return usage();
    } else if (arg == "--columns") {
      if (!next_size(columns)) return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage();
    }
  }

  if (run_self_check) return self_check();
  if (dir.empty()) return usage();
  if (versions_view) return scope_versions(dir);
  if (degradation_view) return scope_degradation(dir);
  return scope_dir(dir, journey_limit, flight_limit, columns);
}
