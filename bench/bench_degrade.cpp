// Graceful-degradation frontier (DESIGN.md §16): error bound vs speedup for
// the backpressure ladder at the 1k- and 10k-device scales under compound
// chaos plus a load storm. Each ladder level is pinned in turn so the cost
// and error of every rung is measured against the exact L0 baseline on the
// same seed, then a free-running ladder is driven through the same storm to
// assert the acceptance contract: every edge escalates, sheds, and returns
// to L0 with the row-conservation ledger closed.
//
// Gates (the ISSUE acceptance bounds):
//   * the 95% CI on sampled/sketched window means covers the exact answer
//     on >= 90% of windows at every approximate rung;
//   * L2 sketch-only reduce cuts the edge-tier reduce cost by >= 3x vs the
//     exact L0 ladder at the 1k-device scale and beyond;
//   * the free-running ladder returns every edge to L0 after the storm and
//     rows_conserved() holds at every rung.
//
// Every metric in BENCH_degrade.json is a pure function of (config, seed);
// the bench re-runs the smallest fleet and asserts byte-identical JSON.
//
// IOTML_DEGRADE_SMOKE=1 shrinks the fleets to CI size while keeping every
// metric key present, so the degrade-smoke job can validate the JSON shape.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "sim/fleet.hpp"
#include "util/strings.hpp"

namespace {

using namespace iotml;

bool smoke_mode() {
  const char* env = std::getenv("IOTML_DEGRADE_SMOKE");  // NOLINT(concurrency-mt-unsafe)
  return env != nullptr && std::string(env) == "1";
}

// Compound chaos + load storm over an ack fleet with a shallow send queue:
// the storm compresses every device's flush schedule while partitions and
// loss bursts back the uplinks up, so backpressure is real at every scale.
sim::FleetConfig storm_config(std::size_t devices, std::size_t edges,
                              double duration_s, std::uint64_t seed) {
  sim::FleetConfig config;
  config.devices = devices;
  config.edges = edges;
  config.duration_s = duration_s;
  config.seed = seed;
  config.channel.mode = net::ChannelMode::kAckRetry;
  config.channel.queue_capacity = 4;
  config.checkpoint_interval_s = 2.0;
  config.device_buffer_rows = 4096;
  config.chaos.partitions = 1.0;
  config.chaos.partition_mean_s = 4.0;
  config.chaos.loss_bursts = 1.0;
  config.chaos.burst_mean_s = 3.0;
  config.chaos.corruption_storms = 1.0;
  config.chaos.storm_mean_s = 3.0;
  config.chaos.load_storms = 2.0;
  config.chaos.load_storm_mean_s = 6.0;
  config.chaos.load_storm_factor = 4.0;
  config.degrade.enabled = true;
  return config;
}

double edge_tier_cost(const sim::FleetReport& report) {
  double cost = 0.0;
  for (const auto& [name, totals] : report.stage_totals()) {
    if (totals.tier == pipeline::Tier::kEdge) cost += totals.cost;
  }
  return cost;
}

}  // namespace

int main() {
  const bool smoke = smoke_mode();
  std::printf("graceful degradation: error bound vs edge reduce speedup%s\n\n",
              smoke ? " (smoke)" : "");

  bench::BenchReport report("degrade");
  report.deterministic();
  report.note("mode", smoke ? "smoke" : "full");
  report.seed(9001);

  struct Scale {
    const char* key;
    std::size_t devices;
    std::size_t edges;
    double duration_s;
    double sensor_period_s;
    bool gated;  ///< the >= 3x L2 bound applies (1k devices and beyond)
  };
  std::vector<Scale> scales = {
      {"fleet1000", smoke ? std::size_t{20} : std::size_t{1000},
       smoke ? std::size_t{2} : std::size_t{8}, smoke ? 30.0 : 12.0, 0.5,
       true},
  };
  if (!smoke) {
    // Wider tree and slower sensors at 10k: per-edge buffers stay bounded,
    // so the frontier gets the scale without the hours.
    scales.push_back({"fleet10000", 10000, 64, 6.0, 1.0, true});
  } else {
    // Smoke keeps the key set identical at CI size.
    scales.push_back({"fleet10000", 50, 2, 20.0, 0.5, true});
  }

  bool all_ok = true;
  sim::FleetReport witness;
  bool witness_set = false;
  std::vector<std::vector<std::string>> rows;
  for (const Scale& scale : scales) {
    double l0_cost = 0.0;
    for (int pin = 0; pin <= 3; ++pin) {
      sim::FleetConfig config =
          storm_config(scale.devices, scale.edges, scale.duration_s, 9001);
      config.sensor_period_s = scale.sensor_period_s;
      config.degrade.pin_level = pin;
      sim::FleetSim fleet(config);
      const sim::FleetReport r = fleet.run();
      if (!witness_set && pin == 0) {
        witness = r;
        witness_set = true;
      }
      const sim::DegradationLedger& d = r.degradation;

      const double cost = edge_tier_cost(r);
      if (pin == 0) l0_cost = cost;
      const double speedup = cost > 0.0 ? l0_cost / cost : 0.0;
      const bool conserved = r.rows_conserved();
      all_ok = all_ok && conserved;
      if (pin == 1 || pin == 2) {
        // The headline error bound: 95% CIs cover the exact window mean on
        // at least 90% of windows at every approximate rung that emits CIs.
        all_ok = all_ok && d.ci_windows > 0 && d.coverage >= 0.90;
      }
      if (pin == 2 && scale.gated) {
        // The headline speedup bound: sketch-only reduce at a third of the
        // exact edge cost or less.
        all_ok = all_ok && cost <= l0_cost / 3.0;
      }

      const std::string key =
          std::string(scale.key) + ".pin" + std::to_string(pin);
      report.metric(key + ".edge_cost", cost);
      report.metric(key + ".edge_speedup_vs_l0", speedup);
      report.metric(key + ".ci_coverage", d.coverage);
      report.metric(key + ".ci_mean_half_width", d.mean_half_width);
      report.metric(key + ".ci_windows", static_cast<double>(d.ci_windows));
      report.metric(key + ".max_abs_error", d.max_abs_error);
      report.metric(key + ".rows_exact", static_cast<double>(d.rows_exact));
      report.metric(key + ".rows_approx", static_cast<double>(d.rows_approx));
      report.metric(key + ".rows_sampled_out",
                    static_cast<double>(d.rows_sampled_out));
      report.metric(key + ".summaries_sent",
                    static_cast<double>(d.summaries_sent));
      report.metric(key + ".summary_bytes",
                    static_cast<double>(d.summary_bytes));
      report.metric(key + ".rows_delivered",
                    static_cast<double>(r.rows_delivered));
      report.metric(key + ".rows_conserved", conserved ? 1.0 : 0.0);

      rows.push_back({scale.key, std::to_string(scale.devices),
                      "L" + std::to_string(pin), format_double(cost, 1),
                      format_double(speedup, 2),
                      d.ci_windows > 0 ? format_double(d.coverage, 3) : "-",
                      d.ci_windows > 0 ? format_double(d.mean_half_width, 4)
                                       : "-",
                      std::to_string(d.rows_sampled_out),
                      conserved ? "yes" : "NO"});
    }
  }
  std::printf("%s\n",
              render_table({"scale", "devices", "pin", "edge cost", "speedup",
                            "CI cover", "half-width", "rows shed",
                            "conserved"},
                           rows)
                  .c_str());

  // ---- Free-running acceptance scenario ------------------------------------
  // Compound chaos + load storm with bands tight enough that the ladder
  // must move, then the built-in calm settle: the contract is that every
  // edge ends back at L0 with the ledger closed and no flapping (asserted
  // at unit scale in test_degrade; re-checked here at bench scale).
  {
    sim::FleetConfig config =
        storm_config(smoke ? 20 : 200, smoke ? 2 : 4, 40.0, 9001);
    config.degrade.dead_letter_rate_ref = 0.25;
    config.degrade.thresholds.up = {0.2, 0.6, 1.2};
    config.degrade.thresholds.down = {0.1, 0.4, 0.9};
    config.degrade.thresholds.dwell_s = 3.0;
    sim::FleetSim fleet(config);
    const sim::FleetReport r = fleet.run();
    const sim::DegradationLedger& d = r.degradation;
    bool all_l0 = true;
    std::uint64_t max_level_seen = 0;
    for (const sim::EdgeDegradeTimeline& tl : d.edges) {
      all_l0 = all_l0 && tl.final_level == 0;
      for (const sim::DegradeTransitionEntry& tr : tl.transitions) {
        max_level_seen =
            std::max(max_level_seen, static_cast<std::uint64_t>(tr.to));
      }
    }
    const bool ladder_ok = all_l0 && d.transitions_up > 0 && r.rows_conserved();
    all_ok = all_ok && ladder_ok;
    report.metric("ladder.transitions_up",
                  static_cast<double>(d.transitions_up));
    report.metric("ladder.transitions_down",
                  static_cast<double>(d.transitions_down));
    report.metric("ladder.max_level_seen",
                  static_cast<double>(max_level_seen));
    report.metric("ladder.all_edges_l0", all_l0 ? 1.0 : 0.0);
    report.metric("ladder.rows_conserved", r.rows_conserved() ? 1.0 : 0.0);
    report.metric("ladder.load_storms",
                  static_cast<double>(r.faults.load_storms));
    std::printf("free-running ladder: %llu up / %llu down, peak L%llu, "
                "all edges back at L0: %s, conserved: %s\n\n",
                static_cast<unsigned long long>(d.transitions_up),
                static_cast<unsigned long long>(d.transitions_down),
                static_cast<unsigned long long>(max_level_seen),
                all_l0 ? "yes" : "NO",
                r.rows_conserved() ? "yes" : "NO");
  }

  const bool gate_met = all_ok;
  std::printf("degradation gates (CI coverage >= 90%%, L2 edge cost <= 1/3 "
              "of L0 at 1k+ devices, ladder settles at L0): %s\n\n",
              gate_met ? "met" : "MISSED");

  // ---- Determinism witness -------------------------------------------------
  // Same seed, same config: FleetReport and degradation JSON byte-identical.
  sim::FleetConfig again_cfg = storm_config(
      scales[0].devices, scales[0].edges, scales[0].duration_s, 9001);
  again_cfg.degrade.pin_level = 0;
  sim::FleetSim again(again_cfg);
  const sim::FleetReport again_report = again.run();
  const bool deterministic =
      again_report.to_json() == witness.to_json() &&
      sim::degradation_to_json(again_report.degradation) ==
          sim::degradation_to_json(witness.degradation);
  report.metric("determinism_ok", deterministic ? 1.0 : 0.0);
  std::printf("determinism: re-run of the pinned-L0 fleet is %s\n",
              deterministic ? "byte-identical" : "DIVERGENT");

  report.write();
  return gate_met && deterministic ? 0 : 1;
}
