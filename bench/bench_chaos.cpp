// E-CHAOS: the fleet runtime under systematic fault injection — delivery,
// accuracy and latency as chaos intensity grows, fire-and-forget vs the
// ack/retry reliable transport under identical fault schedules. The headline
// row is the compound scenario of ISSUE acceptance: a core partition, edge
// crash-restart cycles and a 10% corruption storm at 100 devices, where the
// fault-tolerant stack (ack transport + edge checkpoints + device
// store-and-forward) must keep end-to-end delivery at >= 95% while the
// row-conservation ledger stays balanced.
//
// Every metric in BENCH_chaos.json is a pure function of (config, seed):
// the report runs in deterministic mode (measured times zeroed) and the
// bench re-runs the compound scenario to assert the FleetReport JSON is
// byte-identical — the artifact doubles as a determinism witness.
//
// IOTML_CHAOS_SMOKE=1 shrinks the fleet to CI size while keeping every
// metric key present, so the chaos-smoke job can validate the JSON shape.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "sim/fleet.hpp"
#include "util/strings.hpp"

namespace {

using namespace iotml;

bool smoke_mode() {
  const char* env = std::getenv("IOTML_CHAOS_SMOKE");  // NOLINT(concurrency-mt-unsafe)
  return env != nullptr && std::string(env) == "1";
}

/// The shared fleet under test; chaos and transport vary per run.
sim::FleetConfig base_config(bool smoke) {
  sim::FleetConfig config;
  config.devices = smoke ? 20 : 100;
  config.edges = smoke ? 2 : 4;
  config.duration_s = smoke ? 20.0 : 60.0;
  config.seed = 2026;
  return config;
}

/// The recovery machinery the reliable stack brings: stop-and-wait acks,
/// periodic edge checkpoints, bounded device store-and-forward.
void enable_fault_tolerance(sim::FleetConfig& config) {
  config.channel.mode = net::ChannelMode::kAckRetry;
  config.channel.ack_timeout_s = 0.1;
  config.channel.backoff_base_s = 0.05;
  config.channel.backoff_cap_s = 1.0;
  config.channel.max_attempts = 6;
  config.checkpoint_interval_s = 2.0;
  config.device_buffer_rows = 4096;
}

struct RunResult {
  double delivery = 0.0;
  double accuracy = 0.0;
  double p95_s = 0.0;
  bool conserved = false;
  sim::FleetReport report;
};

RunResult run(const sim::FleetConfig& config) {
  sim::FleetSim fleet(config);
  RunResult r;
  r.report = fleet.run();
  r.delivery = r.report.rows_generated > 0
                   ? static_cast<double>(r.report.rows_delivered) /
                         static_cast<double>(r.report.rows_generated)
                   : 0.0;
  r.accuracy = r.report.accuracy;
  r.p95_s = r.report.latency_tiers.at("end-to-end").summary.p95_s;
  r.conserved = r.report.rows_conserved();
  return r;
}

}  // namespace

int main() {
  const bool smoke = smoke_mode();
  std::printf("E-CHAOS: fault injection vs delivery/accuracy/latency%s\n\n",
              smoke ? " (smoke)" : "");

  bench::BenchReport report("chaos");
  report.deterministic();
  report.note("mode", smoke ? "smoke" : "full");
  report.seed(base_config(smoke).seed);

  // ---- Intensity sweep: fire-and-forget vs ack under the same faults --------
  struct Level {
    const char* key;
    double scale;  ///< multiplies every chaos rate below
  };
  std::vector<std::vector<std::string>> rows;
  bool all_conserved = true;
  for (const Level& level : {Level{"calm", 0.0}, Level{"mild", 1.0}, Level{"severe", 3.0}}) {
    for (const bool ack : {false, true}) {
      sim::FleetConfig config = base_config(smoke);
      config.faults.edge_crashes = 0.5 * level.scale;
      config.faults.edge_downtime_mean_s = 3.0;
      config.chaos.partitions = 0.5 * level.scale;
      config.chaos.partition_mean_s = 4.0;
      config.chaos.loss_bursts = 0.5 * level.scale;
      config.chaos.burst_drop_prob = 0.4;
      config.chaos.corruption_storms = 0.5 * level.scale;
      config.chaos.storm_corrupt_prob = 0.1;
      if (ack) enable_fault_tolerance(config);

      const RunResult r = run(config);
      all_conserved = all_conserved && r.conserved;
      const std::string key =
          std::string(level.key) + "." + (ack ? "ack" : "ff");
      report.metric("delivery_ratio." + key, r.delivery);
      report.metric("accuracy." + key, r.accuracy);
      report.metric("latency_p95_s." + key, r.p95_s);
      rows.push_back({level.key, ack ? "ack-retry" : "fire-and-forget",
                      std::to_string(r.report.rows_generated),
                      std::to_string(r.report.rows_delivered),
                      format_double(r.delivery, 3), format_double(r.accuracy, 3),
                      format_double(r.p95_s, 3), r.conserved ? "yes" : "NO"});
    }
  }
  std::printf("%s\n",
              render_table({"chaos", "transport", "generated", "delivered",
                            "delivery", "accuracy", "p95 s", "ledger"},
                           rows)
                  .c_str());

  // ---- Compound acceptance scenario -----------------------------------------
  // Partition + edge crash-restart + 10% corruption storm, full recovery
  // stack on. This is the configuration the chaos tests pin down.
  auto compound_config = [&](bool ack) {
    sim::FleetConfig config = base_config(smoke);
    config.faults.edge_crashes = 1.0;
    config.faults.edge_downtime_mean_s = 3.0;
    config.chaos.partitions = 1.0;
    config.chaos.partition_mean_s = 4.0;
    config.chaos.corruption_storms = 1.0;
    config.chaos.storm_mean_s = 5.0;
    config.chaos.storm_corrupt_prob = 0.1;
    if (ack) enable_fault_tolerance(config);
    return config;
  };

  const RunResult baseline = run(compound_config(false));
  const RunResult tolerant = run(compound_config(true));
  all_conserved = all_conserved && baseline.conserved && tolerant.conserved;

  const sim::FaultLedger& ledger = tolerant.report.faults;
  report.metric("compound.delivery_ratio.ff", baseline.delivery);
  report.metric("compound.delivery_ratio.ack", tolerant.delivery);
  report.metric("compound.accuracy.ff", baseline.accuracy);
  report.metric("compound.accuracy.ack", tolerant.accuracy);
  report.metric("compound.latency_p95_s.ack", tolerant.p95_s);
  report.metric("compound.rows_corrupt_rejected", static_cast<double>(ledger.rows_corrupt_rejected));
  report.metric("compound.rows_lost_to_crash", static_cast<double>(ledger.rows_lost_to_crash));
  report.metric("compound.rows_recovered", static_cast<double>(ledger.rows_recovered));
  report.metric("compound.checkpoints_restored", static_cast<double>(ledger.checkpoints_restored));
  report.metric("compound.retransmits", static_cast<double>(tolerant.report.channels.retransmits));
  report.metric("compound.dead_letters", static_cast<double>(tolerant.report.channels.dead_letters));
  report.metric("ledger_balanced", all_conserved ? 1.0 : 0.0);
  report.metric("delivery_target_met", tolerant.delivery >= 0.95 ? 1.0 : 0.0);

  std::printf("compound scenario (partition + edge crashes + 10%% corruption):\n"
              "  fire-and-forget delivery %.3f, ack-retry delivery %.3f (target >= 0.95)\n"
              "  corrupt-rejected %zu rows, lost-to-crash %zu rows, recovered %zu rows\n\n",
              baseline.delivery, tolerant.delivery, ledger.rows_corrupt_rejected,
              ledger.rows_lost_to_crash, ledger.rows_recovered);

  // ---- Determinism witness --------------------------------------------------
  // Same seed, same config: the FleetReport JSON must be byte-identical.
  const RunResult again = run(compound_config(true));
  const bool deterministic =
      again.report.to_json() == tolerant.report.to_json();
  report.metric("determinism_ok", deterministic ? 1.0 : 0.0);
  std::printf("determinism: re-run of the compound scenario is %s\n",
              deterministic ? "byte-identical" : "DIVERGENT");

  report.write();
  return all_conserved && deterministic ? 0 : 1;
}
