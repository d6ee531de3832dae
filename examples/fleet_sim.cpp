// The paper's Fig. 1 as a running distributed system: a 100-device fleet
// samples noisy sensors, flushes windows over lossy links to 4 edge nodes,
// which integrate, prepare and batch-forward to the core, where the records
// are reduced and a decision tree learns the analytics concept — with link
// outages and device churn injected along the way. Everything below is
// deterministic for a given seed (virtual clock, seeded Rngs end to end).
//
// The example doubles as an end-to-end consistency check: it reconciles the
// aggregated stage totals against the raw per-run StageReports, verifies
// row conservation across the transport, and confirms every phase of the
// paper's acquisition -> integration -> preparation -> reduction -> analytics
// chain actually executed. Exit code 1 on any mismatch.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/fleet.hpp"
#include "util/strings.hpp"

namespace {

using namespace iotml;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

int main() {
  sim::FleetConfig config;
  config.devices = 100;
  config.edges = 4;
  config.duration_s = 60.0;
  config.seed = 2024;
  config.faults.link_outages = 1.0;         // expected outages per link
  config.faults.link_outage_mean_s = 4.0;
  config.faults.device_churns = 0.5;        // expected offline periods per device
  config.faults.device_offtime_mean_s = 8.0;

  std::printf("fleet_sim: %zu devices -> %zu edges -> core, %.0f s window, seed %llu\n",
              config.devices, config.edges, config.duration_s,
              static_cast<unsigned long long>(config.seed));
  std::printf("faults: ~%.1f outages/link (mean %.0f s), ~%.1f churns/device (mean %.0f s)\n\n",
              config.faults.link_outages, config.faults.link_outage_mean_s,
              config.faults.device_churns, config.faults.device_offtime_mean_s);

  sim::FleetSim fleet(config);
  const sim::FleetReport report = fleet.run();

  // ---- Per-stage totals (the paper's pipeline ledger) -------------------------
  const std::map<std::string, sim::StageTotals> totals = report.stage_totals();
  std::vector<std::vector<std::string>> stage_rows;
  for (const auto& [name, t] : totals) {
    stage_rows.push_back({name, pipeline::tier_name(t.tier), t.player,
                          std::to_string(t.runs), std::to_string(t.rows_in),
                          std::to_string(t.rows_out), format_double(t.cost, 1)});
  }
  std::printf("%s\n", render_table({"stage", "tier", "player", "runs", "rows in",
                                    "rows out", "cost"},
                                   stage_rows)
                          .c_str());

  // ---- Transport ledger -------------------------------------------------------
  net::LinkStats device_total;
  std::vector<std::vector<std::string>> link_rows;
  for (const sim::LinkReport& l : report.links) {
    if (starts_with(l.name, "dev")) {
      device_total.messages += l.stats.messages;
      device_total.bytes += l.stats.bytes;
      device_total.drops += l.stats.drops;
      device_total.duplicates += l.stats.duplicates;
      device_total.retransmits += l.stats.retransmits;
    } else {
      link_rows.push_back({l.name, std::to_string(l.stats.messages),
                           std::to_string(l.stats.bytes), std::to_string(l.stats.drops),
                           std::to_string(l.stats.duplicates),
                           std::to_string(l.stats.retransmits)});
    }
  }
  link_rows.insert(link_rows.begin(),
                   {"dev*->edge* (all)", std::to_string(device_total.messages),
                    std::to_string(device_total.bytes), std::to_string(device_total.drops),
                    std::to_string(device_total.duplicates),
                    std::to_string(device_total.retransmits)});
  std::printf("%s\n", render_table({"link", "messages", "bytes", "drops",
                                    "duplicates", "retransmits"},
                                   link_rows)
                          .c_str());

  std::printf("rows: generated=%zu delivered=%zu lost=%zu skipped(churn)=%zu stranded=%zu\n",
              report.rows_generated, report.rows_delivered, report.rows_lost,
              report.rows_skipped, report.rows_stranded);
  std::printf("messages: sent=%llu dropped=%llu duplicates-discarded=%llu | events=%llu\n",
              static_cast<unsigned long long>(report.messages_sent),
              static_cast<unsigned long long>(report.messages_dropped),
              static_cast<unsigned long long>(report.duplicates_discarded),
              static_cast<unsigned long long>(report.events));
  const sim::LatencySummary& e2e = report.latency_tiers.at("end-to-end").summary;
  std::printf("end-to-end latency (virtual): mean=%.2fs p50=%.2fs p95=%.2fs max=%.2fs (n=%llu)\n",
              e2e.mean_s, e2e.p50_s, e2e.p95_s, e2e.max_s,
              static_cast<unsigned long long>(e2e.count));
  std::printf("core analytics: accuracy=%.3f (train=%zu rows, test=%zu rows)\n\n",
              report.accuracy, report.train_rows, report.test_rows);

  // ---- Consistency checks -----------------------------------------------------
  bool ok = true;

  // Stage totals must reconcile with the raw per-run reports they summarize.
  std::map<std::string, std::size_t> runs_by_stage;
  std::map<std::string, std::size_t> rows_in_by_stage;
  for (const pipeline::StageReport& r : report.stage_reports) {
    ++runs_by_stage[r.stage_name];
    rows_in_by_stage[r.stage_name] += r.rows_in;
  }
  if (runs_by_stage.size() != totals.size()) {
    std::printf("MISMATCH: %zu stage names in raw reports vs %zu in totals\n",
                runs_by_stage.size(), totals.size());
    ok = false;
  }
  for (const auto& [name, t] : totals) {
    if (runs_by_stage[name] != t.runs || rows_in_by_stage[name] != t.rows_in) {
      std::printf("MISMATCH: stage '%s' totals (runs=%zu rows_in=%zu) vs raw "
                  "(runs=%zu rows_in=%zu)\n",
                  name.c_str(), t.runs, t.rows_in, runs_by_stage[name],
                  rows_in_by_stage[name]);
      ok = false;
    }
  }

  // Every phase of the paper's chain must have run.
  const std::vector<std::string> phases{"acquisition", "integration", "prepare(",
                                        "reduce(", "analytics(decision-tree)"};
  for (const std::string& phase : phases) {
    bool found = false;
    for (const auto& [name, t] : totals) {
      if (starts_with(name, phase)) found = true;
    }
    if (!found) {
      std::printf("MISSING PHASE: no stage named '%s*' ran\n", phase.c_str());
      ok = false;
    }
  }

  // Row conservation: the default pipeline never changes the row count, so
  // every generated row must be accounted for exactly once.
  const std::size_t accounted = report.rows_delivered + report.rows_lost +
                                report.rows_skipped + report.rows_stranded;
  if (accounted != report.rows_generated) {
    std::printf("MISMATCH: rows generated=%zu but accounted=%zu\n",
                report.rows_generated, accounted);
    ok = false;
  }

  std::printf("consistency: %s\n", ok ? "stage totals reconcile, all 5 phases ran, "
                                        "rows conserve"
                                      : "FAILED");
  return ok ? 0 : 1;
}
