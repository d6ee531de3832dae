#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "ota/transfer.hpp"
#include "sim/fleet.hpp"
#include "sim/placement.hpp"
#include "sim/scheduler.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

namespace iotml::sim {
namespace {

using pipeline::Tier;

// ---- Scheduler ---------------------------------------------------------------

TEST(Scheduler, PopsInTimeOrderFifoOnTies) {
  Scheduler s;
  s.push(2.0, EventKind::kDeviceFlush, 1);
  s.push(1.0, EventKind::kEdgeFlush, 2);
  s.push(1.0, EventKind::kArrival, 3, 7);

  EXPECT_TRUE(s.log().empty());
  Event e1 = s.pop();
  EXPECT_EQ(e1.kind, EventKind::kEdgeFlush);  // earliest time wins
  // The log renders what has been popped so far, on every read.
  EXPECT_EQ(s.log(), std::vector<std::string>{"t=1.000000 #1 edge-flush target=2"});
  Event e2 = s.pop();
  EXPECT_EQ(e2.kind, EventKind::kArrival);  // tie broken by push order
  EXPECT_EQ(e2.message, 7u);
  Event e3 = s.pop();
  EXPECT_EQ(e3.kind, EventKind::kDeviceFlush);

  EXPECT_DOUBLE_EQ(s.now_s(), 2.0);
  EXPECT_EQ(s.processed(), 3u);
  EXPECT_TRUE(s.empty());

  ASSERT_EQ(s.log().size(), 3u);
  EXPECT_EQ(s.log()[0], "t=1.000000 #1 edge-flush target=2");
  EXPECT_EQ(s.log()[1], "t=1.000000 #2 arrival target=3 msg=7");
  EXPECT_EQ(s.log()[2], "t=2.000000 #0 device-flush target=1");
}

TEST(Scheduler, RejectsPastEventsAndEmptyPop) {
  Scheduler s;
  s.push(1.0, EventKind::kDeviceFlush, 0);
  s.pop();
  EXPECT_THROW(s.push(0.5, EventKind::kDeviceFlush, 0), InvalidArgument);
  s.push(1.0, EventKind::kDeviceFlush, 0);  // same instant is allowed
  s.pop();
  EXPECT_THROW(s.pop(), InvalidArgument);
}

TEST(Scheduler, EventKindNames) {
  // The event log's vocabulary, in enum order: every kind, each name once.
  const std::array<const char*, kEventKindCount> names = {
      "device-flush",       "edge-flush",         "arrival",
      "link-down",          "link-up",            "device-down",
      "device-up",          "deploy-broadcast",   "artifact-arrival",
      "prediction-arrival", "edge-crash",         "edge-restart",
      "core-crash",         "core-restart",       "partition-start",
      "partition-end",      "loss-burst-start",   "loss-burst-end",
      "corruption-start",   "corruption-end",     "checkpoint",
      "corrupt-arrival",    "ota-epoch",          "ota-chunk-arrival",
      "ota-resume",         "ota-report-arrival", "ota-verdict",
      "ota-control-arrival", "load-storm-start",  "load-storm-end",
      "storm-flush",        "summary-arrival"};
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_EQ(event_kind_name(kind), names[k]) << "kind " << k;
    // The interned span name FleetSim opens around each event.
    EXPECT_EQ(event_span_name(kind), "sim.event:" + std::string(event_kind_name(kind)));
  }
}

// ---- Tier placement ----------------------------------------------------------

TEST(Placement, SplitByTierPreservesOrderWithinTier) {
  auto noop = [](data::Dataset&, Rng&) { return 0.0; };
  pipeline::Pipeline full;
  full.add("d1", noop, "p", Tier::kDevice);
  full.add("c1", noop, "p", Tier::kCore);
  full.add("d2", noop, "p", Tier::kDevice);
  full.add("e1", noop, "p", Tier::kEdge);

  TierPipelines tiers = split_by_tier(std::move(full));
  EXPECT_EQ(tiers.device.size(), 2u);
  EXPECT_EQ(tiers.edge.size(), 1u);
  EXPECT_EQ(tiers.core.size(), 1u);

  data::Dataset ds;
  ds.add_numeric_column("x").push_numeric(1.0);
  Rng rng(1);
  tiers.device.run(std::move(ds), rng);
  ASSERT_EQ(tiers.device.reports().size(), 2u);
  EXPECT_EQ(tiers.device.reports()[0].stage_name, "d1");
  EXPECT_EQ(tiers.device.reports()[1].stage_name, "d2");
}

// ---- Fleet simulation --------------------------------------------------------

FleetConfig small_config(std::uint64_t seed = 42) {
  FleetConfig config;
  config.devices = 20;
  config.edges = 2;
  config.duration_s = 20.0;
  config.seed = seed;
  config.faults.link_outages = 1.0;
  config.faults.link_outage_mean_s = 2.0;
  config.faults.device_churns = 0.5;
  config.faults.device_offtime_mean_s = 4.0;
  return config;
}

TEST(Fleet, DeterministicPerSeed) {
  // Two complete runs in one process: same seed must give a byte-identical
  // event log and report; a different seed must not.
  FleetSim a(small_config());
  const FleetReport ra = a.run();
  FleetSim b(small_config());
  const FleetReport rb = b.run();
  EXPECT_EQ(a.event_log(), b.event_log());
  EXPECT_EQ(ra.to_json(), rb.to_json());

  FleetSim c(small_config(43));
  const FleetReport rc = c.run();
  EXPECT_NE(ra.to_json(), rc.to_json());
}

TEST(Fleet, ObservatoryDoesNotPerturbTheRun) {
  // The observatory must be purely observational: same seed, observatory on
  // vs off, byte-identical event log and report (this config fires no fault
  // trigger, so no flight dumps enter the report either way).
  FleetSim off(small_config());
  const FleetReport r_off = off.run();
  FleetConfig on_config = small_config();
  on_config.observatory.enabled = true;
  FleetSim on(on_config);
  const FleetReport r_on = on.run();
  EXPECT_EQ(off.event_log(), on.event_log());
  EXPECT_EQ(r_off.to_json(), r_on.to_json());
  EXPECT_EQ(off.observatory(), nullptr);
  ASSERT_NE(on.observatory(), nullptr);
}

TEST(Fleet, ObservatoryRecordsJourneysSeriesAndFlight) {
  FleetConfig config = small_config();
  config.observatory.enabled = true;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  const obs::Observatory* obsy = fleet.observatory();
  ASSERT_NE(obsy, nullptr);

  const auto records = obsy->journeys().snapshot();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(obsy->journeys().dropped(), 0u);
  std::size_t origins = 0;
  std::size_t origin_rows = 0;
  std::size_t accepted_at_core = 0;
  for (const obs::HopRecord& rec : records) {
    if (rec.kind == obs::HopKind::kOrigin) {
      ++origins;
      origin_rows += rec.rows;
      EXPECT_TRUE(rec.parents.empty());
    }
    if (rec.kind == obs::HopKind::kArrive && rec.hop == 1 &&
        std::string(rec.outcome) == "accepted") {
      ++accepted_at_core;
    }
    if (rec.kind == obs::HopKind::kSend) EXPECT_GE(rec.attempts, 0u);
  }
  EXPECT_GT(origins, 0u);
  // Every flushed window gets an origin record; flushed rows can exceed the
  // delivered count (losses) but never the generated count.
  EXPECT_LE(origin_rows, r.rows_generated);
  EXPECT_GE(origin_rows, r.rows_delivered);
  EXPECT_GT(accepted_at_core, 0u);

  EXPECT_GT(obsy->flight().noted(), 0u);
  EXPECT_GT(obsy->series().series_count(), 0u);
  EXPECT_GT(obsy->series().samples_total(), 0u);
}

TEST(Fleet, LatencyTiersMirrorSummaryAndStayBounded) {
  // Per-tier breakdowns are always on (fixed-memory histograms, not the
  // observatory) and the JSON "latency" block renders the "end-to-end" one.
  FleetSim fleet(small_config());
  const FleetReport r = fleet.run();
  ASSERT_EQ(r.latency_tiers.count("device-edge"), 1u);
  ASSERT_EQ(r.latency_tiers.count("edge-core"), 1u);
  ASSERT_EQ(r.latency_tiers.count("end-to-end"), 1u);
  const LatencySummary& e2e = r.latency_tiers.at("end-to-end").summary;
  EXPECT_NE(r.to_json().find("\"latency\": {\"count\": " + std::to_string(e2e.count) + ","),
            std::string::npos);
  for (const auto& [tier, breakdown] : r.latency_tiers) {
    EXPECT_EQ(breakdown.counts.size(), breakdown.bounds_s.size() + 1) << tier;
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t c : breakdown.counts) bucket_sum += c;
    EXPECT_EQ(bucket_sum, breakdown.summary.count) << tier;
  }
}

TEST(Fleet, RowConservation) {
  FleetSim fleet(small_config());
  const FleetReport r = fleet.run();
  EXPECT_GT(r.rows_generated, 0u);
  EXPECT_GT(r.rows_delivered, 0u);
  EXPECT_EQ(r.rows_generated,
            r.rows_delivered + r.rows_lost + r.rows_skipped + r.rows_stranded);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.messages_sent, 0u);
}

TEST(Fleet, StageTotalsReconcileWithRawReports) {
  FleetSim fleet(small_config());
  const FleetReport r = fleet.run();

  std::size_t raw_runs = 0;
  std::size_t raw_rows_in = 0;
  double raw_cost = 0.0;
  for (const pipeline::StageReport& report : r.stage_reports) {
    ++raw_runs;
    raw_rows_in += report.rows_in;
    raw_cost += report.cost;
  }
  std::size_t total_runs = 0;
  std::size_t total_rows_in = 0;
  double total_cost = 0.0;
  for (const auto& [name, t] : r.stage_totals()) {
    total_runs += t.runs;
    total_rows_in += t.rows_in;
    total_cost += t.cost;
  }
  EXPECT_EQ(total_runs, raw_runs);
  EXPECT_EQ(total_rows_in, raw_rows_in);
  EXPECT_NEAR(total_cost, raw_cost, 1e-9);

  // Every phase of the paper's chain must appear.
  const auto totals = r.stage_totals();
  EXPECT_EQ(totals.count("acquisition"), 1u);
  EXPECT_EQ(totals.count("integration"), 1u);
  EXPECT_EQ(totals.count("prepare(impute-linear)"), 1u);
  EXPECT_EQ(totals.count("prepare(normalize-zscore)"), 1u);
  EXPECT_EQ(totals.count("clean(hampel)"), 1u);
  EXPECT_EQ(totals.count("analytics(decision-tree)"), 1u);
}

TEST(Fleet, LatencyAndAccuracyPopulated) {
  FleetSim fleet(small_config());
  const FleetReport r = fleet.run();
  const LatencySummary& latency = r.latency_tiers.at("end-to-end").summary;
  EXPECT_GT(latency.count, 0u);
  EXPECT_GT(latency.mean_s, 0.0);
  EXPECT_GE(latency.max_s, latency.p95_s);
  EXPECT_GE(latency.p95_s, latency.p50_s);
  EXPECT_GT(r.train_rows, 0u);
  EXPECT_GT(r.test_rows, 0u);
  EXPECT_GT(r.accuracy, 0.5);  // far above chance on the comfort concept
}

TEST(Fleet, DropRateStarvesDelivery) {
  FleetConfig reliable = small_config(7);
  reliable.faults = {};
  reliable.device_edge_link.drop_prob = 0.0;
  reliable.device_edge_link.max_retries = 0;
  FleetConfig lossy = reliable;
  lossy.device_edge_link.drop_prob = 0.3;

  FleetSim a(reliable);
  const FleetReport ra = a.run();
  FleetSim b(lossy);
  const FleetReport rb = b.run();
  EXPECT_EQ(ra.rows_lost, 0u);
  EXPECT_GT(rb.rows_lost, 0u);
  EXPECT_LT(rb.rows_delivered, ra.rows_delivered);
}

TEST(Fleet, ChurnSkipsRows) {
  FleetConfig config = small_config(9);
  config.faults = {};
  config.faults.device_churns = 3.0;  // heavy churn
  config.faults.device_offtime_mean_s = 6.0;
  FleetSim fleet(config);
  const FleetReport r = fleet.run();
  EXPECT_GT(r.rows_skipped, 0u);
}

TEST(Fleet, CustomPipelineIsPlacedByTier) {
  FleetConfig config;
  config.devices = 5;
  config.edges = 1;
  config.duration_s = 10.0;
  config.faults = {};
  pipeline::Pipeline custom;
  custom.add("edge-tag", [](data::Dataset&, Rng&) { return 1.0; },
             "edge-operator", Tier::kEdge);
  FleetSim fleet(config, std::move(custom));
  const FleetReport r = fleet.run();
  const auto totals = r.stage_totals();
  EXPECT_EQ(totals.count("edge-tag"), 1u);
  EXPECT_EQ(totals.at("edge-tag").tier, Tier::kEdge);
  // Synthesized phases still frame the custom stage.
  EXPECT_EQ(totals.count("acquisition"), 1u);
  EXPECT_EQ(totals.count("integration"), 1u);
}

TEST(Fleet, RunIsOneShot) {
  FleetConfig config;
  config.devices = 2;
  config.edges = 1;
  config.duration_s = 5.0;
  config.faults = {};
  FleetSim fleet(config);
  fleet.run();
  EXPECT_THROW(fleet.run(), InvalidArgument);
}

TEST(Fleet, Validation) {
  FleetConfig bad = small_config();
  bad.duration_s = 0.0;
  EXPECT_THROW(FleetSim{bad}, InvalidArgument);

  FleetConfig more_edges = small_config();
  more_edges.edges = more_edges.devices + 1;
  EXPECT_THROW(FleetSim{more_edges}, InvalidArgument);

  FleetConfig bad_flush = small_config();
  bad_flush.device_flush_s = 0.0;
  EXPECT_THROW(FleetSim{bad_flush}, InvalidArgument);
}

// ---- Byte-identity pins -------------------------------------------------------

// FNV-1a-64 over the report JSON followed by the event log, one
// newline-terminated line per event: one number that moves if any RNG draw,
// event or ledger byte of the run moves.
std::uint64_t fold_digest(std::uint64_t h, const std::string& s) {
  for (const char c : s) h = fnv1a64_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

std::uint64_t run_digest(const FleetSim& fleet, const std::string& json) {
  std::uint64_t h = fold_digest(kFnv64Basis, json);
  for (const std::string& line : fleet.event_log()) {
    h = fnv1a64_byte(fold_digest(h, line), '\n');
  }
  return h;
}

std::uint64_t run_digest(const FleetConfig& config) {
  FleetSim fleet(config);
  const std::string json = fleet.run().to_json();
  return run_digest(fleet, json);
}

// Ack/retry links under compound chaos: edge crashes (one during the deploy
// broadcast), device churn, a partition, a loss burst, a corruption storm,
// checkpoints and store-and-forward.
void enable_ack_chaos(FleetConfig& config) {
  config.channel.mode = net::ChannelMode::kAckRetry;
  config.channel.ack_timeout_s = 0.1;
  config.channel.backoff_base_s = 0.05;
  config.channel.backoff_cap_s = 1.0;
  config.channel.max_attempts = 6;
  config.checkpoint_interval_s = 2.0;
  config.device_buffer_rows = 4096;
  config.faults.edge_crashes = 1.0;
  config.faults.edge_downtime_mean_s = 3.0;
  config.faults.device_churns = 5.0;
  config.faults.device_offtime_mean_s = 2.0;
  config.chaos.partitions = 1.0;
  config.chaos.partition_mean_s = 4.0;
  config.chaos.loss_bursts = 1.0;
  config.chaos.burst_drop_prob = 0.4;
  config.chaos.corruption_storms = 1.0;
  config.chaos.storm_corrupt_prob = 0.1;
  config.chaos.crash_during_broadcast = true;
}

// The four link params of a deploy fleet: both uplinks and both downlinks.
std::array<net::LinkParams*, 4> all_links(FleetConfig& config) {
  return {&config.device_edge_link, &config.edge_core_link,
          &config.deploy.edge_device_link, &config.deploy.core_edge_link};
}

// Deploy plus the OTA loop over ack/retry links under compound chaos, with
// the observatory on, so flight dumps (and the trace ids they carry) reach
// the report.
FleetConfig pinned_ota_config() {
  FleetConfig config;
  config.devices = 20;
  config.edges = 2;
  config.duration_s = 24.0;
  config.seed = 31;
  config.device_flush_s = 2.0;
  config.edge_flush_s = 3.0;
  enable_ack_chaos(config);
  config.deploy.enabled = true;
  config.deploy.stale_fallback = true;
  config.ota.enabled = true;
  config.ota.epochs = 3;
  config.observatory.enabled = true;
  return config;
}

// TDF telemetry with a free-running degradation ladder under load storms,
// with bands tight enough that the ladder actually moves.
FleetConfig pinned_degrade_config() {
  FleetConfig config;
  config.devices = 20;
  config.edges = 2;
  config.duration_s = 60.0;
  config.seed = 9001;
  config.channel.mode = net::ChannelMode::kAckRetry;
  config.channel.queue_capacity = 2;
  config.checkpoint_interval_s = 2.0;
  config.device_buffer_rows = 4096;
  config.chaos.partitions = 1.0;
  config.chaos.partition_mean_s = 4.0;
  config.chaos.loss_bursts = 1.0;
  config.chaos.corruption_storms = 1.0;
  config.chaos.load_storms = 5.0;
  config.chaos.load_storm_mean_s = 8.0;
  config.chaos.load_storm_factor = 6.0;
  config.telemetry.enabled = true;
  config.degrade.enabled = true;
  config.degrade.dead_letter_rate_ref = 0.25;
  config.degrade.thresholds.up = {0.2, 0.6, 1.2};
  config.degrade.thresholds.down = {0.1, 0.4, 0.9};
  config.degrade.thresholds.dwell_s = 3.0;
  return config;
}

TEST(Fleet, TracedRunKeepsItsSpanNames) {
  // perfbench folds spans by name into its per-layer metrics
  // ("sim.event:<kind>" -> sim.event.<kind>, "stage:<name>" ->
  // pipeline.stage.<name>, "sim.deploy_prepare" -> deploy.prepare), so a
  // traced run must keep emitting exactly these names.
  ASSERT_FALSE(obs::trace().enabled());
  obs::trace().clear();
  obs::trace().set_enabled(true);
  FleetSim fleet(pinned_ota_config());
  const FleetReport report = fleet.run();
  obs::trace().set_enabled(false);
  std::set<std::string> names;
  std::size_t event_spans = 0;
  for (const obs::TraceEvent& e : obs::trace().snapshot()) {
    names.insert(e.name);
    if (e.name.starts_with("sim.event:")) ++event_spans;
  }
  obs::trace().clear();
  const std::set<std::string> expected = {
      "deploy.compile",
      "deploy.quantize",
      "pipeline.run",
      "sim.deploy_prepare",
      "sim.event:arrival",
      "sim.event:artifact-arrival",
      "sim.event:checkpoint",
      "sim.event:corruption-end",
      "sim.event:corruption-start",
      "sim.event:deploy-broadcast",
      "sim.event:device-down",
      "sim.event:device-flush",
      "sim.event:device-up",
      "sim.event:edge-crash",
      "sim.event:edge-flush",
      "sim.event:edge-restart",
      "sim.event:loss-burst-end",
      "sim.event:loss-burst-start",
      "sim.event:ota-chunk-arrival",
      "sim.event:ota-epoch",
      "sim.event:ota-report-arrival",
      "sim.event:ota-resume",
      "sim.event:ota-verdict",
      "sim.event:partition-end",
      "sim.event:partition-start",
      "sim.event:prediction-arrival",
      "sim.fleet_run",
      "stage:clean(hampel)",
      "stage:prepare(impute-linear)",
      "stage:reduce(mi-top3)",
  };
  EXPECT_EQ(names, expected);
  EXPECT_EQ(event_spans, report.events);
}

TEST(FleetPin, DeployOtaAckChaosObservatoryIsByteIdentical) {
  // Pinned before the per-stream senders were folded into one transmit
  // path; re-pin only for a deliberate behaviour change.
  EXPECT_EQ(run_digest(pinned_ota_config()), 0x30ad797972fc9227ULL);
}

TEST(FleetPin, TelemetryDegradeLoadStormsIsByteIdentical) {
  EXPECT_EQ(run_digest(pinned_degrade_config()), 0xa72a113c33199c23ULL);
}

TEST(FleetPin, StandaloneLedgerArtifactsAreByteIdentical) {
  // ota.json and degradation.json exactly as the observatory writes them.
  // Pinned while each ledger still had its own hand-written renderer;
  // re-pin only for a deliberate behaviour change.
  FleetSim ota_fleet(pinned_ota_config());
  EXPECT_EQ(fold_digest(kFnv64Basis, ota_to_json(ota_fleet.run().deploy.ota)),
            0x2ae3afd5f9e9cbd7ULL);
  FleetSim degrade_fleet(pinned_degrade_config());
  EXPECT_EQ(fold_digest(kFnv64Basis,
                        degradation_to_json(degrade_fleet.run().degradation)),
            0x71d65e1de72eb0daULL);
}

// FNV-1a-64, continued from `h`, over timeseries.json, journeys.jsonl and
// flightrec.json, in that order, exactly as write_artifacts renders them.
std::uint64_t artifact_digest(const obs::Observatory& obsy,
                              std::uint64_t h = kFnv64Basis) {
  std::ostringstream series, journeys, flight;
  obsy.series().write_json(series);
  obsy.journeys().write_jsonl(journeys);
  obsy.flight().write_json(flight);
  return fold_digest(fold_digest(fold_digest(h, series.str()), journeys.str()),
                     flight.str());
}

TEST(FleetPin, ObservatoryArtifactsAreByteIdentical) {
  // Pinned while FleetSim still null-checked an optional observatory at every
  // recording site and owned the OTA loop inline; re-pin only for a
  // deliberate behaviour change. Each config's event log must also match its
  // observatory-off twin.
  FleetConfig degrade = pinned_degrade_config();
  degrade.observatory.enabled = true;
  const std::pair<FleetConfig, std::uint64_t> pins[] = {
      {pinned_ota_config(), 0x7a5e7a95f8758880ULL}, {degrade, 0xe84d023e3440b594ULL}};
  for (const auto& [config, digest] : pins) {
    FleetSim on(config);
    on.run();
    ASSERT_NE(on.observatory(), nullptr);
    EXPECT_EQ(artifact_digest(*on.observatory()), digest);

    FleetConfig off_config = config;
    off_config.observatory.enabled = false;
    FleetSim off(off_config);
    off.run();
    EXPECT_EQ(off.observatory(), nullptr);
    EXPECT_EQ(on.event_log(), off.event_log());
  }
}

// Linear float32 deploy over fire-and-forget downlinks that drop 20% and
// duplicate 30% of deliveries, with device churn and an edge crash at the
// broadcast, so half the fleet scores the stale fallback.
FleetConfig pinned_linear_deploy_config() {
  FleetConfig config;
  config.devices = 20;
  config.edges = 2;
  config.duration_s = 24.0;
  config.seed = 5;
  config.faults.device_churns = 3.0;
  config.chaos.crash_during_broadcast = true;
  config.deploy.enabled = true;
  config.deploy.stale_fallback = true;
  config.deploy.model = deploy::ModelKind::kLinear;
  config.deploy.precision = deploy::Precision::kFloat32;
  config.deploy.edge_device_link.drop_prob = 0.2;
  config.deploy.edge_device_link.duplicate_prob = 0.3;
  config.observatory.enabled = true;
  return config;
}

// Naive-Bayes int16 deploy after the free-running degradation ladder has
// moved, so the broadcast meets the ladder the run left behind.
FleetConfig pinned_bayes_degrade_deploy_config() {
  FleetConfig config = pinned_degrade_config();
  config.deploy.enabled = true;
  config.deploy.stale_fallback = true;
  config.deploy.model = deploy::ModelKind::kNaiveBayes;
  config.deploy.precision = deploy::Precision::kInt16;
  config.observatory.enabled = true;
  return config;
}

TEST(FleetPin, DeployVariantsAreByteIdentical) {
  // Report, event log and the three observatory artifacts of the two deploy
  // variants no other pin reaches. Pinned while FleetSim still owned the
  // deploy phase inline; re-pin only for a deliberate behaviour change.
  const std::pair<FleetConfig, std::uint64_t> pins[] = {
      {pinned_linear_deploy_config(), 0xa54c1e8f0a225faaULL},
      {pinned_bayes_degrade_deploy_config(), 0xee8e98e656861327ULL}};
  for (const auto& [config, digest] : pins) {
    FleetSim fleet(config);
    const std::string json = fleet.run().to_json();
    ASSERT_NE(fleet.observatory(), nullptr);
    EXPECT_EQ(artifact_digest(*fleet.observatory(), run_digest(fleet, json)), digest);
  }
}

TEST(FleetPin, PinnedFleetsExerciseTheirSubsystems) {
  // Keeps the pins honest: each pinned fleet must drive the paths it claims.
  FleetSim ota_fleet(pinned_ota_config());
  const FleetReport ota = ota_fleet.run();
  EXPECT_TRUE(ota.rows_conserved());
  EXPECT_GT(ota.deploy.predictions_delivered, 0u);
  EXPECT_GT(ota.deploy.ota.chunks_sent, ota.deploy.ota.chunks_delivered);
  EXPECT_GT(ota.deploy.ota.resume_rounds, 0u);

  FleetSim degrade_fleet(pinned_degrade_config());
  const FleetReport degrade = degrade_fleet.run();
  EXPECT_TRUE(degrade.rows_conserved());
  EXPECT_GT(degrade.telemetry.frames_sent, 0u);
  EXPECT_GT(degrade.faults.load_storms, 0u);
  EXPECT_GT(degrade.degradation.transitions_up, 0u);
  EXPECT_GT(degrade.degradation.transitions_down, 0u);

  FleetSim linear_fleet(pinned_linear_deploy_config());
  const FleetReport linear = linear_fleet.run();
  EXPECT_TRUE(linear.rows_conserved());
  EXPECT_EQ(linear.deploy.model, "linear");
  EXPECT_GT(linear.deploy.devices_deployed, 0u);
  EXPECT_GT(linear.deploy.devices_stale, 0u);
  EXPECT_GT(linear.deploy.predictions_delivered, 0u);

  FleetSim bayes_fleet(pinned_bayes_degrade_deploy_config());
  const FleetReport bayes = bayes_fleet.run();
  EXPECT_TRUE(bayes.rows_conserved());
  EXPECT_EQ(bayes.deploy.model, "naive-bayes");
  EXPECT_GT(bayes.degradation.transitions_up, 0u);
  EXPECT_GT(bayes.deploy.predictions_delivered, 0u);
}

// ---- Ledger schema ------------------------------------------------------------

// Replaces the first `from` in `text` with `to`.
std::string with(std::string text, const std::string& from, const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? text : text.replace(at, from.size(), to);
}

TEST(LedgerSchema, PinnedAndDefaultLedgersRoundTripByteForByte) {
  FleetSim ota_fleet(pinned_ota_config());
  const OtaSummary ota = ota_fleet.run().deploy.ota;
  FleetSim degrade_fleet(pinned_degrade_config());
  const DegradationLedger degrade = degrade_fleet.run().degradation;
  ASSERT_FALSE(ota.epochs_log.empty());
  ASSERT_GT(ota.version_histogram.size(), 0u);
  ASSERT_GT(degrade.transitions_up, 0u);
  ASSERT_FALSE(degrade.windows.empty());
  ASSERT_LT(degrade.pin_level, 0);

  std::string error;
  for (const OtaSummary& ledger : {ota, OtaSummary{}}) {
    const std::string json = ota_to_json(ledger);
    OtaSummary back;
    ASSERT_TRUE(ota_from_json(json, back, error)) << error;
    EXPECT_EQ(ota_to_json(back), json);
  }
  for (const DegradationLedger& ledger : {degrade, DegradationLedger{}}) {
    const std::string json = degradation_to_json(ledger);
    DegradationLedger back;
    ASSERT_TRUE(degradation_from_json(json, back, error)) << error;
    EXPECT_EQ(degradation_to_json(back), json);
  }
}

TEST(LedgerSchema, ReaderRejectsFieldsThatDoNotFitTheirMember) {
  const std::string json = degradation_to_json(DegradationLedger{});
  const auto rejects = [](const std::string& text, const std::string& field) {
    DegradationLedger out;
    std::string error;
    EXPECT_FALSE(degradation_from_json(text, out, error)) << text;
    EXPECT_EQ(error, "bad or missing field " + field);
  };
  rejects(with(json, "\"pin_level\": -1", "\"pin_level\": 2147483648"), "pin_level");
  rejects(with(json, "\"pin_level\": -1", "\"pin_level\": -1.5"), "pin_level");
  rejects(with(json, "\"exact\": 0", "\"exact\": -1"), "rows.exact");
  rejects(with(json, "\"exact\": 0", "\"exact\": 18446744073709551616"), "rows.exact");
  rejects(with(json, "\"enabled\": false", "\"enabled\": 0"), "enabled");
  rejects(with(json, "\"coverage\": 1", "\"coverage\": \"1\""), "ci.coverage");
  rejects(with(json, "  \"windows_truncated\": 0,\n", ""), "windows_truncated");
  rejects(with(json, "\"edges\": []", "\"edges\": [{}]"), "edges[0].edge");

  DegradationLedger ledger;
  ledger.edges.resize(1);
  const std::string edges = degradation_to_json(ledger);
  rejects(with(edges, "0, 0, 0, 0]", "0, 0, 0]"), "edges[0].time_at_level_s");
  rejects(with(edges, "0, 0, 0, 0]", "0, 0, 0, true]"), "edges[0].time_at_level_s[3]");

  DegradationLedger out;
  std::string error;
  EXPECT_FALSE(degradation_from_json("[]", out, error));
  EXPECT_EQ(error, "not a JSON object");
  EXPECT_FALSE(degradation_from_json(json + "x", out, error));
}

TEST(LedgerSchema, VersionHistogramKeysAreStrictUint32) {
  OtaSummary ota;
  ota.version_histogram = {{0, 3}, {4294967295u, 2}};
  const std::string json = ota_to_json(ota);
  OtaSummary out;
  std::string error;
  ASSERT_TRUE(ota_from_json(json, out, error)) << error;
  EXPECT_EQ(out.version_histogram, ota.version_histogram);

  for (const char* key : {"12abc", "4294967296", "-1", "07", "", " 7", "0"}) {
    const std::string bad =
        with(json, "\"4294967295\": 2", "\"" + std::string(key) + "\": 2");
    EXPECT_FALSE(ota_from_json(bad, out, error)) << key;  // "0" repeats an id
    EXPECT_EQ(error, "bad or missing field version_histogram.\"" + std::string(key) + "\"");
  }
  EXPECT_FALSE(ota_from_json(with(json, "\"0\": 3", "\"0\": -3"), out, error));
}

// Deploy plus OTA over fire-and-forget links where every link param makes a
// straggler copy of 30% of deliveries, under a corruption storm, so corrupt
// row frames are duplicated too. One OTA epoch: the loop provisions the fleet
// with chunked patches and runs no canary, so no probe report or rollback
// command flows.
FleetConfig pinned_duplicate_config() {
  FleetConfig config;
  config.devices = 20;
  config.edges = 2;
  config.duration_s = 24.0;
  config.seed = 77;
  config.device_flush_s = 2.0;
  config.edge_flush_s = 3.0;
  for (net::LinkParams* link : all_links(config)) link->duplicate_prob = 0.3;
  config.chaos.corruption_storms = 2.0;
  config.chaos.storm_corrupt_prob = 0.3;
  config.deploy.enabled = true;
  config.deploy.stale_fallback = true;
  config.ota.enabled = true;
  config.ota.epochs = 1;
  config.observatory.enabled = true;
  return config;
}

TEST(FleetPin, DuplicateHeavyObservatoryIsByteIdentical) {
  // Report, event log and journeys.jsonl, so the pin covers what every
  // receiver decided about every arrival, straggler copies included. Pinned
  // while receivers still deduplicated from per-node memories; re-pin only
  // for a deliberate behaviour change.
  FleetSim fleet(pinned_duplicate_config());
  const FleetReport report = fleet.run();
  std::ostringstream journeys;
  fleet.observatory()->journeys().write_jsonl(journeys);
  EXPECT_EQ(fold_digest(run_digest(fleet, report.to_json()), journeys.str()),
            0x2ac4c8ccc9050e7fULL);

  std::map<std::string, std::size_t> duplicates;
  for (const obs::HopRecord& rec : fleet.observatory()->journeys().snapshot()) {
    if (rec.kind == obs::HopKind::kArrive && std::string(rec.outcome) == "duplicate") {
      ++duplicates[obs::hop_stream_name(rec.stream)];
    }
  }
  for (const char* stream : {"rows", "artifact", "predictions"}) {
    EXPECT_GT(duplicates[stream], 0u) << stream;
  }
  EXPECT_GT(report.faults.rows_corrupt_rejected, 0u);
  EXPECT_GT(report.deploy.ota.chunks_delivered, 0u);
}

// ---- Row conservation through the deploy phase -------------------------------

// Deploy plus OTA over lossy ack/retry links with two attempts per frame, so
// every stream loses frames and edges still hold rows when the broadcast
// starts.
FleetConfig lossy_ota_config(std::uint64_t seed) {
  FleetConfig config = pinned_ota_config();
  config.seed = seed;
  config.channel.max_attempts = 2;
  for (net::LinkParams* link : all_links(config)) link->drop_prob = 0.4;
  return config;
}

TEST(Fleet, BroadcastCrashBooksUnpersistedRowsOnce) {
  // The chaos edge crash at the deploy broadcast wipes rows the edge had not
  // checkpointed. They are lost to the crash and must not also count as
  // stranded in the buffer the crash wiped.
  for (const std::uint64_t seed : {3, 31}) {
    FleetSim fleet(lossy_ota_config(seed));
    FleetReport report;
    ASSERT_NO_THROW(report = fleet.run()) << "seed " << seed;
    EXPECT_TRUE(report.rows_conserved()) << "seed " << seed;
    EXPECT_GT(report.faults.rows_lost_to_crash, 0u) << "seed " << seed;
  }
}

// ---- One send vocabulary --------------------------------------------------------

// A lossy fleet where a negative regression tolerance rolls every canary
// verdict back, so rollback commands flow as well.
FleetConfig every_stream_config() {
  FleetConfig config = lossy_ota_config(1);
  config.ota.regression_tolerance = -2.0;
  return config;
}

// Which of the six traced streams a send record belongs to. The patch stream
// carries chunks and rollback commands down the tree (src > dst) and canary
// probe reports up it; a command is the one downlink frame shorter than a
// chunk's framing.
std::string traced_stream(const obs::HopRecord& rec) {
  if (rec.stream != obs::HopStream::kPatch) return obs::hop_stream_name(rec.stream);
  if (rec.src < rec.dst) return "probe";
  return rec.bytes < net::kMessageHeaderBytes + ota::kChunkFramingBytes ? "control"
                                                                        : "chunk";
}

TEST(FleetJourneys, EveryTracedStreamSharesOneSendVocabulary) {
  FleetSim fleet(every_stream_config());
  fleet.run();
  const std::set<std::string> vocabulary = {"dead_letter", "corrupt", "timeout", "dropped",
                                            "delivered"};
  std::map<std::string, std::size_t> sends;
  std::map<std::string, std::size_t> timeouts;
  for (const obs::HopRecord& rec : fleet.observatory()->journeys().snapshot()) {
    if (rec.kind != obs::HopKind::kSend) continue;
    const std::string stream = traced_stream(rec);
    const std::string outcome = rec.outcome;
    ++sends[stream];
    // The row path's ack-mode fast-fail into a crashed receiver is its own.
    const bool row_fast_fail = stream == "rows" && outcome == "receiver_down";
    EXPECT_TRUE(vocabulary.count(outcome) == 1 || row_fast_fail) << stream << ": " << outcome;
    // Every link is ack/retry: an accepted frame that never arrived timed out.
    EXPECT_NE(outcome, "dropped") << stream;
    if (outcome == "timeout") ++timeouts[stream];
  }
  for (const char* stream : {"rows", "artifact", "predictions", "chunk", "probe", "control"}) {
    EXPECT_GT(sends[stream], 0u) << stream;
    EXPECT_GT(timeouts[stream], 0u) << stream;
  }
}

TEST(FleetJourneys, EveryTracedStreamSharesOneArriveVocabulary) {
  // Straggler copies on every link, so duplicates reach every receiver.
  FleetConfig config = every_stream_config();
  for (net::LinkParams* link : all_links(config)) link->duplicate_prob = 0.3;
  FleetSim fleet(config);
  fleet.run();
  // Every traced arrival event journals exactly one arrive record, in event
  // order, so the event log names the stream of each record.
  const std::map<std::string, std::string> stream_of = {
      {"arrival", "rows"},           {"corrupt-arrival", "rows"},
      {"artifact-arrival", "artifact"}, {"prediction-arrival", "predictions"},
      {"ota-chunk-arrival", "chunk"}, {"ota-report-arrival", "probe"},
      {"ota-control-arrival", "control"}};
  std::vector<std::string> arrivals;
  for (const std::string& line : fleet.event_log()) {
    std::istringstream in(line);
    std::string time, seq, kind;
    in >> time >> seq >> kind;
    const auto it = stream_of.find(kind);
    if (it != stream_of.end()) arrivals.push_back(it->second);
  }
  std::vector<obs::HopRecord> arrives;
  for (obs::HopRecord& rec : fleet.observatory()->journeys().snapshot()) {
    if (rec.kind == obs::HopKind::kArrive) arrives.push_back(std::move(rec));
  }
  ASSERT_EQ(arrives.size(), arrivals.size())
      << "each traced arrival event must journal exactly one arrive record";

  const std::set<std::string> vocabulary = {"accepted", "duplicate", "dead_receiver",
                                            "stale"};
  std::map<std::string, std::map<std::string, std::size_t>> outcomes;
  for (std::size_t i = 0; i < arrives.size(); ++i) {
    const std::string& stream = arrivals[i];
    const std::string outcome = arrives[i].outcome;
    ++outcomes[stream][outcome];
    // Each stream keeps its own integrity rejection: rows fail the payload
    // checksum, chunks the patch applier's.
    const bool rejection = (stream == "rows" && outcome == "corrupt_rejected") ||
                           (stream == "chunk" && outcome == "rejected");
    EXPECT_TRUE(vocabulary.count(outcome) == 1 || rejection) << stream << ": " << outcome;
  }
  for (const char* stream : {"rows", "artifact", "predictions", "chunk", "probe", "control"}) {
    EXPECT_GT(outcomes[stream]["accepted"], 0u) << stream;
  }
  for (const char* stream : {"rows", "artifact", "predictions", "probe"}) {
    EXPECT_GT(outcomes[stream]["duplicate"], 0u) << stream;
  }
}

}  // namespace
}  // namespace iotml::sim
