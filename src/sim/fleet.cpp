#include "sim/fleet.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <numbers>
#include <numeric>
#include <utility>

#include "learners/decision_tree.hpp"
#include "obs/obs.hpp"
#include "pipeline/integration.hpp"
#include "pipeline/preparation.hpp"
#include "pipeline/reduction.hpp"
#include "sim/deploy_phase.hpp"
#include "sim/ota_loop.hpp"
#include "util/error.hpp"

namespace iotml::sim {

using pipeline::StageReport;
using pipeline::Tier;

namespace {

// Device tier: clean the freshly acquired window before it costs uplink
// bytes — gross outliers are suppressed to missing so the edge can repair
// them alongside genuine sensor dropout.
void add_clean_stage(pipeline::Pipeline& full) {
  full.add("clean(hampel)", [](data::Dataset& ds, Rng&) {
    std::size_t suppressed = 0;
    for (std::size_t f = 1; f < ds.num_columns(); ++f) {
      suppressed += pipeline::suppress_outliers(
          ds, f, pipeline::detect_outliers_hampel(ds.column(f), 4.0));
    }
    return 0.2 + 0.01 * static_cast<double>(suppressed);
  }, "device", Tier::kDevice);
}

// Edge tier: preparation over the integrated multi-device record stream.
void add_impute_stage(pipeline::Pipeline& full) {
  full.add("prepare(impute-linear)", [](data::Dataset& ds, Rng& rng) {
    const pipeline::ImputeReport r =
        pipeline::impute(ds, pipeline::ImputeStrategy::kLinear, rng);
    return 1.0 + 0.002 * static_cast<double>(r.cells_imputed);
  }, "edge-operator", Tier::kEdge);
}

void add_zscore_stage(pipeline::Pipeline& full) {
  full.add("prepare(normalize-zscore)", [](data::Dataset& ds, Rng&) {
    // Keep the timestamp column raw; normalize sensor columns only.
    std::vector<std::size_t> sensor_cols;
    for (std::size_t c = 1; c < ds.num_columns(); ++c) sensor_cols.push_back(c);
    if (sensor_cols.empty() || ds.rows() == 0) return 0.5;
    data::Dataset sensors_only = ds.select_columns(sensor_cols);
    pipeline::normalize(sensors_only, pipeline::NormalizeKind::kZScore);
    for (std::size_t c = 1; c < ds.num_columns(); ++c) {
      for (std::size_t r = 0; r < ds.rows(); ++r) {
        if (!sensors_only.column(c - 1).is_missing(r)) {
          ds.column(c).set_numeric(r, sensors_only.column(c - 1).numeric(r));
        }
      }
    }
    return 0.5;
  }, "edge-operator", Tier::kEdge);
}

// Core tier: data reduction before the learner.
void add_reduce_stage(pipeline::Pipeline& full, std::size_t keep) {
  full.add("reduce(mi-top" + std::to_string(keep) + ")",
           [keep](data::Dataset& ds, Rng&) {
    if (ds.has_labels() && ds.rows() > 0 && ds.num_columns() > keep) {
      ds = ds.select_columns(pipeline::select_by_mutual_information(ds, keep));
    }
    return 1.0;
  }, "core-operator", Tier::kCore);
}

obs::Observatory make_observatory(const ObservatoryConfig& config, std::size_t entities) {
  if (!config.enabled) return obs::Observatory();
  return obs::Observatory(entities, {.series_capacity = config.series_capacity,
                                     .flight_ring = config.flight_ring,
                                     .journey_capacity = config.journey_capacity});
}

/// Drop the timestamp column: the analytics label is a function of time
/// inside the window, so keeping it would let a learner take a clock
/// shortcut instead of learning the sensed world.
data::Dataset sensor_features(const data::Dataset& ds) {
  std::vector<std::size_t> feature_cols;
  for (std::size_t c = 0; c < ds.num_columns(); ++c) {
    if (ds.column(c).name() != "timestamp") feature_cols.push_back(c);
  }
  return feature_cols.empty() || feature_cols.size() == ds.num_columns()
             ? ds
             : ds.select_columns(feature_cols);
}

}  // namespace

pipeline::Pipeline default_fleet_pipeline(const FleetConfig& config) {
  pipeline::Pipeline full;
  add_clean_stage(full);
  add_impute_stage(full);
  add_zscore_stage(full);
  add_reduce_stage(full, config.feature_keep);
  return full;
}

pipeline::Pipeline default_deploy_pipeline(const FleetConfig& config) {
  pipeline::Pipeline full;
  add_clean_stage(full);
  add_impute_stage(full);
  add_reduce_stage(full, config.feature_keep);
  return full;
}

FleetSim::FleetSim(FleetConfig config)
    : FleetSim(config, config.deploy.enabled ? default_deploy_pipeline(config)
                                             : default_fleet_pipeline(config)) {}

FleetSim::FleetSim(FleetConfig config, pipeline::Pipeline full_pipeline)
    : config_(config),
      topo_(net::Topology::fleet(config.devices, config.edges,
                                 config.device_edge_link, config.edge_core_link)),
      tiers_(split_by_tier(std::move(full_pipeline))),
      obsy_(make_observatory(config.observatory, topo_.num_nodes())) {
  IOTML_CHECK(config.duration_s > 0.0, "FleetSim: duration must be positive");
  IOTML_CHECK(config.device_flush_s > 0.0 && config.edge_flush_s > 0.0,
              "FleetSim: flush intervals must be positive");
  IOTML_CHECK(config.sensor_period_s > 0.0, "FleetSim: sensor period must be positive");
  IOTML_CHECK(config.sensor_dropout >= 0.0 && config.sensor_dropout <= 1.0,
              "FleetSim: sensor dropout outside [0, 1]");
  IOTML_CHECK(config.feature_keep >= 1, "FleetSim: feature_keep must be >= 1");
  IOTML_CHECK(config.checkpoint_interval_s >= 0.0,
              "FleetSim: negative checkpoint interval");
  if (config.deploy.enabled) DeployPhase::validate(config.deploy);
  if (config.ota.enabled) OtaLoop::validate(config.ota);
  if (config.telemetry.enabled) {
    IOTML_CHECK(config.telemetry.scale_bits <= 52,
                "FleetSim: telemetry.scale_bits must be <= 52");
    IOTML_CHECK(config.telemetry.device_log_bytes >= 1,
                "FleetSim: telemetry.device_log_bytes must be >= 1");
  }
  if (config.degrade.enabled) {
    IOTML_CHECK(config.degrade.pin_level >= -1 && config.degrade.pin_level <= 3,
                "FleetSim: degrade.pin_level outside [-1, 3]");
    IOTML_CHECK(config.degrade.sample_rate > 0.0 && config.degrade.sample_rate <= 1.0,
                "FleetSim: degrade.sample_rate outside (0, 1]");
    IOTML_CHECK(config.degrade.sketch_capacity >= 1 &&
                    config.degrade.countmin_width >= 1 &&
                    config.degrade.countmin_depth >= 1,
                "FleetSim: degrade sketch shapes must be >= 1");
    IOTML_CHECK(config.degrade.dead_letter_rate_ref > 0.0,
                "FleetSim: degrade.dead_letter_rate_ref must be positive");
    IOTML_CHECK(config.degrade.checkpoint_lag_rows >= 1,
                "FleetSim: degrade.checkpoint_lag_rows must be >= 1");
    IOTML_CHECK(config.degrade.sketch_cost_base >= 0.0 &&
                    config.degrade.sketch_cost_per_row >= 0.0,
                "FleetSim: negative degrade sketch cost");
  }
  if (config.deploy.enabled || config.ota.enabled) {
    // Downlinks append after every uplink, so in the split loop below the
    // uplinks draw exactly the Rng streams a non-deploy run would assign.
    // OTA-only runs reuse the deploy link parameters for the return path.
    topo_.add_downlinks(config.deploy.edge_device_link, config.deploy.core_edge_link);
  }

  // Fixed derivation order: every stream of randomness is split off the
  // master seed before the event loop starts, so event handlers can draw in
  // any interleaving without perturbing each other's sequences.
  Rng master(config.seed);         // rng-stream: master
  Rng fault_rng = master.split();  // rng-stream: fault
  device_rngs_.reserve(config.devices);
  // rng-stream: device (one split per device, in device-id order)
  for (std::size_t d = 0; d < config.devices; ++d) device_rngs_.push_back(master.split());
  edge_rngs_.reserve(config.edges);
  // rng-stream: edge (one split per edge, in edge-id order)
  for (std::size_t e = 0; e < config.edges; ++e) edge_rngs_.push_back(master.split());
  core_rng_ = master.split();  // rng-stream: core
  link_rngs_.reserve(topo_.num_links());
  // rng-stream: link (one split per link, in link-id order)
  for (std::size_t l = 0; l < topo_.num_links(); ++l) link_rngs_.push_back(master.split());
  // The chaos stream splits off *after* every legacy stream, so a run with
  // chaos disabled draws exactly the sequences the pre-chaos runtime drew.
  chaos_rng_ = master.split();  // rng-stream: chaos
  // The OTA streams split off after every earlier stream (appended to the
  // manifest in this order), so prior-seed event logs stay byte-identical
  // when OTA is off.
  Rng canary_rng = master.split();  // rng-stream: canary
  Rng epoch_rng = master.split();  // rng-stream: epoch
  // The degradation-sampling stream splits off after every earlier stream,
  // so L0-only and degrade-off runs replay historical draw sequences.
  degrade_rng_ = master.split();  // rng-stream: degrade

  // One transport per link. The topology is final here (downlinks included),
  // so the Link references the channels capture stay stable.
  channels_.reserve(topo_.num_links());
  link_bytes_.assign(topo_.num_links(), nullptr);
  core_link_.assign(topo_.num_links(), 0);
  base_drop_prob_.reserve(topo_.num_links());
  base_corrupt_prob_.reserve(topo_.num_links());
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    channels_.emplace_back(topo_.link(l), config.channel);
    base_drop_prob_.push_back(topo_.link(l).params().drop_prob);
    base_corrupt_prob_.push_back(topo_.link(l).params().corrupt_prob);
  }
  for (std::size_t j = 0; j < config.edges; ++j) {
    core_link_[topo_.uplink_index(topo_.edge(j))] = 1;
    if (topo_.has_downlinks()) core_link_[topo_.downlink_index(topo_.edge(j))] = 1;
  }

  // Temperature starts the window cold (phase -pi/2) and cycles fast enough
  // that even a short run sees both comfortable and uncomfortable spells —
  // the analytics labels must never collapse to a single class.
  truths_.push_back(
      pipeline::sine_signal(22.0, 6.0, 40.0, -std::numbers::pi / 2.0));
  truths_.push_back(pipeline::composite_signal(
      {pipeline::sine_signal(55.0, 10.0, 500.0), pipeline::trend_signal(0.0, -0.01)}));
  truths_.push_back(pipeline::sine_signal(4.0, 3.0, 120.0));

  report_.devices = config.devices;
  report_.edges = config.edges;
  report_.duration_s = config.duration_s;

  edge_buffers_.resize(config.edges);
  edge_checkpoints_.resize(config.edges);
  device_sf_.resize(config.devices);
  if (config.degrade.enabled) {
    degrade_ctrl_.reserve(config.edges);
    for (std::size_t e = 0; e < config.edges; ++e) {
      degrade_ctrl_.emplace_back(config.degrade.thresholds, config.degrade.pin_level);
    }
    degrade_signal_t_.assign(config.edges, 0.0);
    degrade_dead_letters_.assign(config.edges, 0);
    degrade_dead_letters_seen_.assign(config.edges, 0);
    degrade_queue_hint_.assign(config.edges, 0.0);
    degrade_sf_highwater_.assign(config.edges, 0);
    report_.degradation.enabled = true;
    report_.degradation.pin_level = config.degrade.pin_level;
    report_.degradation.duration_s = config.duration_s;
  }
  if (config.telemetry.enabled) {
    tdf_session_open_.assign(config.devices, 0);
    tdf_seq_.assign(config.devices, 0);
    device_logs_.reserve(config.devices);
    for (std::size_t d = 0; d < config.devices; ++d) {
      device_logs_.emplace_back(config.telemetry.device_log_bytes);
    }
    report_.telemetry.enabled = true;
  }

  generate_device_data();

  const std::vector<net::Fault> plan =
      net::make_fault_plan(topo_, config.faults, config.duration_s, fault_rng);
  schedule_initial_events();
  for (const net::Fault& f : plan) {
    EventKind kind = EventKind::kLinkDown;
    switch (f.kind) {
      case net::FaultKind::kLinkDown: kind = EventKind::kLinkDown; break;
      case net::FaultKind::kLinkUp: kind = EventKind::kLinkUp; break;
      case net::FaultKind::kDeviceDown: kind = EventKind::kDeviceDown; break;
      case net::FaultKind::kDeviceUp: kind = EventKind::kDeviceUp; break;
      case net::FaultKind::kEdgeCrash: kind = EventKind::kEdgeCrash; break;
      case net::FaultKind::kEdgeRestart: kind = EventKind::kEdgeRestart; break;
      case net::FaultKind::kCoreCrash: kind = EventKind::kCoreCrash; break;
      case net::FaultKind::kCoreRestart: kind = EventKind::kCoreRestart; break;
    }
    sched_.push(f.time_s, kind, f.target);
  }

  const std::vector<ChaosEvent> chaos =
      make_chaos_plan(topo_, config.chaos, config.duration_s, chaos_rng_);
  for (const ChaosEvent& c : chaos) {
    EventKind kind = EventKind::kPartitionStart;
    switch (c.kind) {
      case ChaosKind::kPartitionStart: kind = EventKind::kPartitionStart; break;
      case ChaosKind::kPartitionEnd: kind = EventKind::kPartitionEnd; break;
      case ChaosKind::kLossBurstStart: kind = EventKind::kLossBurstStart; break;
      case ChaosKind::kLossBurstEnd: kind = EventKind::kLossBurstEnd; break;
      case ChaosKind::kCorruptionStart: kind = EventKind::kCorruptionStart; break;
      case ChaosKind::kCorruptionEnd: kind = EventKind::kCorruptionEnd; break;
      case ChaosKind::kLoadStormStart: kind = EventKind::kLoadStormStart; break;
      case ChaosKind::kLoadStormEnd: kind = EventKind::kLoadStormEnd; break;
    }
    sched_.push(c.time_s, kind, c.target);
  }

  if (config.checkpoint_interval_s > 0.0) {
    for (std::size_t e = 0; e < config.edges; ++e) {
      for (double t = config.checkpoint_interval_s; t < config.duration_s;
           t += config.checkpoint_interval_s) {
        sched_.push(t, EventKind::kCheckpoint, e);
      }
    }
  }

  if (config.deploy.enabled) {
    deploy_ = std::make_unique<DeployPhase>(config_, FleetSurface(*this));
  }
  if (config.ota.enabled) {
    ota_ = std::make_unique<OtaLoop>(config_, FleetSurface(*this), std::move(canary_rng),
                                     std::move(epoch_rng));
  }
}

FleetSim::~FleetSim() = default;

void FleetSim::generate_device_data() {
  static const char* kQuantity[3] = {"temperature", "humidity", "wind"};
  static constexpr double kNoiseScale[3] = {1.0, 2.5, 1.5};
  device_data_.resize(config_.devices);
  device_cursor_.assign(config_.devices, 0);
  // Deploy runs keep sensing past the learning window: those extra rows are
  // never flushed upstream — they are the data the deployed artifact scores.
  const double horizon_s =
      config_.duration_s +
      (config_.deploy.enabled ? config_.deploy.score_window_s : 0.0);
  for (std::size_t d = 0; d < config_.devices; ++d) {
    Rng& rng = device_rngs_[d];
    const std::int64_t start_us = obs::now_us();
    std::vector<pipeline::SensorStream> streams;
    std::size_t readings = 0;
    for (std::size_t q = 0; q < 3; ++q) {
      pipeline::SensorSpec spec;
      spec.name = kQuantity[q];
      spec.period_s = config_.sensor_period_s * rng.uniform(0.9, 1.1);
      spec.clock_jitter_s = 0.02;
      spec.noise_std = config_.sensor_noise * kNoiseScale[q];
      spec.dropout_prob = config_.sensor_dropout;
      streams.push_back(
          pipeline::simulate_sensor(spec, truths_[q], horizon_s, rng));
      readings += streams.back().readings.size();
    }
    pipeline::IntegrationResult integ = pipeline::integrate_streams(
        streams, {.merge_tolerance_s = 0.45 * config_.sensor_period_s});
    report_.rows_generated += integ.records.rows();

    StageReport acq;
    acq.stage_name = "acquisition";
    acq.player = "device";
    acq.tier = Tier::kDevice;
    acq.rows_in = readings;
    acq.rows_out = integ.records.rows();
    acq.columns_out = integ.records.num_columns();
    acq.missing_rate_out = integ.records.missing_rate();
    acq.cost = 0.05 + 0.01 * static_cast<double>(readings);
    // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
    acq.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);
    report_.stage_reports.push_back(std::move(acq));

    device_data_[d] = std::move(integ.records);
  }
}

void FleetSim::schedule_initial_events() {
  for (std::size_t d = 0; d < config_.devices; ++d) {
    // Stagger flush phases deterministically so a big fleet does not report
    // in lockstep (real fleets desynchronize; ties would be FIFO anyway).
    const double phase =
        config_.device_flush_s * (static_cast<double>(d % 16) / 64.0);
    for (double t = phase + config_.device_flush_s; t < config_.duration_s;
         t += config_.device_flush_s) {
      sched_.push(t, EventKind::kDeviceFlush, topo_.device(d));
    }
    // Final flush drains whatever the window schedule left behind.
    sched_.push(config_.duration_s, EventKind::kDeviceFlush, topo_.device(d));
  }
  for (std::size_t e = 0; e < config_.edges; ++e) {
    for (double t = config_.edge_flush_s; t < config_.duration_s;
         t += config_.edge_flush_s) {
      sched_.push(t, EventKind::kEdgeFlush, topo_.edge(e));
    }
  }
}

FleetReport FleetSim::run() {
  IOTML_CHECK(!ran_, "FleetSim::run: already ran (FleetSim is one-shot)");
  ran_ = true;
  obs::Span run_span("sim.fleet_run", "sim");

  while (!sched_.empty()) handle(sched_.pop());

  // Drain: one last edge flush each, after every in-flight message has
  // landed, so late arrivals are not silently stranded by the periodic
  // schedule. Anything still buffered after this (an edge cut off by a
  // down link) is reported as stranded, not dropped on the floor.
  const double drain_s = std::max(sched_.now_s(), config_.duration_s);
  for (std::size_t e = 0; e < config_.edges; ++e) handle_edge_flush(e, drain_s);
  while (!sched_.empty()) handle(sched_.pop());

  if (degrade_on()) degrade_settle(std::max(sched_.now_s(), drain_s));

  finalize();
  if (degrade_on()) finalize_degradation();
  if (deploy_) {
    // Ship the model to the data once the learning window has drained: the
    // fresh broadcast first, then the stale artifact for devices it missed.
    const double t0 = std::max(sched_.now_s(), config_.duration_s);
    if (deploy_->schedule_broadcast(t0)) {
      if (config_.chaos.crash_during_broadcast && config_.edges > 0) {
        // The chaos harness's timed scenario: edge 0 dies the instant the
        // broadcast leaves the core and returns after the configured
        // downtime. Its devices miss the fresh artifact and must fall back
        // to the prior epoch's (DeployConfig::stale_fallback).
        sched_.push(t0, EventKind::kEdgeCrash, 0);
        sched_.push(t0 + config_.chaos.broadcast_crash_downtime_s,
                    EventKind::kEdgeRestart, 0);
      }
      while (!sched_.empty()) handle(sched_.pop());
    }
    deploy_->serve_stale(std::max(sched_.now_s(), config_.duration_s));
    while (!sched_.empty()) handle(sched_.pop());
    report_.deploy = deploy_->finalize();
    report_.faults.stale_model_devices = report_.deploy.devices_stale;
  }
  if (ota_) report_.deploy.ota = ota_->finalize();

  // Stranded rows are booked last: the deploy phase can still crash an edge
  // (chaos crash_during_broadcast), which books the rows it had not persisted
  // as lost to the crash and restores only the checkpoint.
  for (const Buffer& buf : edge_buffers_) report_.rows_stranded += buf.row_count;
  // Undrained store-and-forward backlog is the device-side mirror of an
  // edge's stranded buffer.
  for (std::size_t dvc = 0; dvc < config_.devices; ++dvc) {
    report_.rows_stranded += stored_rows(dvc);
  }
  report_.events = sched_.processed();
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    report_.links.push_back({topo_.link(l).name(), topo_.link(l).stats()});
  }
  for (const net::Channel& ch : channels_) {
    const net::ChannelStats& s = ch.stats();
    report_.channels.sends += s.sends;
    report_.channels.delivered += s.delivered;
    report_.channels.acks += s.acks;
    report_.channels.timeouts += s.timeouts;
    report_.channels.retransmits += s.retransmits;
    report_.channels.backoff_waits += s.backoff_waits;
    report_.channels.backoff_wait_s += s.backoff_wait_s;
    report_.channels.dead_letters += s.dead_letters;
    report_.channels.corrupt_rejected += s.corrupt_rejected;
  }
  report_.latency_tiers["device-edge"] = LatencyBreakdown::from_histogram(lat_device_edge_);
  report_.latency_tiers["edge-core"] = LatencyBreakdown::from_histogram(lat_edge_core_);
  report_.latency_tiers["end-to-end"] = LatencyBreakdown::from_histogram(lat_end_to_end_);
  IOTML_INTERNAL_CHECK(report_.rows_conserved(),
                       "FleetSim: row-conservation ledger out of balance");
  if (run_span.active()) {
    run_span.arg("events", static_cast<std::uint64_t>(report_.events));
    run_span.arg("rows_delivered", static_cast<std::uint64_t>(report_.rows_delivered));
  }
  if (observatory() != nullptr && !config_.observatory.artifact_dir.empty()) {
    // Best-effort: an unwritable artifact dir must not fail a finished run.
    obsy_.write_artifacts(config_.observatory.artifact_dir, sched_.log());
    if (ota_) {
      std::ofstream ota_out(config_.observatory.artifact_dir + "/ota.json");
      if (ota_out) ota_out << ota_to_json(report_.deploy.ota);
    }
    if (degrade_on()) {
      std::ofstream deg_out(config_.observatory.artifact_dir + "/degradation.json");
      if (deg_out) deg_out << degradation_to_json(report_.degradation);
    }
  }
  return report_;
}

void FleetSim::handle(const Event& event) {
  obs::Span span(event_span_name(event.kind), "sim");
  if (span.active()) {
    span.arg("t_s", event.time_s);
    span.arg("target", static_cast<std::uint64_t>(event.target));
  }
  static obs::Counter& sim_events = obs::registry().counter("sim.events");
  sim_events.add();
  switch (event.kind) {
    case EventKind::kDeviceFlush:
      handle_device_flush(event);
      break;
    case EventKind::kEdgeFlush:
      handle_edge_flush(event.target - config_.devices, event.time_s);
      break;
    case EventKind::kArrival:
    case EventKind::kCorruptArrival:
      handle_arrival(event);
      break;
    case EventKind::kLinkDown:
      topo_.link(event.target).set_up(false);
      static obs::Counter& sim_faults_link_down = obs::registry().counter("sim.faults.link_down");
      sim_faults_link_down.add();
      break;
    case EventKind::kLinkUp:
      // A partition owns the edge<->core links while active; an overlapping
      // link-outage recovery must not punch through it.
      if (!(partitioned_ && core_link_[event.target] != 0)) {
        topo_.link(event.target).set_up(true);
      }
      break;
    case EventKind::kDeviceDown:
      topo_.node(event.target).up = false;
      static obs::Counter& sim_faults_device_down =
          obs::registry().counter("sim.faults.device_down");
      sim_faults_device_down.add();
      break;
    case EventKind::kDeviceUp:
      topo_.node(event.target).up = true;
      // Reconnect: drain the store-and-forward buffer right away instead of
      // waiting out the periodic flush schedule.
      if (config_.device_buffer_rows > 0 && !device_sf_[event.target].empty()) {
        sched_.push(event.time_s, EventKind::kDeviceFlush, event.target);
      }
      break;
    case EventKind::kDeployBroadcast:
    case EventKind::kArtifactArrival:
    case EventKind::kPredictionArrival:
      deploy_->handle(event);
      break;
    case EventKind::kEdgeCrash:
      handle_edge_crash(event.target);
      break;
    case EventKind::kEdgeRestart:
      handle_edge_restart(event.target);
      break;
    case EventKind::kCoreCrash:
      if (topo_.node(topo_.core()).up) {
        topo_.node(topo_.core()).up = false;
        ++report_.faults.core_crashes;
        static obs::Counter& sim_faults_core_crash =
            obs::registry().counter("sim.faults.core_crash");
        sim_faults_core_crash.add();
        flight_dump(topo_.core(), "core-crash", event.time_s);
      }
      break;
    case EventKind::kCoreRestart:
      // The core's stored data is durable (a datacenter write-ahead log);
      // a crash only makes it unreachable, so restart is just liveness.
      topo_.node(topo_.core()).up = true;
      break;
    case EventKind::kPartitionStart:
      set_partition(true);
      break;
    case EventKind::kPartitionEnd:
      set_partition(false);
      break;
    case EventKind::kLossBurstStart:
      set_loss_burst(true);
      break;
    case EventKind::kLossBurstEnd:
      set_loss_burst(false);
      break;
    case EventKind::kCorruptionStart:
      set_corruption_storm(true);
      break;
    case EventKind::kCorruptionEnd:
      set_corruption_storm(false);
      break;
    case EventKind::kCheckpoint:
      handle_checkpoint(event.target);
      break;
    case EventKind::kOtaEpoch:
    case EventKind::kOtaChunkArrival:
    case EventKind::kOtaResume:
    case EventKind::kOtaReportArrival:
    case EventKind::kOtaVerdict:
    case EventKind::kOtaControlArrival:
      ota_->handle(event);
      break;
    case EventKind::kLoadStormStart:
      set_load_storm(true, event.time_s);
      break;
    case EventKind::kLoadStormEnd:
      set_load_storm(false, event.time_s);
      break;
    case EventKind::kStormFlush:
      handle_storm_flush(event);
      break;
    case EventKind::kSummaryArrival:
      handle_summary_arrival(event);
      break;
  }
}

void FleetSim::handle_device_flush(const Event& event) {
  const net::NodeId d = event.target;
  const data::Dataset& all = device_data_[d];
  const bool final_flush = event.time_s >= config_.duration_s;
  // The final flush drains everything — except in deploy mode, where rows
  // sensed after the learning window stay on the device for local scoring.
  const double cutoff =
      !final_flush ? event.time_s
      : config_.deploy.enabled ? config_.duration_s
                               : std::numeric_limits<double>::infinity();
  const std::size_t begin = device_cursor_[d];
  std::size_t end = begin;
  while (end < all.rows() && all.column(0).numeric(end) < cutoff) ++end;
  device_cursor_[d] = end;
  const std::size_t count = end - begin;
  const bool sf = config_.device_buffer_rows > 0;
  if (count == 0 && (!sf || device_sf_[d].empty())) return;
  if (!topo_.node(d).up && !sf) {
    // Churn, legacy accounting: the device was offline when its report
    // window closed and has no store-and-forward buffer — the window's
    // rows are gone.
    report_.rows_skipped += count;
    return;
  }

  Buffer out;
  if (count > 0) {
    std::vector<std::size_t> idx(count);
    std::iota(idx.begin(), idx.end(), begin);
    data::Dataset chunk = all.select_rows(idx);
    // Local compute is unaffected by connectivity: the device cleans its
    // window even when offline, then persists the result.
    chunk = tiers_.device.run(std::move(chunk), device_rngs_[d]);
    for (const StageReport& r : tiers_.device.reports()) {
      report_.stage_reports.push_back(r);
    }
    out.row_count = chunk.rows();
    out.rows = std::move(chunk);
    out.origin_s = {event.time_s};
    // The window's birth certificate: every downstream frame carrying these
    // rows lists this id in its parents, which is what lets fleetscope
    // reconstruct the device -> edge -> core journey after batching.
    out.parents = {next_trace_++};
    obsy_.origin(out.parents.front(), obs::HopStream::kRows, d, event.time_s, out.row_count,
                 0);
    obsy_.note(d, event.time_s, "flush", out.row_count);
    obsy_.sample("flush.rows", "fleet", "device", event.time_s,
                 static_cast<double>(out.row_count));
  }
  if (!topo_.node(d).up) {
    // Reaching here offline implies sf: the bufferless case returned above.
    if (out.row_count > 0) {
      if (telemetry_on()) {
        telemetry_store(d, std::move(out));
      } else {
        store_and_forward(d, std::move(out));
      }
    }
    return;
  }

  // Online: drain the store-and-forward backlog (oldest first) together
  // with the fresh window as one uplink message.
  Buffer merged;
  if (sf) {
    while (!device_sf_[d].empty()) {
      const Buffer& pending = device_sf_[d].front();
      merged.append(pending.rows, pending.origin_s, pending.parents);
      device_sf_[d].pop_front();
    }
    if (merged.row_count > 0) obsy_.note(d, event.time_s, "sf-drain", merged.row_count);
    // A full drain empties the ring log with it: the backlog leaves as one
    // merged frame, re-encoded by send().
    if (telemetry_on()) device_logs_[d].clear();
  }
  if (out.row_count > 0) merged.append(out.rows, out.origin_s, out.parents);
  if (merged.row_count == 0) return;
  send(d, std::move(merged), event.time_s);
}

void FleetSim::handle_edge_flush(std::size_t edge_index, double now_s) {
  Buffer& buf = edge_buffers_[edge_index];
  if (buf.row_count == 0) return;
  const net::NodeId e = topo_.edge(edge_index);
  obsy_.sample("buffer.rows", topo_.node(e).name, "edge", now_s,
               static_cast<double>(buf.row_count));
  if (!topo_.node(e).up) return;  // hold the buffer until the edge recovers

  // Ladder decision (DESIGN.md §16): the controller steps on the edge's own
  // backpressure *before* the hold guard, so pressure accumulated during a
  // partition (checkpoint lag, store-and-forward occupancy) still escalates
  // the level instead of being invisible until the wire heals.
  int degrade_level = 0;
  if (degrade_on()) {
    degrade_level =
        degrade_update(edge_index, now_s, degrade_signals(edge_index, now_s));
    if (degrade_level >= 2) {
      // L2/L3 answer the window locally and shed every row; only a
      // fixed-size summary goes upstream, so a dead uplink cannot make the
      // edge hoard rows.
      degrade_summary_flush(edge_index, now_s, degrade_level);
      return;
    }
  }

  if (config_.channel.mode == net::ChannelMode::kAckRetry &&
      (!topo_.node(topo_.core()).up || !topo_.uplink(e).up())) {
    // Degraded mode: a stop-and-wait edge knows its uplink (or the core) is
    // unreachable and holds the batch for the next flush instead of burning
    // retransmits into a dead wire. Fire-and-forget edges cannot know and
    // transmit anyway (the frame dies at the dead receiver).
    static obs::Counter& sim_recovery_edge_holds =
        obs::registry().counter("sim.recovery.edge_holds");
    sim_recovery_edge_holds.add();
    return;
  }

  if (degrade_level == 1) {
    // L1: a seeded stratified sample of the window rides the normal
    // integrate -> pipeline -> uplink path below; the rest is shed with a
    // ledgered confidence interval standing in for them.
    degrade_sample_window(edge_index, now_s);
  } else if (degrade_on()) {
    report_.degradation.rows_exact += buf.row_count;
    ++report_.degradation.windows_exact;
  }

  // Integration: merge the per-device chunks into one time-ordered record
  // stream (the §IV "ordered list of time-stamps" step, here across devices).
  const std::int64_t start_us = obs::now_us();
  std::vector<std::size_t> order(buf.row_count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const data::Column& ts = buf.rows.column(0);
  std::stable_sort(order.begin(), order.end(), [&ts](std::size_t a, std::size_t b) {
    return ts.numeric(a) < ts.numeric(b);
  });
  data::Dataset merged = buf.rows.select_rows(order);

  StageReport integ;
  integ.stage_name = "integration";
  integ.player = "edge-operator";
  integ.tier = Tier::kEdge;
  integ.rows_in = buf.row_count;
  integ.rows_out = merged.rows();
  integ.columns_out = merged.num_columns();
  integ.missing_rate_in = merged.missing_rate();
  integ.missing_rate_out = merged.missing_rate();
  integ.cost = 0.2 + 0.001 * static_cast<double>(merged.rows());
  // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
  integ.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);
  report_.stage_reports.push_back(std::move(integ));

  merged = tiers_.edge.run(std::move(merged), edge_rngs_[edge_index]);
  for (const StageReport& r : tiers_.edge.reports()) {
    report_.stage_reports.push_back(r);
  }

  Buffer out;
  out.row_count = merged.rows();
  out.rows = std::move(merged);
  out.origin_s = std::move(buf.origin_s);
  out.parents = std::move(buf.parents);
  obsy_.note(e, now_s, "edge-flush", out.row_count);
  buf = Buffer{};
  // The flush ships these rows upstream, so the checkpoint covering them is
  // retired with the buffer — a later restore must never resurrect rows
  // that already left the edge.
  edge_checkpoints_[edge_index] = Buffer{};
  send(e, std::move(out), now_s);
}

// ---- Graceful-degradation ladder (DESIGN.md §16) --------------------------

approx::DegradeSignals FleetSim::degrade_signals(std::size_t edge_index,
                                                 double now_s) {
  approx::DegradeSignals s;
  const net::NodeId e = topo_.edge(edge_index);

  // Channel congestion: the uplink's depth right now, or the deepest
  // fraction any of the edge's channels hit since the last update.
  const auto cap = static_cast<double>(config_.channel.queue_capacity);
  const std::size_t uplink = topo_.uplink_index(e);
  const double now_frac =
      static_cast<double>(channels_[uplink].in_flight(now_s)) / cap;
  s.queue_fraction = std::max(now_frac, degrade_queue_hint_[edge_index]);
  degrade_queue_hint_[edge_index] = 0.0;

  // Dead-letter growth since the last update, against the reference rate.
  const double elapsed = now_s - degrade_signal_t_[edge_index];
  const std::uint64_t letters = degrade_dead_letters_[edge_index];
  const std::uint64_t fresh = letters - degrade_dead_letters_seen_[edge_index];
  if (fresh > 0) {
    s.dead_letter_rate = (static_cast<double>(fresh) / std::max(elapsed, 1e-9)) /
                         config_.degrade.dead_letter_rate_ref;
  }
  degrade_dead_letters_seen_[edge_index] = letters;

  // Store-and-forward occupancy across the edge's devices (device i
  // belongs to edge i % edges; see Topology::fleet).
  if (config_.device_buffer_rows > 0) {
    std::uint64_t total = 0;
    std::size_t fleet = 0;
    for (std::size_t i = edge_index; i < config_.devices; i += config_.edges) {
      total += stored_rows(topo_.device(i));
      ++fleet;
    }
    degrade_sf_highwater_[edge_index] =
        std::max<std::uint64_t>(degrade_sf_highwater_[edge_index], total);
    if (fleet > 0) {
      s.sf_occupancy = static_cast<double>(total) /
                       (static_cast<double>(config_.device_buffer_rows) *
                        static_cast<double>(fleet));
    }
  }

  // Checkpoint lag: rows buffered beyond what the last checkpoint covers.
  if (config_.checkpoint_interval_s > 0.0) {
    const std::size_t buffered = edge_buffers_[edge_index].row_count;
    const std::size_t persisted = edge_checkpoints_[edge_index].row_count;
    const std::size_t lag = buffered > persisted ? buffered - persisted : 0;
    s.checkpoint_lag = static_cast<double>(lag) /
                       static_cast<double>(config_.degrade.checkpoint_lag_rows);
  }
  degrade_signal_t_[edge_index] = now_s;
  return s;
}

int FleetSim::degrade_update(std::size_t edge_index, double now_s,
                             const approx::DegradeSignals& signals) {
  approx::DegradationController& ctrl = degrade_ctrl_[edge_index];
  const approx::DegradeLevel before = ctrl.level();
  const approx::DegradeLevel after = ctrl.update(now_s, signals);
  if (after != before) {
    auto& d = report_.degradation;
    if (static_cast<int>(after) > static_cast<int>(before)) {
      ++d.transitions_up;
    } else {
      ++d.transitions_down;
    }
    static obs::Counter& sim_degrade_transitions =
        obs::registry().counter("sim.degrade.transitions");
    sim_degrade_transitions.add();
    const net::NodeId e = topo_.edge(edge_index);
    obsy_.note(e, now_s, "degrade-level", static_cast<std::size_t>(before),
               static_cast<std::size_t>(after));
    obsy_.sample("degrade.level", topo_.node(e).name, "edge", now_s,
                 static_cast<double>(static_cast<int>(after)));
  }
  return static_cast<int>(after);
}

namespace {

/// Mean of a column over [0, rows), skipping missing cells; the number of
/// contributing cells comes back through `n`.
double column_mean(const data::Column& col, std::size_t rows, std::size_t& n) {
  double sum = 0.0;
  n = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (col.is_missing(r)) continue;
    sum += col.numeric(r);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

void FleetSim::degrade_record_ci(std::size_t edge_index, double now_s, int level,
                                 std::size_t population, std::size_t rows_used,
                                 const approx::Interval& ci, double exact,
                                 std::size_t exact_n) {
  auto& d = report_.degradation;
  const bool covered = exact_n == 0 || ci.covers(exact);
  ++d.ci_windows;
  if (covered) ++d.ci_covered;
  degrade_half_width_sum_ += ci.half_width;
  const double err = std::abs(ci.estimate - exact);
  degrade_abs_error_sum_ += err;
  d.max_abs_error = std::max(d.max_abs_error, err);
  if (d.windows.size() < kMaxWindowEstimates) {
    d.windows.push_back({edge_index, now_s, level, population, rows_used,
                         ci.estimate, ci.half_width, exact, covered});
  } else {
    ++d.windows_truncated;
  }
}

void FleetSim::degrade_sample_window(std::size_t edge_index, double now_s) {
  Buffer& buf = edge_buffers_[edge_index];
  const std::size_t population = buf.row_count;
  auto& d = report_.degradation;

  // Strata must tile the buffer exactly; anything else (defensive — e.g. a
  // window restored from a pre-ladder checkpoint) collapses to one stratum.
  std::size_t tiled = 0;
  for (const approx::Stratum& s : buf.strata) tiled += s.count;
  std::vector<approx::Stratum> strata = buf.strata;
  if (strata.empty() || tiled != population) {
    strata.assign(1, approx::Stratum{static_cast<std::uint32_t>(edge_index), 0,
                                     population});
  }

  // Sample live rows only, stratum by stratum. Missing cells carry no
  // analytic value (downstream would impute them), and with contiguous-run
  // sampling a tiny stratum whose only draw lands on a missing cell drops
  // out of the estimate entirely — storm-compressed strata are small, late,
  // and drifted, so those dropouts are a systematic bias, not noise.
  const data::Column& col = buf.rows.column(1);
  std::vector<std::vector<std::size_t>> live(strata.size());
  for (std::size_t i = 0; i < strata.size(); ++i) {
    const approx::Stratum& s = strata[i];
    for (std::size_t r = s.begin; r < s.begin + s.count; ++r) {
      if (!col.is_missing(r)) live[i].push_back(r);
    }
  }

  const std::int64_t start_us = obs::now_us();
  const std::vector<std::size_t> keep =
      approx::stratified_indices(live, config_.degrade.sample_rate,
                                 degrade_rng_);

  // The bounded-error contract: the realized error of the sampled window
  // mean (first measured quantity) against the exact full-window answer,
  // which the simulator can still compute out of band. The per-stratum
  // sampler rounds draws up, so small strata carry higher sampling
  // fractions; the self-weighted stratified estimator keeps that from
  // biasing the window mean (a pooled mean over `keep` would drift high).
  std::size_t exact_n = 0;
  const double exact = column_mean(col, population, exact_n);
  std::vector<approx::StratumSample> samples(strata.size());
  for (std::size_t i = 0; i < strata.size(); ++i) {
    samples[i].population = live[i].size();
  }
  std::size_t cursor = 0;
  for (std::size_t r : keep) {
    while (cursor + 1 < strata.size() &&
           r >= strata[cursor].begin + strata[cursor].count) {
      ++cursor;
    }
    samples[cursor].values.push_back(col.numeric(r));
  }
  degrade_record_ci(edge_index, now_s, 1, population, keep.size(),
                    approx::stratified_mean_interval(samples), exact, exact_n);

  ++d.windows_sampled;
  d.rows_approx += population;
  d.rows_sampled_out += population - keep.size();

  StageReport st;
  st.stage_name = "degrade(sample)";
  st.player = "edge-operator";
  st.tier = Tier::kEdge;
  st.rows_in = population;
  st.rows_out = keep.size();
  st.columns_out = buf.rows.num_columns();
  st.missing_rate_in = buf.rows.missing_rate();
  st.cost = 0.05 + 0.0002 * static_cast<double>(population);
  // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
  st.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);

  Buffer kept;
  kept.rows = buf.rows.select_rows(keep);
  kept.row_count = keep.size();
  kept.origin_s = std::move(buf.origin_s);
  kept.parents = std::move(buf.parents);
  buf = std::move(kept);  // the sampled window is one run now; strata reset
  st.missing_rate_out = buf.rows.missing_rate();
  report_.stage_reports.push_back(std::move(st));

  const net::NodeId e = topo_.edge(edge_index);
  obsy_.note(e, now_s, "degrade-sample", population, keep.size());
  obsy_.sample("degrade.sampled_rows", topo_.node(e).name, "edge", now_s,
               static_cast<double>(keep.size()));
}

void FleetSim::degrade_summary_flush(std::size_t edge_index, double now_s,
                                     int level) {
  Buffer& buf = edge_buffers_[edge_index];
  const std::size_t population = buf.row_count;
  const net::NodeId e = topo_.edge(edge_index);
  auto& d = report_.degradation;
  const std::int64_t start_us = obs::now_us();

  // Count + level + window stamp ride in every summary.
  std::size_t wire_bytes = net::kMessageHeaderBytes + 24;

  StageReport st;
  st.player = "edge-operator";
  st.tier = Tier::kEdge;
  st.rows_in = population;
  st.rows_out = 0;
  st.columns_out = 0;
  st.missing_rate_in = buf.rows.missing_rate();

  if (level == 2) {
    // L2 sketch-only reduce: the window collapses to a count-min tally of
    // rows per sender plus a bottom-k quantile sample of the first measured
    // quantity. Both are mergeable and byte-stable, so the core could fold
    // summaries from many edges in any order; the retained sample doubles
    // as the CI input.
    approx::CountMinSketch tally(config_.degrade.countmin_width,
                                 config_.degrade.countmin_depth, config_.seed);
    std::size_t tiled = 0;
    for (const approx::Stratum& s : buf.strata) tiled += s.count;
    if (!buf.strata.empty() && tiled == population) {
      for (const approx::Stratum& s : buf.strata) tally.add(s.key, s.count);
    } else {
      tally.add(e, population);
    }
    approx::QuantileSketch quant(config_.degrade.sketch_capacity, config_.seed);
    const data::Column& col = buf.rows.column(1);
    const std::uint64_t key_base = static_cast<std::uint64_t>(e) << 32;
    for (std::size_t r = 0; r < population; ++r) {
      if (col.is_missing(r)) continue;
      quant.add(key_base | static_cast<std::uint64_t>(r), col.numeric(r));
    }

    std::size_t exact_n = 0;
    const double exact = column_mean(col, population, exact_n);
    degrade_record_ci(edge_index, now_s, 2, population, quant.retained(),
                      approx::mean_interval(quant.sample_values(), exact_n),
                      exact, exact_n);

    wire_bytes += tally.encode().size() + quant.encode().size();
    ++d.windows_sketch;
    st.stage_name = "degrade(sketch-reduce)";
    st.cost = config_.degrade.sketch_cost_base +
              config_.degrade.sketch_cost_per_row * static_cast<double>(population);
  } else {
    // L3 summary-only: the edge reports a bare row count and sheds the
    // window.
    ++d.windows_summary;
    st.stage_name = "degrade(summary-only)";
    st.cost = 0.01;
  }
  d.rows_approx += population;
  d.rows_sampled_out += population;
  st.missing_rate_out = 0.0;
  // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
  st.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);
  report_.stage_reports.push_back(std::move(st));

  obsy_.note(e, now_s, "degrade-shed", population, static_cast<std::size_t>(level));
  obsy_.sample("degrade.shed_rows", topo_.node(e).name, "edge", now_s,
               static_cast<double>(population));

  // Summary uplink: fixed-size, fire-and-forget semantics even on ack
  // channels — a lost summary only costs observability, never rows, so the
  // edge never burns a retry schedule on it when the wire is known dead.
  const std::size_t index = degrade_summaries_.size();
  degrade_summaries_.push_back({edge_index, level, wire_bytes,
                                static_cast<std::uint64_t>(population), false});
  ++d.summaries_sent;
  d.summary_bytes += wire_bytes;
  const bool ack = config_.channel.mode == net::ChannelMode::kAckRetry;
  if (!(ack && (!topo_.node(topo_.core()).up || !topo_.uplink(e).up()))) {
    const std::size_t link_index = topo_.uplink_index(e);
    const net::ChannelOutcome out =
        channels_[link_index].send(now_s, wire_bytes, link_rngs_[link_index]);
    if (out.accepted && out.delivered && !out.corrupted) {
      schedule_arrival(out, EventKind::kSummaryArrival, topo_.core(), index);
    }
  }

  // The window is answered: its rows leave the ledger as sampled-out, and
  // the checkpoint that covered them retires with the buffer.
  buf = Buffer{};
  edge_checkpoints_[edge_index] = Buffer{};
}

void FleetSim::handle_summary_arrival(const Event& event) {
  DegradeSummary& s = degrade_summaries_[event.message];
  if (s.delivered) return;  // duplicated frame
  if (!topo_.node(topo_.core()).up) return;  // nobody listening; summary dies
  s.delivered = true;
  ++report_.degradation.summaries_delivered;
  obsy_.note(topo_.core(), event.time_s, "rx-summary",
             static_cast<std::size_t>(s.rows_represented), static_cast<std::size_t>(s.level));
}

void FleetSim::set_load_storm(bool on, double now_s) {
  if (load_storm_ == on) return;  // overlapping storm windows
  load_storm_ = on;
  if (!on) return;
  ++report_.faults.load_storms;
  ++storm_epoch_;
  static obs::Counter& sim_chaos_load_storms = obs::registry().counter("sim.chaos.load_storms");
  sim_chaos_load_storms.add();
  // Compress every device's flush schedule: one storm-paced extra flush
  // chain per device. The chain carries the storm epoch, so flushes queued
  // by an already-ended storm die instead of reviving under a newer one.
  const double step = config_.device_flush_s / config_.chaos.load_storm_factor;
  for (std::size_t i = 0; i < config_.devices; ++i) {
    sched_.push(now_s + step, EventKind::kStormFlush, topo_.device(i),
                storm_epoch_);
  }
}

void FleetSim::handle_storm_flush(const Event& event) {
  if (!load_storm_ || event.message != storm_epoch_) return;  // storm over
  handle_device_flush(event);
  const double next =
      event.time_s + config_.device_flush_s / config_.chaos.load_storm_factor;
  if (next < config_.duration_s) {
    sched_.push(next, EventKind::kStormFlush, event.target, storm_epoch_);
  }
}

void FleetSim::degrade_settle(double now_s) {
  // Calm updates past the drain: each de-escalation rung needs a calm mark
  // plus a full dwell, so 2 updates per rung and 3 rungs = 6; run 8 for
  // margin. Controller-side only — no events, no draws, no wire bytes — so
  // L0-pinned and never-escalated runs are unaffected.
  for (int k = 1; k <= 8; ++k) {
    const double t =
        now_s + static_cast<double>(k) * config_.degrade.thresholds.dwell_s;
    for (std::size_t e = 0; e < config_.edges; ++e) {
      degrade_update(e, t, approx::DegradeSignals{});
    }
  }
}

void FleetSim::finalize_degradation() {
  auto& d = report_.degradation;
  if (d.ci_windows > 0) {
    const auto windows = static_cast<double>(d.ci_windows);
    d.coverage = static_cast<double>(d.ci_covered) / windows;
    d.mean_half_width = degrade_half_width_sum_ / windows;
    d.mean_abs_error = degrade_abs_error_sum_ / windows;
  }
  for (std::size_t e = 0; e < config_.edges; ++e) {
    const approx::DegradationController& ctrl = degrade_ctrl_[e];
    EdgeDegradeTimeline timeline;
    timeline.edge = e;
    timeline.final_level = static_cast<int>(ctrl.level());
    for (std::size_t l = 0; l < 4; ++l) {
      timeline.time_at_level_s[l] = ctrl.time_at_level()[l];
    }
    for (const approx::LevelTransition& tr : ctrl.transitions()) {
      timeline.transitions.push_back(
          {e, tr.t_s, static_cast<int>(tr.from), static_cast<int>(tr.to)});
    }
    d.edges.push_back(std::move(timeline));
  }

  // Per-edge backpressure gauges — the raw signals behind the ladder,
  // visible even in pinned runs.
  for (std::size_t e = 0; e < config_.edges; ++e) {
    BackpressureGauge g;
    g.edge = e;
    const net::Channel& up = channels_[topo_.uplink_index(topo_.edge(e))];
    g.uplink_in_flight_highwater = up.in_flight_highwater();
    g.uplink_dead_letters = up.dead_letters();
    for (std::size_t i = e; i < config_.devices; i += config_.edges) {
      const net::Channel& ch = channels_[topo_.uplink_index(topo_.device(i))];
      g.device_in_flight_highwater =
          std::max(g.device_in_flight_highwater, ch.in_flight_highwater());
      g.device_dead_letters += ch.dead_letters();
    }
    g.sf_rows_highwater = static_cast<std::size_t>(degrade_sf_highwater_[e]);
    report_.faults.edge_gauges.push_back(g);
  }
}

obs::Counter& FleetSim::link_bytes(std::size_t link) {
  obs::Counter*& slot = link_bytes_[link];
  if (slot == nullptr) {
    slot = &obs::registry().counter("net.link." + topo_.link(link).name() + ".bytes");
  }
  return *slot;
}

void FleetSim::send(net::NodeId from, Buffer&& chunk, double now_s) {
  const std::size_t link_index = topo_.uplink_index(from);
  const net::NodeId to = topo_.next_hop(from);
  const std::size_t rows = chunk.row_count;
  const bool from_device = from < config_.devices;
  const bool ack = config_.channel.mode == net::ChannelMode::kAckRetry;

  net::Message msg;
  msg.src = from;
  msg.dst = to;
  msg.sent_s = now_s;
  msg.trace.hop = from_device ? 0 : 1;
  msg.origin_s = std::move(chunk.origin_s);
  msg.payload = std::move(chunk.rows);
  bool tdf_open = false;
  std::size_t tdf_legacy_bytes = 0;
  if (telemetry_on() && from_device) {
    // The device-side codec: quantize to the wire resolution (idempotent —
    // rows resent from store-and-forward are already quantized), price the
    // counterfactual legacy model over the same rows, then encode the real
    // frame. The checksum is stamped over the quantized rows, which is what
    // the edge's decode must reproduce byte-for-byte.
    tdf::quantize(msg.payload, config_.telemetry.scale_bits);
    for (double& o : msg.origin_s) {
      o = tdf::quantize_value(o, config_.telemetry.scale_bits);
    }
    tdf_legacy_bytes = net::kMessageHeaderBytes +
                       net::wire_size_bytes(msg.payload) +
                       8 * msg.origin_s.size();
    tdf_open = tdf_session_open_[from] == 0;
    msg.tdf_frame = telemetry_encode(from, msg.payload, msg.origin_s);
  }
  msg.checksum = net::payload_checksum(msg.payload);
  const std::size_t bytes = net::wire_size_bytes(msg);

  // The send's journey record, whatever its fate. It holds the parents until
  // the message is stored — keep_rows may still hand them back to a buffer.
  obs::HopRecord frame{.src = from, .dst = to, .rows = rows, .bytes = bytes,
                       .parents = std::move(chunk.parents)};

  // Put the rows back where they can survive after a failed reliable send:
  // a device store-and-forwards (or loses the window without a buffer), an
  // edge re-appends to its batch buffer for the next flush.
  auto keep_rows = [&](bool dead_letter) {
    if (from_device) {
      if (config_.device_buffer_rows > 0) {
        Buffer back;
        back.row_count = rows;
        back.rows = std::move(msg.payload);
        back.origin_s = std::move(msg.origin_s);
        back.parents = std::move(frame.parents);
        if (telemetry_on()) {
          telemetry_store(from, std::move(back));
        } else {
          store_and_forward(from, std::move(back));
        }
      } else if (dead_letter) {
        report_.faults.rows_buffer_evicted += rows;
      } else {
        report_.rows_lost += rows;
      }
    } else {
      Buffer& buf = edge_buffers_[from - config_.devices];
      if (degrade_on()) {
        buf.strata.push_back({static_cast<std::uint32_t>(from), buf.row_count, rows});
      }
      buf.append(msg.payload, msg.origin_s, frame.parents);
    }
  };

  // A stop-and-wait sender cannot complete a handshake with a crashed
  // receiver: fail fast and keep the rows rather than burning the full
  // retry schedule into a dead node. Fire-and-forget cannot know — it
  // transmits and the frame dies at the receiver (see handle_arrival).
  if (ack && !topo_.node(to).up) {
    frame.trace = next_trace_++;
    frame.hop = msg.trace.hop;
    frame.t0_s = now_s;
    frame.outcome = "receiver_down";
    obsy_.record(frame);
    obsy_.note(from, now_s, frame.outcome, rows, bytes);
    keep_rows(false);
    return;
  }

  const bool tdf_msg = !msg.tdf_frame.empty();
  // Ack-mode channels repair corrupt frames internally (reject + retransmit
  // before the outcome surfaces); snapshot the stats so those repairs land
  // in the telemetry ledger.
  std::uint64_t tdf_pre_rejects = 0;
  std::uint64_t tdf_pre_retrans = 0;
  if (tdf_msg && ack) {
    tdf_pre_rejects = channels_[link_index].stats().corrupt_rejected;
    tdf_pre_retrans = channels_[link_index].stats().retransmits;
  }
  // Only intact arrivals are scheduled by transmit: a corrupt frame still
  // lands, and only rows are rejected at the receiver (kCorruptArrival).
  const net::ChannelOutcome out =
      transmit(frame, EventKind::kArrival, messages_.size(), now_s);
  msg.trace.id = frame.trace;
  obsy_.note(from, now_s, frame.outcome, rows, bytes);
  if (degrade_on()) {
    // Fold the post-send queue depth into the owning edge's congestion
    // hint; its controller reads (and resets) the max at its next update.
    const std::size_t ei = (from_device ? to : from) - config_.devices;
    const double frac =
        static_cast<double>(channels_[link_index].in_flight(now_s)) /
        static_cast<double>(config_.channel.queue_capacity);
    degrade_queue_hint_[ei] = std::max(degrade_queue_hint_[ei], frac);
  }
  if (tdf_msg && ack) {
    report_.telemetry.frames_rejected +=
        channels_[link_index].stats().corrupt_rejected - tdf_pre_rejects;
    report_.telemetry.frames_retransmitted +=
        channels_[link_index].stats().retransmits - tdf_pre_retrans;
  }
  ++report_.messages_sent;
  static obs::Counter& sim_net_messages = obs::registry().counter("sim.net.messages");
  sim_net_messages.add();
  static obs::Counter& sim_net_bytes = obs::registry().counter("sim.net.bytes");
  sim_net_bytes.add(bytes);
  link_bytes(link_index).add(bytes);
  if (!out.accepted) {
    // Backpressure: the bounded send queue refused the message.
    ++report_.messages_dropped;
    static obs::Counter& sim_net_dropped = obs::registry().counter("sim.net.dropped");
    sim_net_dropped.add();
    flight_dump(from, "dead-letter", now_s);
    if (degrade_on()) {
      ++degrade_dead_letters_[(from_device ? to : from) - config_.devices];
    }
    keep_rows(true);
    return;
  }
  if (tdf_msg) {
    // The channel accepted the frame: the wire is charged whatever its fate,
    // and the counterfactual ledger charges the legacy model the same rows.
    auto& t = report_.telemetry;
    ++t.frames_sent;
    t.rows_encoded += rows;
    t.encoded_wire_bytes += bytes;
    t.legacy_wire_bytes += tdf_legacy_bytes;
    if (tdf_open) {
      // Session negotiation: the schema rides inline (2-byte length prefix +
      // blob) until one frame is known delivered intact.
      ++t.schema_negotiations;
      t.schema_bytes += 2 + tdf_schema_->encoded().size();
      if (out.delivered) tdf_session_open_[from] = 1;
    }
  }
  if (!out.delivered && !out.corrupted) {
    ++report_.messages_dropped;
    static obs::Counter& sim_net_dropped = obs::registry().counter("sim.net.dropped");
    sim_net_dropped.add();
    if (ack) {
      keep_rows(false);
    } else {
      report_.rows_lost += rows;
    }
    return;
  }
  msg.id = messages_.size();
  if (out.corrupted) {
    // Fire-and-forget only: the frame lands, but the wire flipped bits, so
    // the stamped checksum no longer matches what the receiver recomputes.
    if (tdf_msg) {
      // Wire damage hits the frame bytes themselves; the FNV-1a32 trailer
      // no longer matches and the edge rejects without decoding a cell.
      msg.tdf_frame[msg.tdf_frame.size() / 2] ^= 0x10;
    }
    msg.checksum ^= 1;
    schedule_arrival(out, EventKind::kCorruptArrival, to, msg.id);
  }
  messages_.push_back(std::move(msg));
  msg_parents_.push_back(std::move(frame.parents));
}

net::ChannelOutcome FleetSim::transmit(obs::HopRecord& frame, EventKind arrival,
                                       std::size_t message, double now_s) {
  const std::size_t link = frame.src < frame.dst ? topo_.uplink_index(frame.src)
                                                 : topo_.downlink_index(frame.dst);
  const net::ChannelOutcome out =
      channels_[link].send(now_s, frame.bytes, link_rngs_[link]);
  const bool ack = channels_[link].mode() == net::ChannelMode::kAckRetry;
  frame.trace = next_trace_++;
  // Hop 0 leaves the originator (a device or the core), hop 1 an edge relay.
  frame.hop = frame.src >= config_.devices && frame.src != topo_.core() ? 1 : 0;
  frame.t0_s = now_s;
  frame.t1_s = out.delivered || out.corrupted ? out.arrival_s : 0.0;
  frame.attempts = static_cast<std::uint32_t>(out.attempts);
  frame.outcome = !out.accepted   ? "dead_letter"
                  : out.corrupted ? "corrupt"
                  : !out.delivered ? (ack ? "timeout" : "dropped")
                                   : "delivered";
  obsy_.record(frame);
  if (out.delivered) schedule_arrival(out, arrival, frame.dst, message);
  return out;
}

void FleetSim::schedule_arrival(const net::ChannelOutcome& out, EventKind kind,
                                net::NodeId node, std::size_t message) {
  sched_.push(out.arrival_s, kind, node, message);
  if (out.duplicated) {
    sched_.push(out.duplicate_arrival_s, kind, node, message, /*duplicate=*/true);
  }
}

void FleetSim::handle_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const net::Message& msg = messages_[event.message];
  if (event.duplicate) {
    ++report_.duplicates_discarded;
    static obs::Counter& sim_net_duplicates_discarded =
        obs::registry().counter("sim.net.duplicates_discarded");
    sim_net_duplicates_discarded.add();
    journey_arrive(event, obs::HopStream::kRows, msg.trace.id, msg.payload.rows(),
                   "duplicate");
    return;
  }
  if (event.kind == EventKind::kCorruptArrival) {
    // The receiver recomputes the checksum over what the wire delivered and
    // rejects the frame on mismatch: corrupt rows are counted, never scored.
    IOTML_INTERNAL_CHECK(net::payload_checksum(msg.payload) != msg.checksum,
                         "FleetSim: corrupt arrival passed checksum verification");
    if (!msg.tdf_frame.empty()) {
      // The damage lives in the frame bytes: the trailer checksum must catch
      // it before a decode is even attempted.
      IOTML_INTERNAL_CHECK(!tdf::frame_intact(msg.tdf_frame),
                           "FleetSim: corrupt TDF frame passed its trailer check");
      ++report_.telemetry.frames_rejected;
    }
    report_.faults.rows_corrupt_rejected += msg.payload.rows();
    static obs::Counter& sim_net_rows_corrupt_rejected =
        obs::registry().counter("sim.net.rows_corrupt_rejected");
    sim_net_rows_corrupt_rejected.add(msg.payload.rows());
    journey_arrive(event, obs::HopStream::kRows, msg.trace.id, msg.payload.rows(),
                   "corrupt_rejected");
    obsy_.note(node, event.time_s, "rx-corrupt", msg.payload.rows(), msg.trace.id);
    return;
  }
  // Receivers verify every frame: an intact arrival must re-hash to its
  // stamped checksum.
  IOTML_INTERNAL_CHECK(net::payload_checksum(msg.payload) == msg.checksum,
                       "FleetSim: intact arrival failed checksum verification");
  if (!topo_.node(node).up) {
    // The receiver crashed while the frame was in flight: nobody is
    // listening, and the rows die with the dead node.
    report_.faults.rows_lost_to_crash += msg.payload.rows();
    static obs::Counter& sim_faults_rows_lost_to_crash =
        obs::registry().counter("sim.faults.rows_lost_to_crash");
    sim_faults_rows_lost_to_crash.add(msg.payload.rows());
    journey_arrive(event, obs::HopStream::kRows, msg.trace.id, msg.payload.rows(),
                   "dead_receiver");
    return;
  }
  const double hop_latency_s = event.time_s - msg.sent_s;
  journey_arrive(event, obs::HopStream::kRows, msg.trace.id, msg.payload.rows(),
                 "accepted");
  if (node == topo_.core()) {
    lat_edge_core_.record(hop_latency_s);
    for (double origin : msg.origin_s) lat_end_to_end_.record(event.time_s - origin);
    obsy_.note(node, event.time_s, "rx-rows", msg.payload.rows(), msg.trace.id);
    obsy_.sample("uplink.latency_s", "core", "core", event.time_s, hop_latency_s);
    obsy_.sample("uplink.rows", "core", "core", event.time_s,
                 static_cast<double>(msg.payload.rows()));
    report_.rows_delivered += msg.payload.rows();
    core_buffer_.rows.append_rows(msg.payload);
    core_buffer_.row_count += msg.payload.rows();
  } else {
    lat_device_edge_.record(hop_latency_s);
    const std::string& entity = topo_.node(node).name;
    obsy_.note(node, event.time_s, "rx-rows", msg.payload.rows(), msg.trace.id);
    obsy_.sample("uplink.latency_s", entity, "edge", event.time_s, hop_latency_s);
    obsy_.sample("uplink.rows", entity, "edge", event.time_s,
                 static_cast<double>(msg.payload.rows()));
    Buffer& buf = edge_buffers_[node - config_.devices];
    if (degrade_on()) {
      buf.strata.push_back({static_cast<std::uint32_t>(msg.src), buf.row_count,
                            msg.payload.rows()});
    }
    if (!msg.tdf_frame.empty()) {
      // The decode is load-bearing: the edge reconstructs the rows from the
      // wire bytes and feeds *those* into its sub-pipeline. The
      // reconstruction must hash to the checksum the device stamped over
      // what it encoded — decode errors can never slip downstream.
      tdf::Frame f = tdf::decode_frame(msg.tdf_frame, tdf_registry_);
      IOTML_INTERNAL_CHECK(
          net::payload_checksum(f.rows) == msg.checksum,
          "FleetSim: TDF decode does not reproduce the device's rows");
      ++report_.telemetry.frames_delivered;
      report_.telemetry.rows_decoded += f.rows.rows();
      buf.append(f.rows, f.origin_s, msg_parents_[msg.id]);
    } else {
      buf.append(msg.payload, msg.origin_s, msg_parents_[msg.id]);
    }
  }
}

void FleetSim::handle_checkpoint(std::size_t edge_index) {
  if (!topo_.node(topo_.edge(edge_index)).up) return;  // crashed edges can't persist
  const Buffer& buf = edge_buffers_[edge_index];
  edge_checkpoints_[edge_index] = buf;
  ++report_.faults.checkpoints_written;
  static obs::Counter& sim_recovery_checkpoints_written =
      obs::registry().counter("sim.recovery.checkpoints_written");
  sim_recovery_checkpoints_written.add();
  obsy_.note(topo_.edge(edge_index), sched_.now_s(), "checkpoint", buf.row_count);
}

void FleetSim::handle_edge_crash(std::size_t edge_index) {
  net::NodeInfo& n = topo_.node(topo_.edge(edge_index));
  if (!n.up) return;  // already down (overlapping crash windows)
  n.up = false;
  ++report_.faults.edge_crashes;
  static obs::Counter& sim_faults_edge_crash = obs::registry().counter("sim.faults.edge_crash");
  sim_faults_edge_crash.add();
  // The black box survives the crash: dump the edge's recent events into
  // the fault ledger before its volatile state is wiped.
  flight_dump(topo_.edge(edge_index), "edge-crash", sched_.now_s());
  // Volatile state dies with the process: everything integrated since the
  // last checkpoint is gone. The checkpoint itself is durable storage.
  Buffer& buf = edge_buffers_[edge_index];
  const std::size_t persisted =
      std::min(edge_checkpoints_[edge_index].row_count, buf.row_count);
  report_.faults.rows_lost_to_crash += buf.row_count - persisted;
  static obs::Counter& sim_faults_rows_lost_to_crash =
      obs::registry().counter("sim.faults.rows_lost_to_crash");
  sim_faults_rows_lost_to_crash.add(buf.row_count - persisted);
  buf = Buffer{};
}

void FleetSim::handle_edge_restart(std::size_t edge_index) {
  net::NodeInfo& n = topo_.node(topo_.edge(edge_index));
  if (n.up) return;  // already restarted (overlapping crash windows)
  n.up = true;
  const Buffer& ckpt = edge_checkpoints_[edge_index];
  if (ckpt.row_count == 0) return;
  Buffer& buf = edge_buffers_[edge_index];
  IOTML_INTERNAL_CHECK(buf.row_count == 0,
                       "FleetSim: restart over a live edge buffer");
  buf = ckpt;
  ++report_.faults.checkpoints_restored;
  report_.faults.rows_recovered += ckpt.row_count;
  static obs::Counter& sim_recovery_checkpoints_restored =
      obs::registry().counter("sim.recovery.checkpoints_restored");
  sim_recovery_checkpoints_restored.add();
  static obs::Counter& sim_recovery_rows_recovered =
      obs::registry().counter("sim.recovery.rows_recovered");
  sim_recovery_rows_recovered.add(ckpt.row_count);
}

void FleetSim::set_partition(bool on) {
  if (partitioned_ == on) return;
  partitioned_ = on;
  if (on) {
    ++report_.faults.partitions;
    static obs::Counter& sim_chaos_partitions = obs::registry().counter("sim.chaos.partitions");
    sim_chaos_partitions.add();
    // The core just lost its edges: its recent traffic is the context an
    // operator wants first.
    flight_dump(topo_.core(), "partition", sched_.now_s());
  }
  // Sever (or restore) every edge<->core link, both directions. An ending
  // partition restores the links wholesale; an independent link outage
  // still active at that instant is subsumed (its up event was suppressed).
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    if (core_link_[l] != 0) topo_.link(l).set_up(!on);
  }
}

void FleetSim::set_loss_burst(bool on) {
  if (on) {
    ++report_.faults.loss_bursts;
    static obs::Counter& sim_chaos_loss_bursts = obs::registry().counter("sim.chaos.loss_bursts");
    sim_chaos_loss_bursts.add();
  }
  // The burst hits the device radio tier: every link that is not an
  // edge<->core trunk (device uplinks, and edge->device downlinks if the
  // broadcast direction exists).
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    if (core_link_[l] == 0) {
      topo_.link(l).set_drop_prob(on ? config_.chaos.burst_drop_prob
                                     : base_drop_prob_[l]);
    }
  }
}

void FleetSim::set_corruption_storm(bool on) {
  if (on) {
    ++report_.faults.corruption_storms;
    static obs::Counter& sim_chaos_corruption_storms =
        obs::registry().counter("sim.chaos.corruption_storms");
    sim_chaos_corruption_storms.add();
  }
  for (std::size_t l = 0; l < topo_.num_links(); ++l) {
    if (core_link_[l] == 0) {
      topo_.link(l).set_corrupt_prob(on ? config_.chaos.storm_corrupt_prob
                                        : base_corrupt_prob_[l]);
    }
  }
}

void FleetSim::store_and_forward(net::NodeId device, Buffer&& chunk) {
  std::deque<Buffer>& q = device_sf_[device];
  q.push_back(std::move(chunk));
  const std::size_t cap = config_.device_buffer_rows;
  std::size_t total = stored_rows(device);
  // Bounded buffer, oldest-first eviction: whole chunks while more than one
  // remains, then rows off the front of the survivor if it alone overflows.
  while (total > cap && q.size() > 1) {
    report_.faults.rows_buffer_evicted += q.front().row_count;
    static obs::Counter& sim_recovery_rows_evicted =
        obs::registry().counter("sim.recovery.rows_evicted");
    sim_recovery_rows_evicted.add(q.front().row_count);
    total -= q.front().row_count;
    q.pop_front();
  }
  if (total > cap) {
    Buffer& b = q.front();
    const std::size_t drop = total - cap;
    std::vector<std::size_t> keep(b.row_count - drop);
    std::iota(keep.begin(), keep.end(), drop);
    b.rows = b.rows.select_rows(keep);
    b.row_count -= drop;
    report_.faults.rows_buffer_evicted += drop;
    static obs::Counter& sim_recovery_rows_evicted =
        obs::registry().counter("sim.recovery.rows_evicted");
    sim_recovery_rows_evicted.add(drop);
  }
}

std::size_t FleetSim::stored_rows(net::NodeId device) const {
  std::size_t total = 0;
  for (const Buffer& b : device_sf_[device]) total += b.row_count;
  return total;
}

std::vector<std::uint8_t> FleetSim::telemetry_encode(
    net::NodeId device, const data::Dataset& ds,
    const std::vector<double>& origin_s) {
  if (!tdf_schema_) {
    tdf_schema_ = tdf::Schema::infer(ds, config_.telemetry.scale_bits);
    // The edge learns the schema from the session-open frame it decodes;
    // registering the same bytes here as well keeps decode independent of
    // arrival order under latency jitter (registration is idempotent, and
    // the ledger still charges every inline negotiation).
    tdf_registry_.add(*tdf_schema_);
    report_.telemetry.schema_id = tdf_schema_->id();
    report_.telemetry.schema_fields = tdf_schema_->size();
  }
  const bool include_schema = tdf_session_open_[device] == 0;
  return tdf::encode_frame(*tdf_schema_, ds, origin_s,
                           util::narrow_u32(device, "telemetry device id"),
                           tdf_seq_[device]++, include_schema);
}

void FleetSim::telemetry_store(net::NodeId device, Buffer&& chunk) {
  // Quantize on entry so the sizing encode sees exactly what a later send
  // re-encodes (quantization is idempotent).
  tdf::quantize(chunk.rows, config_.telemetry.scale_bits);
  for (double& o : chunk.origin_s) {
    o = tdf::quantize_value(o, config_.telemetry.scale_bits);
  }
  const std::vector<std::uint8_t> frame =
      telemetry_encode(device, chunk.rows, chunk.origin_s);
  const std::size_t rows = chunk.row_count;
  std::deque<Buffer>& q = device_sf_[device];
  tdf::DeviceLog& log = device_logs_[device];
  q.push_back(std::move(chunk));
  auto& t = report_.telemetry;
  auto drop_front = [&](std::size_t rows_evicted) {
    IOTML_INTERNAL_CHECK(
        !q.empty() && q.front().row_count == rows_evicted,
        "FleetSim: telemetry ring log out of step with store-and-forward");
    ++t.log_frames_evicted;
    t.log_rows_evicted += rows_evicted;
    report_.faults.rows_buffer_evicted += rows_evicted;
    static obs::Counter& sim_recovery_rows_evicted =
        obs::registry().counter("sim.recovery.rows_evicted");
    sim_recovery_rows_evicted.add(rows_evicted);
    q.pop_front();
  };
  // Byte bound: the ring evicts whole oldest frames until the new one fits.
  for (const tdf::DeviceLog::Entry& e : log.append(frame.size(), rows)) {
    drop_front(e.rows);
  }
  // The legacy row cap still applies, at whole-frame granularity — the log
  // pops in lockstep so bytes and rows stay two views of the same backlog.
  const std::size_t cap = config_.device_buffer_rows;
  while (stored_rows(device) > cap && q.size() > 1) {
    drop_front(log.pop_oldest().rows);
  }
}

void FleetSim::journey_arrive(const Event& event, obs::HopStream stream,
                              std::uint64_t trace, std::size_t rows,
                              const char* outcome) {
  const net::NodeId node = event.target;
  obsy_.record({.trace = trace,
                .hop = node >= config_.devices && node != topo_.core() ? 0U : 1U,
                .kind = obs::HopKind::kArrive,
                .stream = stream,
                .src = node,
                .dst = node,
                .t0_s = event.time_s,
                .t1_s = event.time_s,
                .rows = rows,
                .outcome = outcome,
                .parents = {}});
}

void FleetSim::flight_dump(net::NodeId entity, const char* trigger, double t_s) {
  if (!obsy_.enabled()) return;
  FaultLedger& faults = report_.faults;
  if (faults.flight_dumps.size() >= kMaxFlightDumps) {
    ++faults.flight_dumps_truncated;
    return;
  }
  FlightDump dump;
  dump.entity = topo_.node(entity).name;
  dump.trigger = trigger;
  dump.t_s = t_s;
  dump.events = obsy_.flight().dump_lines(entity);
  faults.flight_dumps.push_back(std::move(dump));
}

void FleetSim::finalize() {
  if (telemetry_on()) {
    for (const tdf::DeviceLog& log : device_logs_) {
      report_.telemetry.log_highwater_bytes = std::max<std::uint64_t>(
          report_.telemetry.log_highwater_bytes, log.highwater_bytes());
    }
  }
  // Deploy runs keep post-window rows on-device for local scoring; they are
  // accounted as retained, not lost.
  if (config_.deploy.enabled) {
    for (std::size_t dvc = 0; dvc < config_.devices; ++dvc) {
      report_.faults.rows_retained += device_data_[dvc].rows() - device_cursor_[dvc];
    }
  }
  if (core_buffer_.row_count == 0) return;

  data::Dataset ds = tiers_.core.run(labeled_core_rows(), core_rng_);
  for (const StageReport& r : tiers_.core.reports()) {
    report_.stage_reports.push_back(r);
  }

  const std::int64_t start_us = obs::now_us();
  const data::Dataset features = sensor_features(ds);
  std::vector<std::size_t> train_idx;
  std::vector<std::size_t> test_idx;
  for (std::size_t i = 0; i < features.rows(); ++i) {
    (i % 4 == 3 ? test_idx : train_idx).push_back(i);
  }
  StageReport analytics;
  analytics.stage_name = "analytics(decision-tree)";
  analytics.player = "core-operator";
  analytics.tier = Tier::kCore;
  analytics.rows_in = ds.rows();
  analytics.rows_out = ds.rows();
  analytics.columns_out = ds.num_columns();
  analytics.missing_rate_in = ds.missing_rate();
  analytics.missing_rate_out = ds.missing_rate();
  data::Dataset train;
  data::Dataset test;
  if (!train_idx.empty() && !test_idx.empty()) {
    train = features.select_rows(train_idx);
    test = features.select_rows(test_idx);
    learners::DecisionTree tree;
    tree.fit(train);
    report_.accuracy = tree.accuracy(test);
    report_.train_rows = train.rows();
    report_.test_rows = test.rows();
    analytics.cost = static_cast<double>(tree.node_count());
  }
  // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
  analytics.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);
  report_.stage_reports.push_back(std::move(analytics));
  // The deploy phase compiles its artifacts from the analytics model's split.
  if (deploy_) deploy_->prepare(train, test);
}

int FleetSim::truth_label(double time_s) const {
  // The analytics concept of the Fig. 1 example: "comfortable" iff the true
  // temperature at that instant lies in [20, 28].
  const double temp = truths_[0](time_s);
  return temp >= 20.0 && temp <= 28.0 ? 1 : 0;
}

data::Dataset FleetSim::labeled_core_rows() const {
  std::vector<std::size_t> order(core_buffer_.row_count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const data::Column& ts = core_buffer_.rows.column(0);
  std::stable_sort(order.begin(), order.end(), [&ts](std::size_t a, std::size_t b) {
    return ts.numeric(a) < ts.numeric(b);
  });
  data::Dataset ds = core_buffer_.rows.select_rows(order);
  std::vector<int> labels;
  labels.reserve(ds.rows());
  for (std::size_t r = 0; r < ds.rows(); ++r) {
    labels.push_back(truth_label(ds.column(0).numeric(r)));
  }
  ds.set_labels(std::move(labels));
  return ds;
}

data::Dataset FleetSim::labeled_device_rows(std::size_t device, std::size_t begin,
                                            std::size_t end) const {
  const data::Dataset& all = device_data_[device];
  std::vector<std::size_t> idx(end - begin);
  std::iota(idx.begin(), idx.end(), begin);
  data::Dataset rows = all.select_rows(idx);
  std::vector<int> labels;
  labels.reserve(idx.size());
  for (const std::size_t r : idx) labels.push_back(truth_label(all.column(0).numeric(r)));
  rows.set_labels(std::move(labels));
  return rows;
}

FleetSurface::FleetSurface(FleetSim& fleet) noexcept
    : sched(fleet.sched_), topo(fleet.topo_), obsy(fleet.obsy_), fleet_(fleet) {}

net::ChannelOutcome FleetSurface::send_hop(obs::HopRecord& frame, EventKind arrival,
                                           std::size_t message, double now_s) {
  return fleet_.transmit(frame, arrival, message, now_s);
}

void FleetSurface::journey_arrive(const Event& event, obs::HopStream stream,
                                  std::uint64_t trace, std::size_t rows,
                                  const char* outcome) {
  fleet_.journey_arrive(event, stream, trace, rows, outcome);
}

std::uint64_t FleetSurface::next_trace() noexcept { return fleet_.next_trace_++; }

data::Dataset FleetSurface::training_set() const {
  if (fleet_.core_buffer_.row_count == 0) return {};
  return sensor_features(fleet_.labeled_core_rows());
}

data::Dataset FleetSurface::recent_rows(std::size_t device, double before_s,
                                        std::size_t count) const {
  const data::Dataset& all = fleet_.device_data_[device];
  std::size_t upto = 0;
  while (upto < all.rows() && all.column(0).numeric(upto) < before_s) ++upto;
  return fleet_.labeled_device_rows(device, upto - std::min(count, upto), upto);
}

data::Dataset FleetSurface::scoring_window(std::size_t device) const {
  return fleet_.labeled_device_rows(device, fleet_.device_cursor_[device],
                                    fleet_.device_data_[device].rows());
}

}  // namespace iotml::sim
