#include "sim/deploy_phase.hpp"

#include <numeric>
#include <utility>

#include "deploy/compile.hpp"
#include "deploy/quantize.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::sim {

void DeployPhase::validate(const DeployConfig& config) {
  IOTML_CHECK(config.score_window_s > 0.0, "FleetSim: deploy score window must be positive");
}

DeployPhase::DeployPhase(const FleetConfig& config, FleetSurface fleet)
    : config_(config), fleet_(fleet), device_scored_(config.devices, 0) {
  summary_.enabled = true;
  summary_.model = deploy::model_kind_name(config_.deploy.model);
  summary_.precision = deploy::precision_name(config_.deploy.precision);
}

void DeployPhase::prepare(const data::Dataset& train, const data::Dataset& test) {
  obs::Span span("sim.deploy_prepare", "deploy");
  DeploySummary& d = summary_;
  // Nothing reached the core, or the window saw a single class: no model
  // worth shipping. The summary stays enabled with every device missed.
  if (train.rows() == 0 || test.rows() == 0) return;

  deploy::CompiledModel model = deploy::fit_and_compile(config_.deploy.model, train);
  d.artifact_bytes_float32 = model.size_bytes();
  d.holdout_accuracy_float = deploy::holdout_accuracy(model, test);
  d.holdout_accuracy_deployed = d.holdout_accuracy_float;
  if (config_.deploy.precision != deploy::Precision::kFloat32) {
    model = deploy::quantize(model, config_.deploy.precision);
    d.holdout_accuracy_deployed = deploy::holdout_accuracy(model, test);
  }
  d.artifact_bytes_deployed = model.size_bytes();
  const deploy::InferenceCost cost = model.cost_per_row();
  d.cost_multiply_adds = cost.multiply_adds;
  d.cost_comparisons = cost.comparisons;
  d.cost_table_lookups = cost.table_lookups;
  // The broadcast ships the real encoded bytes, framed like any message.
  artifact_wire_bytes_ = net::kMessageHeaderBytes + d.artifact_bytes_deployed;
  fresh_.emplace(std::move(model));

  if (config_.deploy.stale_fallback) {
    // The prior epoch's artifact: what the previous deployment round would
    // have compiled, here approximated as the model learned from the first
    // half of the training window. Devices the fresh broadcast never
    // reaches keep scoring with this instead of going dark.
    const std::size_t half = train.rows() / 2;
    if (half >= 2) {
      std::vector<std::size_t> idx(half);
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      stale_.emplace(deploy::compile_artifact(config_.deploy.model, config_.deploy.precision,
                                              train.select_rows(idx)));
    }
  }
}

bool DeployPhase::schedule_broadcast(double t_s) {
  if (!fresh_) return false;
  fleet_.sched.push(t_s, EventKind::kDeployBroadcast, fleet_.topo.core());
  return true;
}

void DeployPhase::handle(const Event& event) {
  switch (event.kind) {
    case EventKind::kDeployBroadcast: return handle_broadcast(event);
    case EventKind::kArtifactArrival: return handle_artifact_arrival(event);
    case EventKind::kPredictionArrival: return handle_prediction_arrival(event);
    default: IOTML_INTERNAL_CHECK(false, "DeployPhase: not a deploy event");
  }
}

void DeployPhase::serve_stale(double t_s) {
  if (!stale_) return;
  for (std::size_t i = 0; i < config_.devices; ++i) {
    const net::NodeId dev = fleet_.topo.device(i);
    if (device_scored_[i] == 0 && fleet_.topo.node(dev).up) {
      score_on_device(dev, t_s, /*stale=*/true);
    }
  }
}

const DeploySummary& DeployPhase::finalize() {
  DeploySummary& d = summary_;
  d.devices_missed = config_.devices - d.devices_deployed - d.devices_stale;
  d.device_accuracy =
      d.predictions_delivered == 0
          ? 0.0
          : static_cast<double>(d.predictions_correct) /
                static_cast<double>(d.predictions_delivered);
  return summary_;
}

void DeployPhase::handle_broadcast(const Event& event) {
  const net::NodeId core = fleet_.topo.core();
  if (!fleet_.topo.node(core).up) {
    // The core is down at broadcast time: no fresh artifact leaves it, and
    // the whole fleet serves the prior epoch's model (stale fallback).
    static obs::Counter& deploy_broadcasts_skipped =
        obs::registry().counter("deploy.broadcasts_skipped");
    deploy_broadcasts_skipped.add();
    return;
  }
  static obs::Counter& deploy_broadcasts = obs::registry().counter("deploy.broadcasts");
  deploy_broadcasts.add();
  // The broadcast's root trace id: every downlink frame of this epoch lists
  // it as parent, so fleetscope can reconstruct the artifact's journey.
  broadcast_trace_ = fleet_.next_trace();
  fleet_.obsy.origin(broadcast_trace_, obs::HopStream::kArtifact, core, event.time_s, 0,
                     artifact_wire_bytes_);
  fleet_.obsy.note(core, event.time_s, "broadcast", config_.edges, artifact_wire_bytes_);
  for (std::size_t j = 0; j < config_.edges; ++j) {
    send_artifact(fleet_.topo.edge(j), event.time_s);
  }
}

void DeployPhase::send_artifact(net::NodeId to, double now_s) {
  // The sender's radio spends the bytes whether or not the wire delivers.
  summary_.downlink_bytes += artifact_wire_bytes_;
  static obs::Counter& deploy_artifact_sends = obs::registry().counter("deploy.artifact_sends");
  deploy_artifact_sends.add();
  static obs::Counter& deploy_downlink_bytes = obs::registry().counter("deploy.downlink_bytes");
  deploy_downlink_bytes.add(artifact_wire_bytes_);
  obs::HopRecord frame{.stream = obs::HopStream::kArtifact, .src = fleet_.topo.next_hop(to),
                       .dst = to, .bytes = artifact_wire_bytes_,
                       .parents = {broadcast_trace_}};
  if (fleet_.send_hop(frame, EventKind::kArtifactArrival, kNoMessage, now_s).corrupted) {
    // The artifact frame fails its checksum at the receiver, which keeps
    // its prior model rather than binding corrupt parameters.
    static obs::Counter& deploy_artifact_corrupt_rejected =
        obs::registry().counter("deploy.artifact_corrupt_rejected");
    deploy_artifact_corrupt_rejected.add();
  }
}

void DeployPhase::handle_artifact_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const bool up = fleet_.topo.node(node).up;
  if (event.duplicate) {
    static obs::Counter& deploy_duplicates_discarded =
        obs::registry().counter("deploy.duplicates_discarded");
    deploy_duplicates_discarded.add();
    fleet_.journey_arrive(event, obs::HopStream::kArtifact, broadcast_trace_, 0, "duplicate");
    return;
  }
  if (up) fleet_.obsy.note(node, event.time_s, "rx-artifact", artifact_wire_bytes_);
  fleet_.journey_arrive(event, obs::HopStream::kArtifact, broadcast_trace_, 0,
                        up ? "accepted" : "dead_receiver");
  if (!up) return;  // a down edge strands the broadcast; churn: device offline
  if (node >= config_.devices) {
    // An edge: relay the artifact to every attached device.
    const std::size_t j = node - config_.devices;
    for (std::size_t i = 0; i < config_.devices; ++i) {
      if (i % config_.edges == j) send_artifact(fleet_.topo.device(i), event.time_s);
    }
    return;
  }
  score_on_device(node, event.time_s, /*stale=*/false);
}

void DeployPhase::score_on_device(net::NodeId device, double now_s, bool stale) {
  DeploySummary& d = summary_;
  std::optional<deploy::DeviceRuntime>& slot = stale ? stale_ : fresh_;
  IOTML_CHECK(slot.has_value(),
              "DeployPhase::score_on_device: runtime not compiled before scoring");
  deploy::DeviceRuntime& runtime = *slot;
  if (stale) {
    ++d.devices_stale;
    static obs::Counter& sim_recovery_stale_model_serves =
        obs::registry().counter("sim.recovery.stale_model_serves");
    sim_recovery_stale_model_serves.add();
  } else {
    ++d.devices_deployed;
    device_scored_[device] = 1;
    static obs::Counter& deploy_devices_deployed =
        obs::registry().counter("deploy.devices_deployed");
    deploy_devices_deployed.add();
  }

  data::Dataset rows = fleet_.scoring_window(device);
  const std::size_t count = rows.rows();
  if (count == 0) return;

  runtime.bind(rows);
  PredBatch batch;
  batch.rows = count;
  for (std::size_t r = 0; r < count; ++r) {
    if (runtime.predict_row(rows, r) == rows.label(r)) ++batch.correct;
  }
  if (stale) {
    d.rows_scored_stale += count;
    static obs::Counter& sim_recovery_rows_scored_stale =
        obs::registry().counter("sim.recovery.rows_scored_stale");
    sim_recovery_rows_scored_stale.add(count);
  } else {
    d.rows_scored += count;
    static obs::Counter& deploy_rows_scored = obs::registry().counter("deploy.rows_scored");
    deploy_rows_scored.add(count);
  }

  // Counterfactual: what uplinking these raw rows (the pre-deployment
  // regime) would have cost. Raw rows carry no labels. The payload crosses
  // both hops; edge batching would amortize the second header, which this
  // deliberately ignores — the payload bytes dominate.
  rows.set_labels({});
  net::Message raw;
  raw.payload = std::move(rows);
  raw.origin_s = {now_s};
  d.uplink_raw_bytes += 2 * net::wire_size_bytes(raw);

  // One bit per prediction on the wire, plus a u32 row count. Ground truth
  // never travels: the core evaluates against labels it already knows.
  batch.wire_bytes = net::kMessageHeaderBytes + 4 + (count + 7) / 8;
  batch.trace = fleet_.next_trace();
  pred_batches_.push_back(batch);
  fleet_.obsy.origin(batch.trace, obs::HopStream::kPredictions, device, now_s, count,
                     batch.wire_bytes);
  fleet_.obsy.note(device, now_s, stale ? "score-stale" : "score", count);
  send_predictions(device, pred_batches_.size() - 1, now_s);
}

void DeployPhase::send_predictions(net::NodeId from, std::size_t batch, double now_s) {
  const PredBatch& b = pred_batches_[batch];
  summary_.uplink_prediction_bytes += b.wire_bytes;
  static obs::Counter& deploy_prediction_bytes = obs::registry().counter("deploy.prediction_bytes");
  deploy_prediction_bytes.add(b.wire_bytes);
  obs::HopRecord frame{.stream = obs::HopStream::kPredictions, .src = from,
                       .dst = fleet_.topo.next_hop(from), .rows = b.rows,
                       .bytes = b.wire_bytes, .parents = {b.trace}};
  if (fleet_.send_hop(frame, EventKind::kPredictionArrival, batch, now_s).corrupted) {
    // A corrupt prediction batch is rejected at the receiver; predictions
    // are best-effort telemetry and are not retried in fire-and-forget mode.
    static obs::Counter& deploy_prediction_corrupt_rejected =
        obs::registry().counter("deploy.prediction_corrupt_rejected");
    deploy_prediction_corrupt_rejected.add();
  }
}

void DeployPhase::handle_prediction_arrival(const Event& event) {
  const net::NodeId node = event.target;
  const PredBatch& batch = pred_batches_[event.message];
  if (event.duplicate) {
    static obs::Counter& deploy_duplicates_discarded =
        obs::registry().counter("deploy.duplicates_discarded");
    deploy_duplicates_discarded.add();
    fleet_.journey_arrive(event, obs::HopStream::kPredictions, batch.trace, batch.rows,
                          "duplicate");
    return;
  }
  if (node == fleet_.topo.core()) {
    summary_.predictions_delivered += batch.rows;
    summary_.predictions_correct += batch.correct;
    static obs::Counter& deploy_predictions_delivered =
        obs::registry().counter("deploy.predictions_delivered");
    deploy_predictions_delivered.add(batch.rows);
    fleet_.journey_arrive(event, obs::HopStream::kPredictions, batch.trace, batch.rows,
                          "accepted");
    fleet_.obsy.note(node, event.time_s, "rx-predictions", batch.rows);
    return;
  }
  const bool up = fleet_.topo.node(node).up;
  fleet_.journey_arrive(event, obs::HopStream::kPredictions, batch.trace, batch.rows,
                        up ? "accepted" : "dead_receiver");
  if (!up) return;  // stranded at a down edge
  send_predictions(node, event.message, event.time_s);
}

}  // namespace iotml::sim
