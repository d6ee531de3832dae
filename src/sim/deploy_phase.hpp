#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "data/dataset.hpp"
#include "deploy/runtime.hpp"
#include "sim/fleet.hpp"

namespace iotml::sim {

/// The deploy phase (DESIGN.md §14), FleetSim's second subsystem module and
/// the last step of the paper's Fig. 1: after the learning window the core
/// compiles its model, broadcasts the artifact down the tree, devices score
/// their scoring window locally and uplink only predictions. It owns its
/// artifacts, its three event kinds and its ledger, and reaches the rest of
/// the fleet only through a FleetSurface. It draws no randomness.
class DeployPhase {
 public:
  /// Throws InvalidArgument on a nonsensical deploy config.
  static void validate(const DeployConfig& config);

  DeployPhase(const FleetConfig& config, FleetSurface fleet);

  /// Compiles the fresh artifact from the core's train/test split and, with
  /// stale_fallback, the prior epoch's from the first half of `train`.
  void prepare(const data::Dataset& train, const data::Dataset& test);

  /// Pushes the broadcast at `t_s` if a fresh artifact was compiled; returns
  /// whether it did.
  bool schedule_broadcast(double t_s);

  /// Runs one deploy event (kDeployBroadcast, kArtifactArrival or
  /// kPredictionArrival).
  void handle(const Event& event);

  /// Degraded mode: every online device the fresh broadcast never reached
  /// scores with the stale artifact at `t_s`. No-op without one.
  void serve_stale(double t_s);

  /// Closes the ledger (devices missed, device accuracy) and returns it.
  /// Call once, after the last deploy event.
  const DeploySummary& finalize();

 private:
  /// One on-device prediction batch in flight (device -> edge -> core).
  /// Ground truth is resolved at scoring time — the simulator knows it —
  /// so the wire carries one bit per prediction, never labels.
  struct PredBatch {
    std::size_t rows = 0;
    std::size_t correct = 0;
    std::size_t wire_bytes = 0;
    std::uint64_t trace = 0;  ///< journey root (stream kPredictions)
  };

  void handle_broadcast(const Event& event);
  void handle_artifact_arrival(const Event& event);
  void handle_prediction_arrival(const Event& event);
  void send_artifact(net::NodeId to, double now_s);
  void score_on_device(net::NodeId device, double now_s, bool stale);
  void send_predictions(net::NodeId from, std::size_t batch, double now_s);

  const FleetConfig& config_;
  FleetSurface fleet_;

  std::optional<deploy::DeviceRuntime> fresh_;  ///< the broadcast artifact
  std::optional<deploy::DeviceRuntime> stale_;  ///< prior epoch's (fallback)
  std::size_t artifact_wire_bytes_ = 0;
  std::uint64_t broadcast_trace_ = 0;  ///< journey root (stream kArtifact)
  std::vector<PredBatch> pred_batches_;
  std::vector<std::uint8_t> device_scored_;  ///< device index -> fresh artifact scored

  DeploySummary summary_;
};

}  // namespace iotml::sim
