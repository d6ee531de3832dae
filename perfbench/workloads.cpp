#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

using iotml::sim::FleetConfig;

namespace {

// Sensor noise for the workloads whose time is mostly core tree fits. At the
// default (0.4) the tree fits sensor noise, so its shape, and with it the
// fit's cost, changes by about 13% between seeds; at 0.1 by about 4%.
constexpr double kFitSensorNoise = 0.1;

// The default Fig. 1 pipeline at L0 over fire-and-forget links: the core
// decision-tree fit does nearly all of the work.
FleetConfig fleet_fit(std::uint64_t seed) {
  FleetConfig c;
  c.seed = seed;
  c.devices = 10;
  c.edges = 1;
  c.duration_s = 30.0;
  c.sensor_period_s = 0.5;
  c.sensor_noise = kFitSensorNoise;
  c.device_flush_s = 5.0;
  return c;
}

// The device->edge half at full load with sketch-only edges (ladder pinned
// at L2): TDF telemetry over ack/retry links, store-and-forward and
// checkpoints under compound chaos. No row reaches the core, so no fit runs.
FleetConfig fleet_edge(std::uint64_t seed) {
  FleetConfig c;
  c.seed = seed;
  c.devices = 25;
  c.edges = 1;
  c.duration_s = 60.0;
  c.sensor_period_s = 1.0;
  c.device_flush_s = 1.0;
  c.telemetry.enabled = true;
  c.channel.mode = iotml::net::ChannelMode::kAckRetry;
  c.channel.ack_timeout_s = 0.1;
  c.channel.backoff_base_s = 0.05;
  c.channel.backoff_cap_s = 1.0;
  c.channel.max_attempts = 6;
  c.device_buffer_rows = 4096;
  c.checkpoint_interval_s = 2.0;
  c.faults.device_churns = 1.0;
  c.faults.device_offtime_mean_s = 2.0;
  c.faults.edge_crashes = 1.0;
  c.faults.edge_downtime_mean_s = 3.0;
  c.chaos.partitions = 1.0;
  c.chaos.partition_mean_s = 4.0;
  c.chaos.loss_bursts = 1.0;
  c.chaos.burst_drop_prob = 0.4;
  c.chaos.corruption_storms = 1.0;
  c.chaos.storm_corrupt_prob = 0.1;
  c.degrade.enabled = true;
  c.degrade.pin_level = 2;
  return c;
}

// Deploy plus the OTA delta-update loop over ack/retry links: many smaller
// core fits, compile, quantize and diff, with chunk traffic flowing down the
// tree and rows scored on the devices.
FleetConfig fleet_ota(std::uint64_t seed) {
  FleetConfig c;
  c.seed = seed;
  c.devices = 25;
  c.edges = 1;
  c.duration_s = 24.0;
  c.sensor_period_s = 2.0;
  c.sensor_noise = kFitSensorNoise;
  c.device_flush_s = 2.0;
  c.edge_flush_s = 3.0;
  c.channel.mode = iotml::net::ChannelMode::kAckRetry;
  c.deploy.enabled = true;
  c.deploy.score_window_s = 60.0;
  c.deploy.model = iotml::deploy::ModelKind::kTree;
  c.deploy.precision = iotml::deploy::Precision::kInt8;
  c.ota.enabled = true;
  c.ota.epochs = 4;
  return c;
}

}  // namespace

std::vector<FleetConfig> make_workload(const std::string& name, std::uint64_t seed) {
  FleetConfig (*make)(std::uint64_t) = nullptr;
  if (name == "fleet_fit") make = fleet_fit;
  if (name == "fleet_edge") make = fleet_edge;
  if (name == "fleet_ota") make = fleet_ota;
  if (make == nullptr) throw std::invalid_argument("unknown workload: " + name);
  std::vector<FleetConfig> fleets;
  for (std::size_t k = 0; k < kFleetsPerRun; ++k) fleets.push_back(make(seed * kFleetsPerRun + k));
  return fleets;
}

}  // namespace perfbench
