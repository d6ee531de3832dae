#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "approx/degradation.hpp"
#include "approx/sample.hpp"
#include "data/dataset.hpp"
#include "deploy/compiled_model.hpp"
#include "net/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "net/faults.hpp"
#include "net/message.hpp"
#include "net/topology.hpp"
#include "ota/rollout.hpp"
#include "pipeline/sensors.hpp"
#include "sim/chaos.hpp"
#include "sim/placement.hpp"
#include "sim/report.hpp"
#include "sim/scheduler.hpp"
#include "tdf/codec.hpp"
#include "tdf/device_log.hpp"
#include "tdf/schema.hpp"
#include "util/rng.hpp"

namespace iotml::sim {

/// The optional deploy phase: after the learning window closes, the core
/// compiles its analytics model into a deploy::CompiledModel, quantizes it
/// to `precision`, and broadcasts the artifact down the tree over the
/// (lossy) downlinks. Devices that receive it score `score_window_s` of
/// subsequently sensed rows locally and uplink only predictions — the
/// paper's move from "ship every row to the core" to "ship the model to
/// the data".
struct DeployConfig {
  bool enabled = false;
  double score_window_s = 30.0;  ///< sensed seconds scored on-device
  deploy::ModelKind model = deploy::ModelKind::kTree;
  deploy::Precision precision = deploy::Precision::kInt8;

  /// Degraded mode: devices the fresh broadcast never reaches (crash during
  /// broadcast, corrupt or timed-out artifact frames) keep scoring with the
  /// prior epoch's artifact instead of going dark. The stale artifact is
  /// compiled from the first half of the training window — the model the
  /// previous deployment round would have shipped. Staleness is ledgered
  /// (DeploySummary::devices_stale, FaultLedger::stale_model_devices).
  bool stale_fallback = false;

  net::LinkParams edge_device_link{
      .latency_s = 0.02, .jitter_s = 0.005, .bandwidth_bytes_per_s = 125000.0,
      .drop_prob = 0.02, .duplicate_prob = 0.005, .max_retries = 1,
      .retry_backoff_s = 0.05};
  net::LinkParams core_edge_link{
      .latency_s = 0.005, .jitter_s = 0.001, .bandwidth_bytes_per_s = 1.25e6,
      .drop_prob = 0.002, .duplicate_prob = 0.0, .max_retries = 2,
      .retry_backoff_s = 0.02};
};

/// The fleet observatory (DESIGN.md §13): virtual-clock time-series, causal
/// journey tracing and per-entity flight recorders. Off by default. When on
/// it is purely observational — it draws no randomness, schedules nothing
/// and changes no wire byte, so a run emits byte-identical event logs and
/// rows/latency numbers with the observatory on or off.
struct ObservatoryConfig {
  bool enabled = false;
  std::size_t series_capacity = 512;       ///< samples kept per (metric, entity, tier)
  std::size_t flight_ring = 32;            ///< events kept per entity
  std::size_t journey_capacity = 1 << 20;  ///< hop records kept per run

  /// When non-empty, run() writes timeseries.json, journeys.jsonl,
  /// flightrec.json and events.log under this directory (created if
  /// missing) — the artifacts tools/fleetscope reads.
  std::string artifact_dir;
};

/// The telemetry wire subsystem (DESIGN.md §15): devices encode each uplink
/// window as a tagged TDF frame (src/tdf/) instead of the abstract
/// wire_size_bytes payload model. Readings are quantized to multiples of
/// 2^-scale_bits on-device, the frame crosses the (lossy) link as real
/// bytes, and the edge decodes it back to rows before its sub-pipeline —
/// the decode is load-bearing, checked byte-for-byte against the device's
/// encoding. Off by default: when off no frame is built, no codec byte is
/// charged and legacy runs stay byte-identical.
struct TelemetryConfig {
  bool enabled = false;

  /// Fixed-point resolution: readings are rounded to multiples of
  /// 2^-scale_bits before encoding. The default (1/256 ≈ 0.004) sits far
  /// below the configured sensor noise (0.4), so quantization is lossless
  /// relative to measurement error while the scaled-varint delta streams
  /// engage. Must be ≤ 52 (checked by FleetSim).
  std::uint8_t scale_bits = 8;

  /// Capacity of the on-device ring log that holds encoded frames while the
  /// device is offline (meshes with store-and-forward; active only when
  /// device_buffer_rows > 0). Overflow evicts whole frames oldest-first.
  std::size_t device_log_bytes = 16384;
};

/// The graceful-degradation contract (DESIGN.md §16): each edge watches its
/// own backpressure — uplink/device channel in-flight depth, dead-letter
/// growth, store-and-forward occupancy, checkpoint lag — and moves along a
/// 4-level ladder with hysteresis:
///
///   L0 exact    — today's pipeline, every row shipped (the default)
///   L1 sampled  — seeded per-device stratified sample of the flush window
///                 rides the normal pipeline; the rest is shed, the answer
///                 carries a 95% confidence interval
///   L2 sketch   — the window collapses to mergeable sketches (count-min +
///                 bottom-k quantile); only a fixed-size summary uplinks
///   L3 summary  — row counts only; every row is shed at the edge
///
/// Off by default. When off, no ladder exists, no degrade stream is drawn
/// from, and runs are byte-identical to pre-ladder builds. When on with
/// pin_level = 0 the ladder never leaves L0: the event log stays
/// byte-identical, and the report gains the degradation block (goldens).
struct DegradeConfig {
  bool enabled = false;

  /// Pin the ladder to one level (0..3) for benchmarking; -1 lets the
  /// controller move freely.
  int pin_level = -1;

  /// Hysteresis bands and de-escalation dwell (see approx::DegradeThresholds).
  approx::DegradeThresholds thresholds;

  /// L1 per-stratum sampling rate in (0, 1].
  double sample_rate = 0.25;

  /// L2 sketch shapes.
  std::size_t sketch_capacity = 256;  ///< bottom-k quantile sample size
  std::size_t countmin_width = 64;
  std::size_t countmin_depth = 4;

  /// Signal normalization: dead letters per second that count as pressure
  /// 1.0, and un-checkpointed buffered rows that count as lag 1.0.
  double dead_letter_rate_ref = 1.0;
  std::size_t checkpoint_lag_rows = 4096;

  /// Virtual cost model of the L2 sketch reduce (edge tier), mirroring the
  /// integration stage's base + per-row shape. The degradation bench gates
  /// on the realized ratio against the exact pipeline.
  double sketch_cost_base = 0.02;
  double sketch_cost_per_row = 0.0005;
};

/// Everything a fleet run depends on. A (config, pipeline) pair fully
/// determines the run — same seed, byte-identical event log and report.
struct FleetConfig {
  std::size_t devices = 100;
  std::size_t edges = 4;
  double duration_s = 60.0;
  double device_flush_s = 5.0;  ///< device report interval
  double edge_flush_s = 10.0;   ///< edge batch-and-forward interval
  std::uint64_t seed = 42;

  net::LinkParams device_edge_link{
      .latency_s = 0.02, .jitter_s = 0.005, .bandwidth_bytes_per_s = 125000.0,
      .drop_prob = 0.02, .duplicate_prob = 0.005, .max_retries = 1,
      .retry_backoff_s = 0.05};
  net::LinkParams edge_core_link{
      .latency_s = 0.005, .jitter_s = 0.001, .bandwidth_bytes_per_s = 1.25e6,
      .drop_prob = 0.002, .duplicate_prob = 0.0, .max_retries = 2,
      .retry_backoff_s = 0.02};
  net::FaultParams faults;

  /// Transport policy applied to every link. The default (fire-and-forget)
  /// reproduces the legacy runtime byte-for-byte; kAckRetry turns each link
  /// into a stop-and-wait reliable channel (see net::Channel).
  net::ChannelParams channel;

  /// Compound failure scenarios layered on the fault plan (all off by default).
  ChaosParams chaos;

  /// Edge checkpointing period; 0 disables. A crashed edge restarts with the
  /// buffer its last checkpoint persisted; rows integrated since are lost to
  /// the crash (FaultLedger::rows_lost_to_crash).
  double checkpoint_interval_s = 0.0;

  /// Device store-and-forward capacity in rows; 0 disables. A device that is
  /// offline at flush time — or whose ack-mode send fails — buffers the
  /// window locally and drains it on reconnect instead of dropping it
  /// (legacy rows_skipped). Overflow evicts oldest-first into
  /// FaultLedger::rows_buffer_evicted.
  std::size_t device_buffer_rows = 0;

  double sensor_period_s = 0.5;  ///< nominal sampling period per sensor
  double sensor_dropout = 0.05;  ///< per-sample loss at the sensor itself
  double sensor_noise = 0.4;     ///< base measurement noise (scaled per quantity)
  std::size_t feature_keep = 3;  ///< core-side MI feature selection budget

  DeployConfig deploy;
  ObservatoryConfig observatory;
  TelemetryConfig telemetry;

  /// The OTA delta-update loop (DESIGN.md §14): epochal retrains during the
  /// learning window, chunked binary patches down the tree, seeded canary
  /// cohorts and automatic rollback. Uses DeployConfig's model/precision and
  /// downlink params. Off by default; when off, no OTA event is ever
  /// scheduled and no OTA stream is drawn from, so legacy event logs stay
  /// byte-identical.
  ota::OtaConfig ota;

  DegradeConfig degrade;  ///< the degradation ladder (DESIGN.md §16), off by default
};

/// The default Fig. 1 pipeline, tagged for placement: device-side outlier
/// cleaning, edge-side imputation + normalization, core-side MI feature
/// selection. The simulator synthesizes acquisition, integration and
/// analytics reports around it, completing the paper's
/// acquisition -> integration -> preparation -> reduction -> analytics chain.
pipeline::Pipeline default_fleet_pipeline(const FleetConfig& config);

/// The deploy-mode variant of the default pipeline: identical placement but
/// without the edge z-score stage. Per-batch normalization cannot be
/// replayed on a device scoring rows one at a time, so deploy runs train in
/// raw sensor units and fold any standardization into the compiled artifact
/// instead (see deploy::compile).
pipeline::Pipeline default_deploy_pipeline(const FleetConfig& config);

/// A batch of rows in transit or at rest on one node: a device's
/// store-and-forward chunk, an edge's flush window, the core's received rows.
struct RowBuffer {
  data::Dataset rows;
  std::vector<double> origin_s;
  std::size_t row_count = 0;
  /// Origin-window trace ids folded into `rows`, in fold order — the
  /// causal provenance the journey log needs to survive edge batching,
  /// store-and-forward and checkpoint restore.
  std::vector<std::uint64_t> parents;
  /// Contiguous per-sender row runs, one per append — the strata L1
  /// sampling draws from, so every device keeps representation in the
  /// sampled window.
  std::vector<approx::Stratum> strata;

  /// Fold `more` from `sender`, with its origin times and parent ids, onto
  /// the end as one stratum. The sources die here: into an empty buffer the
  /// rows, origins and parents are taken without copying.
  void append(net::NodeId sender, data::Dataset&& more, std::vector<double>&& more_origin_s,
              std::vector<std::uint64_t>&& more_parents) {
    strata.push_back({static_cast<std::uint32_t>(sender), row_count, more.rows()});
    row_count += more.rows();
    rows.append_rows(std::move(more));
    append_vector(origin_s, std::move(more_origin_s));
    append_vector(parents, std::move(more_parents));
  }

 private:
  template <typename T>
  static void append_vector(std::vector<T>& dst, std::vector<T>&& src) {
    if (dst.empty()) {
      dst = std::move(src);
    } else {
      dst.insert(dst.end(), src.begin(), src.end());
    }
  }
};
static_assert(std::is_nothrow_move_constructible_v<RowBuffer>,
              "row buffers move through store-and-forward and the edge flush");

class FleetSim;

/// What a subsystem module (DESIGN.md §14) may reach of the fleet that hosts
/// it: the traced send path, the arrival journal, the scheduler, the
/// topology (read-only), the observatory, the trace-id counter and three data
/// reads. Everything else stays FleetSim's. Only FleetSim can make one.
class FleetSurface {
 public:
  Scheduler& sched;
  const net::Topology& topo;
  obs::Observatory& obsy;

  /// FleetSim::transmit: send one traced frame over its hop's channel.
  net::ChannelOutcome send_hop(obs::HopRecord& frame, EventKind arrival,
                               std::size_t message, double now_s);
  /// FleetSim::journey_arrive: journal what the receiver did with an arrival.
  void journey_arrive(const Event& event, obs::HopStream stream, std::uint64_t trace,
                      std::size_t rows, const char* outcome);
  /// A fresh trace id from the fleet's one counter.
  std::uint64_t next_trace() noexcept;
  /// Everything the core has received so far, time-ordered, labeled with the
  /// analytics concept, without the timestamp column. Empty before any row.
  data::Dataset training_set() const;
  /// The last `count` rows `device` sensed before `before_s`, labeled.
  data::Dataset recent_rows(std::size_t device, double before_s, std::size_t count) const;
  /// The rows `device` sensed but never flushed upstream (its deploy scoring
  /// window), labeled.
  data::Dataset scoring_window(std::size_t device) const;

 private:
  friend class FleetSim;
  explicit FleetSurface(FleetSim& fleet) noexcept;
  FleetSim& fleet_;
};

class DegradeLadder;
class DeployPhase;
class OtaLoop;

/// Deterministic discrete-event simulator of the paper's Fig. 1: devices
/// sample noisy desynchronized sensors and flush windows to their edge over
/// lossy links; edges integrate, prepare and batch-forward to the core; the
/// core reduces the merged records and learns the analytics concept. All
/// time is virtual (the scheduler's clock); all randomness flows from the
/// config seed through split Rngs, so a run is reproducible bit-for-bit.
class FleetSim {
 public:
  /// Uses default_fleet_pipeline(config).
  /// Throws InvalidArgument on nonsensical config (no devices, more edges
  /// than devices, non-positive durations or intervals).
  explicit FleetSim(FleetConfig config);

  /// Host a custom pipeline instead; its stages are placed by tier.
  FleetSim(FleetConfig config, pipeline::Pipeline full_pipeline);
  ~FleetSim();

  /// Run the simulation to completion. One-shot: throws InvalidArgument on
  /// a second call (build a fresh FleetSim to re-run).
  FleetReport run();

  /// One line per processed event (see Scheduler::log), rendered on each
  /// call; byte-identical across runs with the same config and pipeline.
  std::vector<std::string> event_log() const { return sched_.log(); }

  const net::Topology& topology() const noexcept { return topo_; }

  /// The run's observatory, or nullptr when config.observatory.enabled is
  /// false. Valid for the simulator's lifetime.
  const obs::Observatory* observatory() const noexcept {
    return obsy_.enabled() ? &obsy_ : nullptr;
  }

 private:
  friend class FleetSurface;

  void generate_device_data();
  void schedule_initial_events();
  void handle(const Event& event);
  void handle_device_flush(const Event& event);
  void handle_edge_flush(std::size_t edge_index, double now_s);
  /// A row frame lands: kArrival intact, kCorruptArrival failing its checksum.
  void handle_arrival(const Event& event);
  void send(net::NodeId from, RowBuffer&& chunk, double now_s);
  /// The one send path for traced frames (DESIGN.md §9). The caller fills
  /// `frame`'s src, dst, stream, rows, bytes and parents. A frame climbing
  /// the tree (src < dst: node ids ascend device, edge, core) rides src's
  /// uplink, any other dst's downlink. Sends with the link's rng, allocates
  /// the trace id, fills in hop, times, attempts and the outcome — dead_letter,
  /// corrupt, timeout (ack mode) or dropped (fire-and-forget), delivered —
  /// journals the record, and on intact delivery schedules the arrival.
  net::ChannelOutcome transmit(obs::HopRecord& frame, EventKind arrival,
                               std::size_t message, double now_s);
  /// Push `kind` at `node` for `message` at the outcome's arrival time, then
  /// the link's straggler copy, if any, flagged Event::duplicate. The only
  /// reader of duplicate_arrival_s (lint rule R8).
  void schedule_arrival(const net::ChannelOutcome& out, EventKind kind, net::NodeId node,
                        std::size_t message);
  /// Link `link`'s cached bytes counter (see link_bytes_).
  obs::Counter& link_bytes(std::size_t link);
  void finalize();
  /// `ds` labeled with the analytics concept at each row's timestamp.
  data::Dataset labeled(data::Dataset ds) const;
  /// Rows [begin, end) of `device`'s sensed data, labeled.
  data::Dataset labeled_device_rows(std::size_t device, std::size_t begin,
                                    std::size_t end) const;

  // Fault-tolerance machinery (see DESIGN.md §11).
  void handle_checkpoint(std::size_t edge_index);
  void handle_edge_crash(std::size_t edge_index);
  void handle_edge_restart(std::size_t edge_index);
  void set_partition(bool on);
  void set_loss_burst(bool on);
  void set_corruption_storm(bool on);
  void store_and_forward(net::NodeId device, RowBuffer&& chunk);
  std::size_t stored_rows(net::NodeId device) const;

  // Telemetry wire path (config_.telemetry.enabled; see DESIGN.md §15).
  bool telemetry_on() const noexcept { return config_.telemetry.enabled; }
  /// Encode `ds` (already quantized) as `device`'s next TDF frame. The
  /// schema rides inline until one frame is known delivered — the session
  /// negotiation — and is registered edge-side on first use.
  std::vector<std::uint8_t> telemetry_encode(net::NodeId device,
                                             const data::Dataset& ds,
                                             const std::vector<double>& origin_s);
  /// Buffer an offline/failed chunk through the device's ring log:
  /// store-and-forward keeps the rows, the log accounts the encoded bytes,
  /// and overflow evicts whole frames oldest-first (byte bound first, then
  /// the legacy row cap) keeping both structures in lockstep.
  void telemetry_store(net::NodeId device, RowBuffer&& chunk);

  void set_load_storm(bool on, double now_s);
  void handle_storm_flush(const Event& event);
  /// The ladder's L2/L3 answer to edge `edge_index`'s window: the summary
  /// replaces the batch on the uplink, untraced, and the window is dropped.
  void degrade_summary_flush(std::size_t edge_index, double now_s, int level);

  // Observatory wiring (see DESIGN.md §13).
  /// Journal what the receiver did with `event`'s arrival. Node and time come
  /// from the event; every hop starts or ends at an edge, so an arrival at an
  /// edge is hop 0 and one anywhere else hop 1.
  void journey_arrive(const Event& event, obs::HopStream stream, std::uint64_t trace,
                      std::size_t rows, const char* outcome);
  void flight_dump(net::NodeId entity, const char* trigger, double t_s);

  FleetConfig config_;
  net::Topology topo_;
  TierPipelines tiers_;
  Scheduler sched_;

  std::vector<Rng> device_rngs_;
  std::vector<Rng> edge_rngs_;
  // det-sanctioned: placeholder seed; reseeded from master.split() (rng-stream: core)
  Rng core_rng_{0};
  std::vector<Rng> link_rngs_;

  /// One transport per link, same index space; every simulator send goes
  /// through these (lint rule R8 bans direct Link transmits outside net/).
  std::vector<net::Channel> channels_;
  /// The "net.link.<name>.bytes" counter of each link, same index space,
  /// looked up on the link's first send and cached (lint rule R10).
  std::vector<obs::Counter*> link_bytes_;

  std::vector<pipeline::Signal> truths_;      ///< per measured quantity
  std::vector<data::Dataset> device_data_;    ///< pre-integrated full window
  std::vector<std::size_t> device_cursor_;    ///< next unflushed row

  /// Row messages by id. The one non-duplicate arrival consumes its
  /// message's payload and frame (see net::Message); the header stays.
  std::vector<net::Message> messages_;
  /// What of a message outlives its arrival, parallel to messages_.
  struct MessageRecord {
    /// Parent origin-window ids. Kept off the wire struct: receivers
    /// inherit provenance locally, the frame only carries the 10-byte
    /// TraceContext. Moved into the edge buffer at arrival.
    std::vector<std::uint64_t> parents;
    /// Rows sent; a straggler duplicate's journey record reads it after
    /// the payload has moved on.
    std::size_t rows = 0;
  };
  std::vector<MessageRecord> msg_records_;
  std::vector<RowBuffer> edge_buffers_;
  RowBuffer core_buffer_;

  /// Per-tier virtual-latency distributions at fixed memory — the
  /// observatory's replacement for an unbounded per-sample vector.
  obs::LogHistogram lat_device_edge_;
  obs::LogHistogram lat_edge_core_;
  obs::LogHistogram lat_end_to_end_;

  /// Monotone trace-id source for origin windows, wire frames and deploy
  /// broadcasts. Plain counter, never an RNG draw: ids are deterministic
  /// and cost nothing when the observatory is off.
  std::uint64_t next_trace_ = 1;
  obs::Observatory obsy_;  ///< disabled (a null object) unless config_.observatory.enabled

  std::vector<RowBuffer> edge_checkpoints_;  ///< last persisted buffer per edge
  std::vector<std::deque<RowBuffer>> device_sf_;  ///< store-and-forward chunks

  // ---- Telemetry wire state (empty unless config_.telemetry.enabled) ----
  tdf::SchemaRegistry tdf_registry_;       ///< edge-side schemas, keyed by id
  std::optional<tdf::Schema> tdf_schema_;  ///< the fleet's uplink schema
  std::vector<std::uint8_t> tdf_session_open_;  ///< device: schema delivered
  std::vector<std::uint32_t> tdf_seq_;          ///< per-device frame sequence
  std::vector<tdf::DeviceLog> device_logs_;     ///< per-device encoded ring
  bool partitioned_ = false;
  bool load_storm_ = false;
  std::uint64_t storm_epoch_ = 0;  ///< invalidates stale kStormFlush chains
  std::vector<std::uint8_t> core_link_;  ///< link index -> is edge<->core
  /// Pre-chaos drop/corrupt probabilities of every link, captured at start
  /// so burst/storm ends restore exactly the configured baseline.
  std::vector<double> base_drop_prob_;
  std::vector<double> base_corrupt_prob_;

  /// The deploy phase (DESIGN.md §14); null unless config_.deploy.enabled.
  std::unique_ptr<DeployPhase> deploy_;
  /// The OTA delta-update loop (DESIGN.md §14); null unless config_.ota.enabled.
  std::unique_ptr<OtaLoop> ota_;
  /// The degradation ladder (DESIGN.md §16); null unless config_.degrade.enabled.
  std::unique_ptr<DegradeLadder> ladder_;

  FleetReport report_;
  bool ran_ = false;
};

}  // namespace iotml::sim
