#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "approx/confidence.hpp"
#include "approx/degradation.hpp"
#include "net/channel.hpp"
#include "pipeline/stage.hpp"
#include "sim/fleet.hpp"
#include "sim/report.hpp"
#include "util/rng.hpp"

namespace iotml::sim {

/// The graceful-degradation ladder (DESIGN.md §16), FleetSim's third
/// subsystem module: at every flush each edge steps a hysteresis controller
/// on its own backpressure and answers the window exactly (L0), from a
/// stratified sample (L1), from sketches (L2) or with a bare count (L3). It
/// owns the controllers, the reduces, the kSummaryArrival receiver and the
/// ledger. FleetSim keeps the buffers, channels and checkpoints, hands the
/// ladder what it reads of them, and sends the summary uplink.
class DegradeLadder {
 public:
  /// Throws InvalidArgument on a nonsensical degrade config. The pin level
  /// is checked by the controllers the constructor builds.
  static void validate(const DegradeConfig& config);

  /// `degrade` is the L1 sampling stream FleetSim split.
  DegradeLadder(const FleetConfig& config, FleetSurface fleet, Rng degrade);

  /// What FleetSim reads of one edge at its flush.
  struct Readings {
    std::size_t uplink_in_flight = 0;   ///< edge->core channel depth now
    std::uint64_t sf_rows = 0;          ///< store-and-forward rows of its devices
    std::size_t buffered_rows = 0;      ///< rows in the edge's batch buffer
    std::size_t checkpointed_rows = 0;  ///< ... covered by its last checkpoint
  };

  /// Folds the edge's backpressure into signals, steps its controller,
  /// ledgers any transition and returns the level in force (0..3).
  int step(std::size_t edge_index, double now_s, const Readings& readings);

  /// A send on one of the edge's channels (or its devices') left `in_flight`
  /// frames queued, `refused` if the bounded queue dead-lettered it. The
  /// deepest queue since the edge's last step counts as congestion.
  void note_send(std::size_t edge_index, std::size_t in_flight, bool refused);

  /// L0: ledgers a window of `rows` answered exactly.
  void answer_exact(std::size_t rows) {
    ledger_.rows_exact += rows;
    ++ledger_.windows_exact;
  }

  /// L1: replaces `buf` with a seeded stratified sample of its live rows,
  /// ledgers the window's confidence interval against the exact window mean
  /// and the shed rows, and returns the sampling stage's report.
  pipeline::StageReport sample(std::size_t edge_index, double now_s, RowBuffer& buf);

  /// An L2/L3 answer: the reduce's stage report and the summary frame to
  /// uplink in place of the window.
  struct Summary {
    pipeline::StageReport stage;
    std::size_t wire_bytes = 0;
    std::size_t message = 0;  ///< the kSummaryArrival message index
  };
  /// L2/L3: answers `buf`'s window with sketches (L2) or a bare count (L3)
  /// and ledgers every row as shed and the summary as sent. The caller sends
  /// the summary and clears the buffer.
  Summary summarize(std::size_t edge_index, double now_s, int level, const RowBuffer& buf);

  /// Runs one kSummaryArrival.
  void handle(const Event& event);

  /// Settles the ladder after the drain at `now_s` — calm updates walk every
  /// un-pinned edge back to L0 and close the per-level time books — then
  /// closes the ledger and returns it with one backpressure gauge per edge,
  /// read off FleetSim's `channels`. Call once, after the last edge flush.
  std::pair<DegradationLedger, std::vector<BackpressureGauge>> finalize(
      double now_s, const std::vector<net::Channel>& channels);

 private:
  /// One edge's controller and the signal memory between its steps.
  struct Edge {
    approx::DegradationController ctrl;
    double last_step_s = 0.0;
    std::uint64_t dead_letters = 0;       ///< total
    std::uint64_t dead_letters_seen = 0;  ///< at the last step
    /// Deepest in-flight/queue-capacity fraction any of the edge's channels
    /// hit since its last step (reset on read).
    double queue_hint = 0.0;
    std::uint64_t sf_highwater = 0;  ///< store-and-forward rows
  };

  /// One L2/L3 summary uplink, for the core's flight note.
  struct SummaryMsg {
    int level = 0;
    std::uint64_t rows = 0;
  };

  int update(std::size_t edge_index, double now_s, const approx::DegradeSignals& signals);
  /// Ledger one CI-carrying window answered at `level` from `rows_used` of
  /// its `population` rows, against the exact mean over `exact_n` rows.
  void record_ci(std::size_t edge_index, double now_s, int level, std::size_t population,
                 std::size_t rows_used, const approx::Interval& ci, double exact,
                 std::size_t exact_n);

  const FleetConfig& config_;
  FleetSurface fleet_;
  // det-sanctioned: split by FleetSim::FleetSim after epoch, moved in (rng-stream: degrade)
  Rng rng_;  ///< L1 stratified sampling

  std::vector<Edge> edges_;
  std::vector<SummaryMsg> summaries_;
  // Running sums behind the ledger's mean_half_width / mean_abs_error.
  double half_width_sum_ = 0.0;
  double abs_error_sum_ = 0.0;

  DegradationLedger ledger_;
};

}  // namespace iotml::sim
