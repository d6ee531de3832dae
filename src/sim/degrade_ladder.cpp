#include "sim/degrade_ladder.hpp"

#include <algorithm>
#include <cmath>

#include "approx/sample.hpp"
#include "approx/sketch.hpp"
#include "net/message.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::sim {

using pipeline::StageReport;
using pipeline::Tier;

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

/// The window's per-sender strata. Every RowBuffer::append records its
/// sender's run, so they tile the window.
const std::vector<approx::Stratum>& window_strata(const RowBuffer& buf) {
  std::size_t tiled = 0;
  for (const approx::Stratum& s : buf.strata) tiled += s.count;
  IOTML_INTERNAL_CHECK(tiled == buf.row_count, "DegradeLadder: strata do not tile the window");
  return buf.strata;
}

}  // namespace

void DegradeLadder::validate(const DegradeConfig& config) {
  IOTML_CHECK(config.sample_rate > 0.0 && config.sample_rate <= 1.0,
              "FleetSim: degrade.sample_rate outside (0, 1]");
  IOTML_CHECK(config.sketch_capacity >= 1 && config.countmin_width >= 1 &&
                  config.countmin_depth >= 1,
              "FleetSim: degrade sketch shapes must be >= 1");
  IOTML_CHECK(config.dead_letter_rate_ref > 0.0,
              "FleetSim: degrade.dead_letter_rate_ref must be positive");
  IOTML_CHECK(config.checkpoint_lag_rows >= 1,
              "FleetSim: degrade.checkpoint_lag_rows must be >= 1");
  IOTML_CHECK(config.sketch_cost_base >= 0.0 && config.sketch_cost_per_row >= 0.0,
              "FleetSim: negative degrade sketch cost");
}

DegradeLadder::DegradeLadder(const FleetConfig& config, FleetSurface fleet, Rng degrade)
    : config_(config), fleet_(fleet), rng_(std::move(degrade)) {
  edges_.reserve(config.edges);
  for (std::size_t e = 0; e < config.edges; ++e) {
    edges_.push_back(
        {approx::DegradationController(config.degrade.thresholds, config.degrade.pin_level)});
  }
  ledger_.enabled = true;
  ledger_.pin_level = config.degrade.pin_level;
  ledger_.duration_s = config.duration_s;
}

int DegradeLadder::step(std::size_t edge_index, double now_s, const Readings& readings) {
  Edge& edge = edges_[edge_index];
  approx::DegradeSignals s;

  // Channel congestion: the uplink's depth right now, or the deepest
  // fraction any of the edge's channels hit since the last step.
  s.queue_fraction =
      std::max(static_cast<double>(readings.uplink_in_flight) /
                   static_cast<double>(config_.channel.queue_capacity),
               edge.queue_hint);
  edge.queue_hint = 0.0;

  // Dead-letter growth since the last step, against the reference rate.
  const std::uint64_t fresh = edge.dead_letters - edge.dead_letters_seen;
  if (fresh > 0) {
    const double elapsed = now_s - edge.last_step_s;
    s.dead_letter_rate = (static_cast<double>(fresh) / std::max(elapsed, 1e-9)) /
                         config_.degrade.dead_letter_rate_ref;
  }
  edge.dead_letters_seen = edge.dead_letters;

  // Store-and-forward occupancy across the edge's devices (device i belongs
  // to edge i % edges, see Topology::fleet, so the edge has this many).
  if (config_.device_buffer_rows > 0) {
    edge.sf_highwater = std::max(edge.sf_highwater, readings.sf_rows);
    const std::size_t devices =
        (config_.devices - edge_index + config_.edges - 1) / config_.edges;
    s.sf_occupancy = static_cast<double>(readings.sf_rows) /
                     (static_cast<double>(config_.device_buffer_rows) *
                      static_cast<double>(devices));
  }

  // Checkpoint lag: rows buffered beyond what the last checkpoint covers.
  if (config_.checkpoint_interval_s > 0.0) {
    const std::size_t lag = readings.buffered_rows -
                            std::min(readings.buffered_rows, readings.checkpointed_rows);
    s.checkpoint_lag = static_cast<double>(lag) /
                       static_cast<double>(config_.degrade.checkpoint_lag_rows);
  }
  edge.last_step_s = now_s;
  return update(edge_index, now_s, s);
}

void DegradeLadder::note_send(std::size_t edge_index, std::size_t in_flight,
                              bool refused) {
  Edge& edge = edges_[edge_index];
  edge.queue_hint = std::max(edge.queue_hint,
                             static_cast<double>(in_flight) /
                                 static_cast<double>(config_.channel.queue_capacity));
  if (refused) ++edge.dead_letters;
}

int DegradeLadder::update(std::size_t edge_index, double now_s,
                          const approx::DegradeSignals& signals) {
  approx::DegradationController& ctrl = edges_[edge_index].ctrl;
  const approx::DegradeLevel before = ctrl.level();
  const approx::DegradeLevel after = ctrl.update(now_s, signals);
  if (after != before) {
    ++(after > before ? ledger_.transitions_up : ledger_.transitions_down);
    static obs::Counter& sim_degrade_transitions =
        obs::registry().counter("sim.degrade.transitions");
    sim_degrade_transitions.add();
    const net::NodeId e = fleet_.topo.edge(edge_index);
    fleet_.obsy.note(e, now_s, "degrade-level", static_cast<std::size_t>(before),
                     static_cast<std::size_t>(after));
    fleet_.obsy.sample("degrade.level", fleet_.topo.node(e).name, "edge", now_s,
                       static_cast<double>(static_cast<int>(after)));
  }
  return static_cast<int>(after);
}

void DegradeLadder::record_ci(std::size_t edge_index, double now_s, int level,
                              std::size_t population, std::size_t rows_used,
                              const approx::Interval& ci, double exact,
                              std::size_t exact_n) {
  auto& d = ledger_;
  const bool covered = exact_n == 0 || ci.covers(exact);
  ++d.ci_windows;
  if (covered) ++d.ci_covered;
  half_width_sum_ += ci.half_width;
  const double err = std::abs(ci.estimate - exact);
  abs_error_sum_ += err;
  d.max_abs_error = std::max(d.max_abs_error, err);
  if (d.windows.size() < kMaxWindowEstimates) {
    d.windows.push_back({edge_index, now_s, level, population, rows_used,
                         ci.estimate, ci.half_width, exact, covered});
  } else {
    ++d.windows_truncated;
  }
}

StageReport DegradeLadder::sample(std::size_t edge_index, double now_s, RowBuffer& buf) {
  const std::size_t population = buf.row_count;
  const net::NodeId e = fleet_.topo.edge(edge_index);
  const std::vector<approx::Stratum>& strata = window_strata(buf);

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
      approx::stratified_indices(live, config_.degrade.sample_rate, rng_);

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
  record_ci(edge_index, now_s, 1, population, keep.size(),
            approx::stratified_mean_interval(samples), exact, exact_n);

  ++ledger_.windows_sampled;
  ledger_.rows_approx += population;
  ledger_.rows_sampled_out += population - keep.size();

  StageReport st{.stage_name = "degrade(sample)", .player = "edge-operator",
                 .tier = Tier::kEdge, .rows_in = population, .rows_out = keep.size(),
                 .columns_out = buf.rows.num_columns(),
                 .missing_rate_in = buf.rows.missing_rate(),
                 .cost = 0.05 + 0.0002 * static_cast<double>(population)};
  // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
  st.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);

  buf.rows = buf.rows.select_rows(keep);
  buf.row_count = keep.size();
  buf.strata.clear();  // the sampled window is one run now
  st.missing_rate_out = buf.rows.missing_rate();

  fleet_.obsy.note(e, now_s, "degrade-sample", population, keep.size());
  fleet_.obsy.sample("degrade.sampled_rows", fleet_.topo.node(e).name, "edge", now_s,
                     static_cast<double>(keep.size()));
  return st;
}

DegradeLadder::Summary DegradeLadder::summarize(std::size_t edge_index, double now_s,
                                                int level, const RowBuffer& buf) {
  const std::size_t population = buf.row_count;
  const net::NodeId e = fleet_.topo.edge(edge_index);
  auto& d = ledger_;
  const std::int64_t start_us = obs::now_us();

  // Count + level + window stamp ride in every summary.
  Summary out;
  out.wire_bytes = net::kMessageHeaderBytes + 24;
  StageReport& st = out.stage;
  st.player = "edge-operator";
  st.tier = Tier::kEdge;
  st.rows_in = population;
  st.missing_rate_in = buf.rows.missing_rate();

  if (level == 2) {
    // L2 sketch-only reduce: the window collapses to a count-min tally of
    // rows per sender plus a bottom-k quantile sample of the first measured
    // quantity. Both are mergeable and byte-stable, so the core could fold
    // summaries from many edges in any order; the retained sample doubles
    // as the CI input.
    approx::CountMinSketch tally(config_.degrade.countmin_width,
                                 config_.degrade.countmin_depth, config_.seed);
    for (const approx::Stratum& s : window_strata(buf)) tally.add(s.key, s.count);
    approx::QuantileSketch quant(config_.degrade.sketch_capacity, config_.seed);
    const data::Column& col = buf.rows.column(1);
    const std::uint64_t key_base = static_cast<std::uint64_t>(e) << 32;
    for (std::size_t r = 0; r < population; ++r) {
      if (col.is_missing(r)) continue;
      quant.add(key_base | static_cast<std::uint64_t>(r), col.numeric(r));
    }

    std::size_t exact_n = 0;
    const double exact = column_mean(col, population, exact_n);
    record_ci(edge_index, now_s, 2, population, quant.retained(),
              approx::mean_interval(quant.sample_values(), exact_n), exact, exact_n);

    out.wire_bytes += tally.encode().size() + quant.encode().size();
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
  // det-sanctioned: wall_time_us is observability-only; to_json and the event log omit it
  st.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);

  fleet_.obsy.note(e, now_s, "degrade-shed", population, static_cast<std::size_t>(level));
  fleet_.obsy.sample("degrade.shed_rows", fleet_.topo.node(e).name, "edge", now_s,
                     static_cast<double>(population));

  out.message = summaries_.size();
  summaries_.push_back({level, static_cast<std::uint64_t>(population)});
  ++d.summaries_sent;
  d.summary_bytes += out.wire_bytes;
  return out;
}

void DegradeLadder::handle(const Event& event) {
  // A link's straggler copy is discarded; with the core down the summary dies.
  const net::NodeId core = fleet_.topo.core();
  if (event.duplicate || !fleet_.topo.node(core).up) return;
  ++ledger_.summaries_delivered;
  const SummaryMsg& s = summaries_[event.message];
  fleet_.obsy.note(core, event.time_s, "rx-summary", static_cast<std::size_t>(s.rows),
                   static_cast<std::size_t>(s.level));
}

std::pair<DegradationLedger, std::vector<BackpressureGauge>> DegradeLadder::finalize(
    double now_s, const std::vector<net::Channel>& channels) {
  // Calm updates past the drain: each de-escalation rung needs a calm mark
  // plus a full dwell, so 2 updates per rung and 3 rungs = 6; run 8 for
  // margin. Controller-side only — no events, no draws, no wire bytes — so
  // L0-pinned and never-escalated runs are unaffected.
  for (int k = 1; k <= 8; ++k) {
    const double t = now_s + static_cast<double>(k) * config_.degrade.thresholds.dwell_s;
    for (std::size_t e = 0; e < config_.edges; ++e) update(e, t, approx::DegradeSignals{});
  }

  auto& d = ledger_;
  if (d.ci_windows > 0) {
    const auto windows = static_cast<double>(d.ci_windows);
    d.coverage = static_cast<double>(d.ci_covered) / windows;
    d.mean_half_width = half_width_sum_ / windows;
    d.mean_abs_error = abs_error_sum_ / windows;
  }
  std::vector<BackpressureGauge> gauges;
  const net::Topology& topo = fleet_.topo;
  for (std::size_t e = 0; e < config_.edges; ++e) {
    const approx::DegradationController& ctrl = edges_[e].ctrl;
    EdgeDegradeTimeline timeline;
    timeline.edge = e;
    timeline.final_level = static_cast<int>(ctrl.level());
    std::copy_n(ctrl.time_at_level().begin(), 4, timeline.time_at_level_s);
    for (const approx::LevelTransition& tr : ctrl.transitions()) {
      timeline.transitions.push_back(
          {e, tr.t_s, static_cast<int>(tr.from), static_cast<int>(tr.to)});
    }
    d.edges.push_back(std::move(timeline));

    // The raw signals behind the ladder, visible even in pinned runs.
    BackpressureGauge g;
    g.edge = e;
    const net::Channel& up = channels[topo.uplink_index(topo.edge(e))];
    g.uplink_in_flight_highwater = up.in_flight_highwater();
    g.uplink_dead_letters = up.dead_letters();
    for (std::size_t i = e; i < config_.devices; i += config_.edges) {
      const net::Channel& ch = channels[topo.uplink_index(topo.device(i))];
      g.device_in_flight_highwater =
          std::max(g.device_in_flight_highwater, ch.in_flight_highwater());
      g.device_dead_letters += ch.dead_letters();
    }
    g.sf_rows_highwater = static_cast<std::size_t>(edges_[e].sf_highwater);
    gauges.push_back(g);
  }
  return {std::move(ledger_), std::move(gauges)};
}

}  // namespace iotml::sim
