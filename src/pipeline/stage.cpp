#include "pipeline/stage.hpp"

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace iotml::pipeline {

std::string tier_name(Tier t) {
  switch (t) {
    case Tier::kDevice: return "device";
    case Tier::kEdge: return "edge";
    case Tier::kCore: return "core";
  }
  return "?";
}

Tier tier_from_name(std::string_view name) {
  if (name == "device") return Tier::kDevice;
  if (name == "edge") return Tier::kEdge;
  if (name == "core") return Tier::kCore;
  throw InvalidArgument("tier_from_name: unknown tier '" + std::string(name) + "'");
}

LambdaStage::LambdaStage(std::string name, Fn fn, std::string player, Tier tier)
    : name_(std::move(name)), fn_(std::move(fn)), player_(std::move(player)), tier_(tier) {
  IOTML_CHECK(fn_ != nullptr, "LambdaStage: null function");
  IOTML_CHECK(!name_.empty(), "LambdaStage: empty name");
}

StageReport LambdaStage::apply(data::Dataset& ds, Rng& rng) {
  StageReport report;
  report.stage_name = name_;
  report.player = player_;
  report.tier = tier_;
  report.rows_in = ds.rows();
  report.missing_rate_in = ds.missing_rate();
  const std::int64_t start_us = obs::now_us();
  report.cost = fn_(ds, rng);
  // det-sanctioned: wall_time_us feeds obs spans only; deterministic artifacts never serialize it
  report.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);
  report.rows_out = ds.rows();
  report.columns_out = ds.num_columns();
  report.missing_rate_out = ds.missing_rate();
  return report;
}

Pipeline& Pipeline::add(std::unique_ptr<Stage> stage) {
  IOTML_CHECK(stage != nullptr, "Pipeline::add: null stage");
  span_names_.push_back("stage:" + stage->name());
  stages_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::add(std::string name, LambdaStage::Fn fn, std::string player,
                        Tier tier) {
  return add(std::make_unique<LambdaStage>(std::move(name), std::move(fn),
                                           std::move(player), tier));
}

data::Dataset Pipeline::run(data::Dataset input, Rng& rng) {
  reports_.clear();
  obs::Span run_span("pipeline.run", "pipeline");
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    obs::Span span(span_names_[i], "pipeline");
    const std::int64_t start_us = obs::now_us();
    StageReport report = stages_[i]->apply(input, rng);
    // Concrete iotml stages self-measure their body; keep that tighter
    // reading and only fall back to the around-the-call measurement for
    // third-party stages that left the field 0.
    if (report.wall_time_us == 0) {
      // det-sanctioned: wall_time_us feeds obs spans only; deterministic artifacts omit it
      report.wall_time_us = static_cast<std::uint64_t>(obs::now_us() - start_us);
    }
    if (span.active()) {
      span.arg("player", report.player);
      span.arg("tier", tier_name(report.tier));
      span.arg("rows_in", static_cast<std::uint64_t>(report.rows_in));
      span.arg("rows_out", static_cast<std::uint64_t>(report.rows_out));
      span.arg("columns_out", static_cast<std::uint64_t>(report.columns_out));
      span.arg("missing_rate_in", report.missing_rate_in);
      span.arg("missing_rate_out", report.missing_rate_out);
      span.arg("cost", report.cost);
    }
    static obs::Counter& pipeline_stages_run = obs::registry().counter("pipeline.stages_run");
    pipeline_stages_run.add();
    static obs::Histogram& pipeline_stage_wall_us =
        obs::registry().histogram("pipeline.stage_wall_us");
    pipeline_stage_wall_us.record(static_cast<double>(report.wall_time_us));
    reports_.push_back(std::move(report));
  }
  if (run_span.active()) {
    run_span.arg("stages", static_cast<std::uint64_t>(stages_.size()));
    run_span.arg("total_cost", total_cost());
  }
  return input;
}

std::vector<std::unique_ptr<Stage>> Pipeline::take_stages() {
  reports_.clear();
  span_names_.clear();
  std::vector<std::unique_ptr<Stage>> out = std::move(stages_);
  stages_.clear();
  return out;
}

double Pipeline::total_cost() const {
  double total = 0.0;
  for (const StageReport& r : reports_) total += r.cost;
  return total;
}

double Pipeline::player_cost(const std::string& player) const {
  double total = 0.0;
  for (const StageReport& r : reports_) {
    if (r.player == player) total += r.cost;
  }
  return total;
}

}  // namespace iotml::pipeline
