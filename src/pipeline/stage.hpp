#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace iotml::pipeline {

/// Where in the IoT topology a stage executes (Fig. 1 of the paper: device ->
/// edge -> core).
enum class Tier { kDevice, kEdge, kCore };

std::string tier_name(Tier t);

/// Inverse of tier_name — parses "device"/"edge"/"core" (as emitted by
/// tier_name and as written in sim topology configs). Throws InvalidArgument
/// for any other spelling.
Tier tier_from_name(std::string_view name);

/// Accounting record emitted by each stage: what it did to the data and what
/// it cost. The per-stage cost is what the stage's *player* minimizes in the
/// Section IV games, while downstream players care about the quality fields.
struct StageReport {
  std::string stage_name;
  std::string player;  ///< owning actor (stages of one pipeline may differ)
  Tier tier = Tier::kEdge;
  std::size_t rows_in = 0;
  std::size_t rows_out = 0;
  std::size_t columns_out = 0;
  double missing_rate_in = 0.0;
  double missing_rate_out = 0.0;
  double cost = 0.0;  ///< abstract effort units declared by the stage
  /// Measured wall time of Stage::apply. Every concrete iotml stage measures
  /// its own body via obs::now_us, so the field is filled even when a stage
  /// is applied directly, outside a Pipeline; Pipeline::run additionally
  /// fills it for third-party stages that leave it 0. Unlike `cost` this is
  /// observed, not declared — the paper's per-stage accounting needs both
  /// sides to compare what a stage claims against what it actually spends.
  std::uint64_t wall_time_us = 0;
};

/// One service in the composed pipeline (the paper models the pipeline as a
/// composition of services pursuing different goals, Section I.B).
class Stage {
 public:
  virtual ~Stage() = default;

  /// Transform the dataset in place and return the accounting record.
  virtual StageReport apply(data::Dataset& ds, Rng& rng) = 0;

  virtual std::string name() const = 0;

  /// The actor operating this stage; defaults to "operator".
  virtual std::string player() const { return "operator"; }

  virtual Tier tier() const { return Tier::kEdge; }
};

/// A stage defined by a lambda — the quick way to compose custom pipelines.
class LambdaStage final : public Stage {
 public:
  using Fn = std::function<double(data::Dataset&, Rng&)>;  // returns cost

  LambdaStage(std::string name, Fn fn, std::string player = "operator",
              Tier tier = Tier::kEdge);

  StageReport apply(data::Dataset& ds, Rng& rng) override;
  std::string name() const override { return name_; }
  std::string player() const override { return player_; }
  Tier tier() const override { return tier_; }

 private:
  std::string name_;
  Fn fn_;
  std::string player_;
  Tier tier_;
};

/// Ordered composition of stages with full per-stage accounting.
class Pipeline {
 public:
  Pipeline& add(std::unique_ptr<Stage> stage);

  /// Convenience: add a lambda stage.
  Pipeline& add(std::string name, LambdaStage::Fn fn,
                std::string player = "operator", Tier tier = Tier::kEdge);

  std::size_t size() const noexcept { return stages_.size(); }

  /// Run every stage in order; the reports of this run are retained.
  data::Dataset run(data::Dataset input, Rng& rng);

  const std::vector<StageReport>& reports() const noexcept { return reports_; }

  /// Total declared cost of the last run, optionally for one player only.
  double total_cost() const;
  double player_cost(const std::string& player) const;

  /// Move the stages out (for re-hosting them elsewhere, e.g. tier placement
  /// in the fleet simulator); the pipeline is left empty with no reports.
  std::vector<std::unique_ptr<Stage>> take_stages();

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
  /// "stage:" + name() of each stage, built once in add(): the span name
  /// Pipeline::run opens around the stage.
  std::vector<std::string> span_names_;
  std::vector<StageReport> reports_;
};

}  // namespace iotml::pipeline
