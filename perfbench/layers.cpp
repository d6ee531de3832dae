#include "layers.hpp"

#include <numbers>
#include <stdexcept>
#include <vector>

#include "learners/decision_tree.hpp"
#include "obs/clock.hpp"
#include "pipeline/integration.hpp"
#include "pipeline/sensors.hpp"
#include "tdf/codec.hpp"
#include "util/rng.hpp"

namespace perfbench {

using iotml::Rng;
using iotml::data::Dataset;
using iotml::sim::FleetConfig;

namespace {

// Ground truth of the three sensed quantities, shaped like the simulator's.
const std::vector<iotml::pipeline::Signal>& truths() {
  static const std::vector<iotml::pipeline::Signal> signals = {
      iotml::pipeline::sine_signal(22.0, 6.0, 40.0, -std::numbers::pi / 2.0),
      iotml::pipeline::sine_signal(55.0, 10.0, 500.0),
      iotml::pipeline::sine_signal(4.0, 3.0, 120.0),
  };
  return signals;
}

// One device's integrated record stream over [0, horizon_s): column 0 is
// the timestamp, then one column per quantity.
Dataset sensed_device(const FleetConfig& config, double horizon_s, Rng& rng) {
  static const char* kName[3] = {"temperature", "humidity", "wind"};
  static constexpr double kNoiseScale[3] = {1.0, 2.5, 1.5};
  std::vector<iotml::pipeline::SensorStream> streams;
  for (std::size_t q = 0; q < 3; ++q) {
    iotml::pipeline::SensorSpec spec;
    spec.name = kName[q];
    spec.period_s = config.sensor_period_s * rng.uniform(0.9, 1.1);
    spec.clock_jitter_s = 0.02;
    spec.noise_std = config.sensor_noise * kNoiseScale[q];
    spec.dropout_prob = config.sensor_dropout;
    streams.push_back(iotml::pipeline::simulate_sensor(spec, truths()[q], horizon_s, rng));
  }
  return iotml::pipeline::integrate_streams(
             streams, {.merge_tolerance_s = 0.45 * config.sensor_period_s})
      .records;
}

}  // namespace

CodecTiming time_tdf_codec(const FleetConfig& config) {
  constexpr std::size_t kDevices = 16;
  constexpr std::size_t kPasses = 8;
  Rng rng(config.seed);
  const std::uint8_t bits = config.telemetry.scale_bits;

  // Cut each device's stream into flush windows of device_flush_s.
  std::vector<Dataset> windows;
  std::vector<std::vector<double>> origins;
  for (std::size_t d = 0; d < kDevices; ++d) {
    const Dataset all = sensed_device(config, config.duration_s, rng);
    std::size_t begin = 0;
    for (double t = config.device_flush_s; begin < all.rows(); t += config.device_flush_s) {
      std::vector<std::size_t> idx;
      while (begin < all.rows() && all.column(0).numeric(begin) < t) idx.push_back(begin++);
      if (idx.empty()) continue;
      Dataset w = all.select_rows(idx);
      iotml::tdf::quantize(w, bits);
      windows.push_back(std::move(w));
      origins.push_back({iotml::tdf::quantize_value(t, bits)});
    }
  }
  if (windows.empty()) throw std::runtime_error("tdf codec: no flush windows");
  const iotml::tdf::Schema schema = iotml::tdf::Schema::infer(windows.front(), bits);

  CodecTiming out;
  out.round_trip_ok = true;
  std::vector<std::vector<std::uint8_t>> frames(windows.size());
  std::int64_t encode_us = 0;
  std::int64_t decode_us = 0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    const std::int64_t t0 = iotml::obs::now_us();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      frames[i] = iotml::tdf::encode_frame(schema, windows[i], origins[i],
                                           static_cast<std::uint32_t>(i),
                                           static_cast<std::uint32_t>(pass), i == 0);
    }
    const std::int64_t t1 = iotml::obs::now_us();
    iotml::tdf::SchemaRegistry registry;
    std::size_t rows = 0;
    std::size_t expected = 0;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      rows += iotml::tdf::decode_frame(frames[i], registry).rows.rows();
      expected += windows[i].rows();
    }
    const std::int64_t t2 = iotml::obs::now_us();
    encode_us += t1 - t0;
    decode_us += t2 - t1;
    out.round_trip_ok = out.round_trip_ok && rows == expected;
    out.frames += frames.size();
  }
  out.encode_us_per_frame = static_cast<double>(encode_us) / static_cast<double>(out.frames);
  out.decode_us_per_frame = static_cast<double>(decode_us) / static_cast<double>(out.frames);
  return out;
}

double time_fit_replay(const FleetConfig& config, std::size_t train_rows) {
  if (train_rows == 0) return 0.0;
  Rng rng(config.seed);
  Dataset rows;
  while (rows.rows() < train_rows) {
    const Dataset device = sensed_device(config, config.duration_s, rng);
    if (rows.num_columns() == 0) {
      rows = device;
    } else {
      rows.append_rows(device);
    }
  }
  std::vector<std::size_t> keep(train_rows);
  for (std::size_t i = 0; i < train_rows; ++i) keep[i] = i;
  Dataset train = rows.select_rows(keep);
  std::vector<int> labels;
  labels.reserve(train.rows());
  for (std::size_t r = 0; r < train.rows(); ++r) {
    const double temp = truths()[0](train.column(0).numeric(r));
    labels.push_back(temp >= 20.0 && temp <= 28.0 ? 1 : 0);
  }
  train = train.select_columns({1, 2, 3});
  train.set_labels(std::move(labels));

  iotml::learners::DecisionTree tree;
  const std::int64_t t0 = iotml::obs::now_us();
  tree.fit(train);
  const std::int64_t t1 = iotml::obs::now_us();
  if (tree.node_count() == 0) throw std::runtime_error("fit replay: empty tree");
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace perfbench
