#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace iotml::obs {

/// Deterministic fixed-bucket histogram for virtual-time quantities. Same
/// bucket semantics as obs::Histogram (bucket i counts values in
/// (bounds[i-1], bounds[i]], implicit overflow bucket, interpolated
/// quantiles clamped to the observed [min, max]) but with plain counters:
/// recording is not thread-safe, summaries are byte-deterministic per seed,
/// and the whole object is copyable so reports can embed it by value.
/// Replaces unbounded per-sample vectors for per-tier latency — memory is
/// O(buckets) no matter how many samples land.
class LogHistogram {
 public:
  /// Default bounds for virtual-second latencies: 1ms doubling up to ~9min.
  LogHistogram();

  /// Throws InvalidArgument unless `upper_bounds` is non-empty and strictly
  /// increasing.
  explicit LogHistogram(std::vector<double> upper_bounds);

  /// `count` log-spaced bounds starting at 1ms, doubling: 0.001, 0.002, ...
  static std::vector<double> default_latency_bounds_s();

  void record(double value) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return count_ == 0 ? 0.0 : sum_; }
  double mean() const noexcept;
  double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  /// Interpolated q-quantile, q in [0, 1] — throws InvalidArgument
  /// otherwise. Returns 0 when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }

  /// Per-bucket counts; last entry is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const noexcept { return buckets_; }

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One virtual-clock observation.
struct Sample {
  double t_s = 0.0;
  double value = 0.0;
};

/// Bounded ring of virtual-time samples. Once `capacity` samples have been
/// recorded the oldest is overwritten, so a sampler left on for the whole
/// run costs fixed memory. `total()` keeps counting past the cap so readers
/// can tell how much history was shed. Recording takes a mutex (samplers are
/// shared across sim threads in tests); the sim's single-threaded hot path
/// pays an uncontended lock.
class Sampler {
 public:
  explicit Sampler(std::size_t capacity);

  void record(double t_s, double value);

  std::uint64_t total() const;            ///< samples ever recorded
  std::vector<Sample> samples() const;    ///< oldest -> newest, size <= capacity

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<Sample> ring_;
  std::size_t next_ = 0;       // overwrite position once full
  std::uint64_t total_ = 0;
};

/// Series identity: what is measured, on which entity, at which tier.
struct SeriesKey {
  std::string metric;
  std::string entity;
  std::string tier;

  bool operator<(const SeriesKey& o) const noexcept {
    if (metric != o.metric) return metric < o.metric;
    if (entity != o.entity) return entity < o.entity;
    return tier < o.tier;
  }
  bool operator==(const SeriesKey& o) const noexcept {
    return metric == o.metric && entity == o.entity && tier == o.tier;
  }
};

/// Keyed collection of bounded samplers. Like obs::Registry, series are
/// created on first use and references stay valid for the store's lifetime,
/// so hot paths can cache the Sampler&. Keys live in a std::map so JSON
/// emission iterates in sorted order and output is byte-deterministic.
class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(std::size_t capacity_per_series = 512);

  Sampler& series(std::string_view metric, std::string_view entity,
                  std::string_view tier);

  std::size_t series_count() const;
  std::uint64_t samples_total() const;

  /// {"capacity": N, "series": [{metric, entity, tier, total, samples: [[t, v], ...]}]}
  /// sorted by (metric, entity, tier); samples oldest -> newest.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::map<SeriesKey, std::unique_ptr<Sampler>> series_;
};

}  // namespace iotml::obs
