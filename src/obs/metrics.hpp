#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace iotml::obs {

/// Monotonically increasing event count. Recording is a relaxed atomic add —
/// safe to call from any thread, cheap enough for per-operation accounting.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (queue depths, cache sizes, config knobs).
class Gauge {
 public:
  void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// The interpolated q-quantile shared by Histogram and LogHistogram: find
/// the bucket holding rank q * (total count), interpolate linearly inside it
/// and clamp to the observed [lo, hi]. `counts` has one more entry than
/// `bounds` (the overflow bucket). Returns 0 when every bucket is empty.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double lo, double hi,
                       double q);

/// Fixed-bucket histogram with lock-free recording and interpolated
/// percentiles. Bucket i counts values in (bounds[i-1], bounds[i]]; one
/// implicit overflow bucket catches values above the last bound, so no
/// sample is ever dropped. Percentiles interpolate linearly inside the
/// winning bucket and are clamped to the observed [min, max], which makes
/// point masses exact regardless of bucket width.
class Histogram {
 public:
  /// Throws InvalidArgument unless `upper_bounds` is non-empty and strictly
  /// increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  /// `count` log-spaced bounds: start, start*factor, start*factor^2, ...
  /// Throws InvalidArgument unless start > 0, factor > 1 and count >= 1.
  static std::vector<double> exponential_bounds(double start, double factor, std::size_t count);

  /// Default bounds for microsecond-scale latencies: 1us doubling up to ~9min.
  static std::vector<double> default_time_bounds_us();

  void record(double value) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;   ///< 0 when empty
  double mean() const noexcept;  ///< 0 when empty
  double min() const noexcept;   ///< 0 when empty
  double max() const noexcept;   ///< 0 when empty

  /// Interpolated q-quantile, q in [0, 1] — throws InvalidArgument
  /// otherwise. Returns 0 when the histogram is empty.
  double percentile(double q) const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }

  /// Per-bucket counts; last entry is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Named instruments, created on first use and stable for the registry's
/// lifetime — references returned by counter()/gauge()/histogram() never
/// dangle, so hot paths can cache them. Creation takes a mutex; recording on
/// the returned instruments is lock-free.
///
/// A name identifies exactly one instrument of exactly one kind: asking for
/// a counter under a name already registered as a gauge or histogram (or
/// vice versa) is an IOTML_CHECK failure, never a silent alias.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  /// Get-or-create with the default microsecond bounds. Looking up an
  /// existing histogram never checks bounds — use this form on read paths.
  Histogram& histogram(const std::string& name);

  /// The first call for a name fixes its bucket bounds; a later call whose
  /// explicit `upper_bounds` differ from the registered ones is an
  /// IOTML_CHECK failure (two call sites disagreeing about a histogram's
  /// shape is aliasing, not sharing).
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds);

  /// Snapshot of every instrument as JSON (names sorted, machine-readable;
  /// the IOTML_METRICS sink writes exactly this).
  std::string to_json() const;
  void write_json(std::ostream& out) const;

  /// As write_json, but only instruments whose name `keep` accepts. The
  /// bench reports embed a registry snapshot in their JSON artifacts and use
  /// this to drop wall-clock instruments in deterministic mode.
  void write_json(std::ostream& out,
                  const std::function<bool(const std::string&)>& keep) const;

  /// Zero every instrument. Registration (and outstanding references)
  /// survive — intended for tests and phase-by-phase bench readings.
  void reset();

  /// Drop every instrument and registration. Outstanding references dangle,
  /// so this is for test fixtures that want a pristine registry between
  /// cases — never call it while other code holds cached instruments.
  void clear();

 private:
  void check_kind(const std::string& name, const char* kind) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace iotml::obs
