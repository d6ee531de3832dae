#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace iotml::obs {

namespace {

// C++20 has std::atomic<double>::fetch_add, but CAS loops keep the intent
// explicit and work for min/max too.
void atomic_add(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1), min_(kInf), max_(-kInf) {
  IOTML_CHECK(!bounds_.empty(), "Histogram: need at least one bucket bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    IOTML_CHECK(bounds_[i - 1] < bounds_[i], "Histogram: bounds must be strictly increasing");
  }
}

std::vector<double> Histogram::exponential_bounds(double start, double factor, std::size_t count) {
  IOTML_CHECK(start > 0.0, "Histogram::exponential_bounds: start must be positive");
  IOTML_CHECK(factor > 1.0, "Histogram::exponential_bounds: factor must exceed 1");
  IOTML_CHECK(count >= 1, "Histogram::exponential_bounds: need at least one bound");
  std::vector<double> bounds;
  bounds.reserve(count);
  double edge = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

std::vector<double> Histogram::default_time_bounds_us() {
  return exponential_bounds(1.0, 2.0, 30);  // 1us .. 2^29us ~ 9min
}

void Histogram::record(double value) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept {
  return count() == 0 ? 0.0 : sum_.load(std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum_.load(std::memory_order_relaxed) / static_cast<double>(n);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& counts, double lo, double hi,
                       double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target) {
      const double lower = i == 0 ? lo : std::max(lo, bounds[i - 1]);
      const double upper = i < bounds.size() ? std::min(hi, bounds[i]) : hi;
      const double frac =
          std::clamp((target - cum) / static_cast<double>(counts[i]), 0.0, 1.0);
      return std::clamp(lower + (upper - lower) * frac, lo, hi);
    }
    cum = next;
  }
  return hi;
}

double Histogram::percentile(double q) const {
  IOTML_CHECK(q >= 0.0 && q <= 1.0, "Histogram::percentile: q outside [0, 1]");
  return bucket_quantile(bounds_, bucket_counts(), min(), max(), q);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
}

void Registry::check_kind(const std::string& name, const char* kind) const {
  const bool as_counter = counters_.count(name) != 0;
  const bool as_gauge = gauges_.count(name) != 0;
  const bool as_histogram = histograms_.count(name) != 0;
  IOTML_CHECK(!as_counter || kind == std::string("counter"),
              "Registry: metric '" + name + "' already registered as a counter");
  IOTML_CHECK(!as_gauge || kind == std::string("gauge"),
              "Registry: metric '" + name + "' already registered as a gauge");
  IOTML_CHECK(!as_histogram || kind == std::string("histogram"),
              "Registry: metric '" + name + "' already registered as a histogram");
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_kind(name, "counter");
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_kind(name, "gauge");
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_kind(name, "histogram");
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(Histogram::default_time_bounds_us());
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_kind(name, "histogram");
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  } else {
    IOTML_CHECK(slot->bounds() == upper_bounds,
                "Registry: histogram '" + name + "' already registered with different bounds");
  }
  return *slot;
}

std::string Registry::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void Registry::write_json(std::ostream& out) const {
  write_json(out, [](const std::string&) { return true; });
}

void Registry::write_json(std::ostream& out,
                          const std::function<bool(const std::string&)>& keep) const {
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!keep(name)) continue;
    out << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": " << counter->value();
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!keep(name)) continue;
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": " << json_number(gauge->value());
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!keep(name)) continue;
    out << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": {"
        << "\"count\": " << hist->count() << ", \"sum\": " << json_number(hist->sum())
        << ", \"mean\": " << json_number(hist->mean())
        << ", \"min\": " << json_number(hist->min()) << ", \"max\": " << json_number(hist->max())
        << ", \"p50\": " << json_number(hist->percentile(0.50))
        << ", \"p95\": " << json_number(hist->percentile(0.95))
        << ", \"p99\": " << json_number(hist->percentile(0.99)) << ", \"buckets\": [";
    const std::vector<std::uint64_t> counts = hist->bucket_counts();
    const std::vector<double>& bounds = hist->bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out << ", ";
      out << "{\"le\": ";
      if (i < bounds.size()) {
        out << json_number(bounds[i]);
      } else {
        out << "\"+inf\"";
      }
      out << ", \"count\": " << counts[i] << "}";
    }
    out << "]}";
    first = false;
  }
  out << "\n  }\n}\n";
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) counter->reset();
  for (const auto& [name, gauge] : gauges_) gauge->reset();
  for (const auto& [name, hist] : histograms_) hist->reset();
}

void Registry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace iotml::obs
