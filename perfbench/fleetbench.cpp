// Fleet benchmark program: runs the fleets of one named workload round
// after round for --seconds of wall time and prints its end-to-end metrics
// (--trace 0), or its per-layer metrics from traced rounds, stage timers,
// counters and direct layer calls (--trace 1). Every run is checked: rows
// conserved, each fleet's report digest identical across the invocation,
// the workload digest (over the fleets' digests) equal to --expect-digest
// when given, and on OTA workloads every device image verified. The last
// stdout line is one JSON object; perfbench/run.py attaches units and
// checks the names against BENCHMARK.json.
//
//   fleetbench --workload fleet_fit --seed 42 --seconds 30 --trace 0

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "digest.hpp"
#include "fold.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "sim/fleet.hpp"
#include "workloads.hpp"

namespace {

using iotml::sim::FleetConfig;
using iotml::sim::FleetReport;
using iotml::sim::FleetSim;

// Timed rounds run at least this often, however short --seconds is.
constexpr int kMinRounds = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--expect-digest") {
      a.expect_digest = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double seconds_since(std::int64_t start_us) {
  return static_cast<double>(iotml::obs::now_us() - start_us) / 1e6;
}

double stage_wall_s(const FleetReport& r, const std::string& stage) {
  std::uint64_t us = 0;
  for (const auto& s : r.stage_reports) {
    if (s.stage_name == stage) us += s.wall_time_us;
  }
  return static_cast<double>(us) / 1e6;
}

// High-water resident set of this process image. getrusage's ru_maxrss is
// not used: Linux carries it across execve, so it would report the
// launching interpreter's peak when that is larger.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// One checked run of one fleet.
struct Sample {
  double setup_s = 0.0;
  double run_s = 0.0;
  double acquisition_s = 0.0;  ///< stage wall timers of this run
  double fit_s = 0.0;
  double sketch_reduce_s = 0.0;
};

// Samples of each fleet of the workload, indexed by fleet.
using FleetSamples = std::vector<std::vector<Sample>>;

// Sum over the fleets of each fleet's smallest `field`: the work is
// deterministic, so the spread between runs of one fleet is interference
// from the host, which the minimum filters out best. 0 unless every fleet
// has a sample.
double sum_fastest(const FleetSamples& samples, double Sample::*field) {
  double sum = 0.0;
  for (const std::vector<Sample>& fleet : samples) {
    if (fleet.empty()) return 0.0;
    double best = fleet.front().*field;
    for (const Sample& s : fleet) best = std::min(best, s.*field);
    sum += best;
  }
  return sum;
}

class Bench {
 public:
  Bench(std::vector<FleetConfig> fleets, std::string pinned)
      : fleets_(std::move(fleets)),
        digests_(fleets_.size(), perfbench::DigestCheck("")),
        pinned_(std::move(pinned)) {}

  /// Set up, run and check fleet k once; nullopt when the run threw or
  /// failed its check. The three calls sit in bench.* spans, which record
  /// only while the trace collector is enabled.
  std::optional<Sample> run(std::size_t k, FleetReport* keep = nullptr) {
    ++attempted_;
    try {
      std::optional<FleetSim> sim;
      FleetReport report;
      std::string json;
      Sample s;
      const std::int64_t t0 = iotml::obs::now_us();
      {
        iotml::obs::Span span("bench.setup", "bench");
        sim.emplace(fleets_[k]);
      }
      const std::int64_t t1 = iotml::obs::now_us();
      {
        iotml::obs::Span span("bench.run", "bench");
        report = sim->run();
      }
      const std::int64_t t2 = iotml::obs::now_us();
      {
        iotml::obs::Span span("bench.report", "bench");
        json = report.to_json();
      }
      s.setup_s = static_cast<double>(t1 - t0) / 1e6;
      s.run_s = static_cast<double>(t2 - t1) / 1e6;
      if (!report.rows_conserved()) return fail("rows not conserved");
      if (!digests_[k].check(json)) {
        return fail("fleet " + std::to_string(k) + " report digest " +
                    perfbench::report_digest(json));
      }
      if (fleets_[k].ota.enabled && !report.deploy.ota.all_devices_verified) {
        return fail("OTA device images not verified");
      }
      s.acquisition_s = stage_wall_s(report, "acquisition");
      s.fit_s = stage_wall_s(report, "analytics(decision-tree)");
      s.sketch_reduce_s = stage_wall_s(report, "degrade(sketch-reduce)");
      if (keep != nullptr) *keep = std::move(report);
      return s;
    } catch (const std::exception& e) {
      return fail(std::string("threw: ") + e.what());
    }
  }

  /// Run every fleet once, adding each checked run to `samples`; false when
  /// a run failed. `keep`, when given, receives the fleets' reports.
  bool round(FleetSamples& samples, std::vector<FleetReport>* keep = nullptr) {
    samples.resize(fleets_.size());
    if (keep != nullptr) keep->resize(fleets_.size());
    bool ok = true;
    for (std::size_t k = 0; k < fleets_.size(); ++k) {
      const auto s = run(k, keep != nullptr ? &(*keep)[k] : nullptr);
      if (s) {
        samples[k].push_back(*s);
      } else {
        ok = false;
      }
    }
    return ok;
  }

  /// Check the workload digest against the pinned one, when one is given.
  void check_pinned() {
    if (!pinned_.empty() && digest() != pinned_) fail_check("workload digest " + digest());
  }

  /// Count a failed check that is not tied to one run.
  void fail_check(const std::string& why) {
    ++attempted_;
    fail(why);
  }

  std::size_t fleets() const noexcept { return fleets_.size(); }
  const FleetConfig& config(std::size_t k) const { return fleets_.at(k); }
  int attempted() const noexcept { return attempted_; }
  int failed() const noexcept { return failed_; }

  /// Workload digest: the digest of the fleets' first report digests, in
  /// fleet order.
  std::string digest() const {
    std::string all;
    for (const perfbench::DigestCheck& d : digests_) all += d.first();
    return perfbench::report_digest(all);
  }

 private:
  std::nullopt_t fail(const std::string& why) {
    ++failed_;
    std::printf("check failed: %s\n", why.c_str());
    return std::nullopt;
  }

  std::vector<FleetConfig> fleets_;
  std::vector<perfbench::DigestCheck> digests_;
  std::string pinned_;
  int attempted_ = 0;
  int failed_ = 0;
};

using Metrics = std::vector<std::pair<std::string, double>>;

void print_result(const Bench& bench, const Metrics& metrics) {
  std::string line = "{\"correct\": ";
  line += bench.failed() == 0 && bench.attempted() > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(bench.attempted());
  line += ", \"failed\": " + std::to_string(bench.failed());
  line += ", \"digest\": \"" + bench.digest() + "\", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value] = metrics[i];
    if (!perfbench::valid_metric_name(name)) {
      throw std::logic_error("metric name breaks the grammar: " + name);
    }
    if (!std::isfinite(value)) throw std::logic_error("metric is not finite: " + name);
    char num[32];
    std::snprintf(num, sizeof(num), "%.10g", value);
    line += (i == 0 ? "\"" : ", \"") + name + "\": " + num;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// Sample count, minimum, median and the highest percentile that has at
// least ten samples beyond it (when there are more than ten samples) of
// the summed `field` of each round in which every fleet ran.
void print_rounds(const char* name, const FleetSamples& samples, double Sample::*field) {
  std::vector<double> v;
  for (std::size_t r = 0; !samples.empty(); ++r) {
    double total = 0.0;
    bool whole = true;
    for (const std::vector<Sample>& fleet : samples) {
      if (r >= fleet.size()) {
        whole = false;
        break;
      }
      total += fleet[r].*field;
    }
    if (!whole) break;
    v.push_back(total);
  }
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  std::printf("%-8s rounds=%zu min=%.6f median=%.6f", name, n, v.front(), median);
  if (n > 10) {
    std::printf(" p%.0f=%.6f", 100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
                v[n - 11]);
  }
  std::printf("  sum of per-fleet minima=%.6f\n", sum_fastest(samples, field));
}

// Sum of `get` over the reports.
template <class Get>
double total(const std::vector<FleetReport>& reports, Get get) {
  double sum = 0.0;
  for (const FleetReport& r : reports) sum += static_cast<double>(get(r));
  return sum;
}

// End-to-end metrics from untraced rounds for `seconds` of wall time. Times
// are sums over the fleets of each fleet's fastest run.
Metrics end_to_end(Bench& bench, double seconds) {
  FleetSamples warmup;
  std::vector<FleetReport> first;
  const bool warm = bench.round(warmup, &first);  // checked, not timed
  FleetSamples timed;
  const std::int64_t start = iotml::obs::now_us();
  for (int rounds = 0; rounds < kMinRounds || seconds_since(start) < seconds; ++rounds) {
    bench.round(timed);
  }
  bench.check_pinned();
  print_rounds("run_s", timed, &Sample::run_s);
  print_rounds("setup_s", timed, &Sample::setup_s);

  const double run = sum_fastest(timed, &Sample::run_s);
  const bool ok = warm && run > 0.0;
  return {
      {"run_s", run},
      {"setup_s", sum_fastest(timed, &Sample::setup_s)},
      {"events_per_s", ok ? total(first, [](const FleetReport& r) { return r.events; }) / run
                          : 0.0},
      {"rows_per_s",
       ok ? total(first, [](const FleetReport& r) { return r.rows_generated; }) / run : 0.0},
      {"peak_rss_mb", peak_rss_kb() / 1024.0},
  };
}

// One traced round: every fleet once with the collector on, its spans and
// the program's counters.
struct TracedRound {
  double run_s = 0.0;
  std::vector<FleetReport> reports;
  std::vector<iotml::obs::TraceEvent> spans;
  double tree_fits = 0.0;
  double tree_splits = 0.0;
};

std::optional<TracedRound> traced_round(Bench& bench, FleetSamples& samples) {
  iotml::obs::TraceCollector& collector = iotml::obs::trace();
  iotml::obs::registry().reset();
  collector.clear();
  collector.set_enabled(true);
  TracedRound t;
  FleetSamples round;
  const bool ok = bench.round(round, &t.reports);
  collector.set_enabled(false);
  t.spans = collector.snapshot();
  collector.clear();
  samples.resize(round.size());
  for (std::size_t k = 0; k < round.size(); ++k) {
    for (const Sample& s : round[k]) {
      samples[k].push_back(s);
      t.run_s += s.run_s;
    }
  }
  if (!ok) return std::nullopt;
  iotml::obs::Registry& reg = iotml::obs::registry();
  t.tree_fits = static_cast<double>(reg.counter("learners.tree_fits").value());
  t.tree_splits = static_cast<double>(reg.counter("learners.tree_splits").value());
  return t;
}

// Per-layer metrics: the fastest of a few traced rounds folded into self
// time per span, the program's counters and ledgers summed over the fleets,
// stage wall timers of each fleet's fastest untraced run, and direct calls
// into the layers that have no span.
Metrics per_layer(Bench& bench, double seconds) {
  constexpr int kTracedRounds = 3;
  const std::int64_t start = iotml::obs::now_us();
  FleetSamples untraced;
  bench.round(untraced);  // warm-up, and the first untraced reference

  std::optional<TracedRound> best;
  FleetSamples traced;
  for (int i = 0; i < kTracedRounds; ++i) {
    std::optional<TracedRound> t = traced_round(bench, traced);
    if (t && (!best || t->run_s < best->run_s)) best = std::move(t);
  }
  for (int rounds = 0; rounds < 3 || seconds_since(start) < seconds; ++rounds) {
    bench.round(untraced);
  }
  bench.check_pinned();
  if (!best) {
    bench.fail_check("no traced round succeeded");
    best.emplace();
  }
  const std::vector<FleetReport>& reports = best->reports;
  const std::vector<iotml::obs::TraceEvent>& spans = best->spans;

  const std::map<std::string, perfbench::SelfTime> fold = perfbench::fold_self_times(spans);
  std::map<std::string, perfbench::SelfTime> by_stem;
  for (const auto& [name, t] : fold) {
    perfbench::SelfTime& s = by_stem[perfbench::metric_stem(name)];
    s.count += t.count;
    s.total_us += t.total_us;
    s.self_us += t.self_us;
  }
  std::printf("%-44s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [stem, t] : by_stem) {
    std::printf("%-44s %8llu %12.6f %12.6f\n", stem.c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_us) / 1e6, static_cast<double>(t.self_us) / 1e6);
  }
  auto self_s = [&](const std::string& stem) {
    const auto it = by_stem.find(stem);
    return it == by_stem.end() ? 0.0 : static_cast<double>(it->second.self_us) / 1e6;
  };
  auto count = [&](const std::string& stem) {
    const auto it = by_stem.find(stem);
    return it == by_stem.end() ? 0.0 : static_cast<double>(it->second.count);
  };

  // The fold must account for the bench.run spans exactly: their self time
  // plus every descendant's self time (sim.fleet_run's is
  // sim.run_uncovered_s).
  const auto run_it = fold.find("bench.run");
  if (run_it == fold.end()) {
    bench.fail_check("traced round produced no bench.run span");
  } else {
    const double whole = static_cast<double>(run_it->second.total_us);
    const double parts = static_cast<double>(perfbench::self_time_within(spans, "bench.run"));
    std::printf("fold: bench.run %.6f s, folded self times %.6f s\n", whole / 1e6, parts / 1e6);
    if (std::abs(parts - whole) > 0.01 * whole) {
      bench.fail_check("folded self times do not add up to bench.run");
    }
  }

  print_rounds("traced", traced, &Sample::run_s);
  print_rounds("untraced", untraced, &Sample::run_s);
  const double reference_s = sum_fastest(untraced, &Sample::run_s);
  const double overhead_pct =
      reference_s > 0.0 ? 100.0 * (sum_fastest(traced, &Sample::run_s) / reference_s - 1.0)
                        : 0.0;

  const perfbench::CodecTiming codec = perfbench::time_tdf_codec(bench.config(0));
  if (!codec.round_trip_ok) bench.fail_check("tdf round trip lost rows");
  double fit_replay_s = 0.0;
  double to_json_s = 0.0;
  for (std::size_t k = 0; k < reports.size(); ++k) {
    fit_replay_s += perfbench::time_fit_replay(bench.config(k), reports[k].train_rows);
    double fastest_render = 0.0;
    for (int i = 0; i < 15; ++i) {
      const std::int64_t t0 = iotml::obs::now_us();
      const std::string json = reports[k].to_json();
      const double s = seconds_since(t0);
      if (i == 0 || s < fastest_render) fastest_render = s;
      if (json.empty()) bench.fail_check("empty report rendering");
    }
    to_json_s += fastest_render;
  }

  using R = FleetReport;
  auto sum = [&](auto get) { return total(reports, get); };
  return {
      {"sim.events", sum([](const R& r) { return r.events; })},
      {"sim.event.device-flush.count", count("sim.event.device-flush")},
      {"sim.event.edge-flush.count", count("sim.event.edge-flush")},
      {"sim.event.arrival.count", count("sim.event.arrival")},
      {"sim.event.checkpoint.count", count("sim.event.checkpoint")},
      {"sim.event.summary-arrival.count", count("sim.event.summary-arrival")},
      {"sim.event.ota-chunk-arrival.count", count("sim.event.ota-chunk-arrival")},
      {"sim.event.ota-resume.count", count("sim.event.ota-resume")},
      {"sim.event.device-flush.self_s", self_s("sim.event.device-flush")},
      {"sim.event.edge-flush.self_s", self_s("sim.event.edge-flush")},
      {"sim.event.arrival.self_s", self_s("sim.event.arrival")},
      {"sim.run_uncovered_s", self_s("sim.fleet_run")},
      {"learners.fit_s", sum_fastest(untraced, &Sample::fit_s)},
      {"learners.fit_rows", sum([](const R& r) { return r.train_rows; })},
      {"learners.tree_fits", best->tree_fits},
      {"learners.tree_splits", best->tree_splits},
      {"learners.fit_replay_s", fit_replay_s},
      {"pipeline.acquisition_s", sum_fastest(untraced, &Sample::acquisition_s)},
      {"pipeline.run.self_s", self_s("pipeline.run")},
      {"pipeline.stage.clean-hampel.self_s", self_s("pipeline.stage.clean-hampel")},
      {"pipeline.stage.prepare-impute-linear.self_s",
       self_s("pipeline.stage.prepare-impute-linear")},
      {"pipeline.stage.prepare-normalize-zscore.self_s",
       self_s("pipeline.stage.prepare-normalize-zscore")},
      {"pipeline.stage.reduce-mi-top3.self_s", self_s("pipeline.stage.reduce-mi-top3")},
      {"net.channel.sends", sum([](const R& r) { return r.channels.sends; })},
      {"net.channel.retransmits", sum([](const R& r) { return r.channels.retransmits; })},
      {"net.channel.timeouts", sum([](const R& r) { return r.channels.timeouts; })},
      {"net.channel.dead_letters", sum([](const R& r) { return r.channels.dead_letters; })},
      {"net.channel.corrupt_rejected",
       sum([](const R& r) { return r.channels.corrupt_rejected; })},
      {"net.channel.delivered_ratio",
       ratio(sum([](const R& r) { return r.channels.delivered; }),
             sum([](const R& r) { return r.channels.sends; }))},
      {"tdf.frames_sent", sum([](const R& r) { return r.telemetry.frames_sent; })},
      {"tdf.bytes_encoded", sum([](const R& r) { return r.telemetry.encoded_wire_bytes; })},
      {"tdf.frames_rejected", sum([](const R& r) { return r.telemetry.frames_rejected; })},
      {"tdf.encode_us_per_frame", codec.encode_us_per_frame},
      {"tdf.decode_us_per_frame", codec.decode_us_per_frame},
      {"approx.sketch_reduce_s", sum_fastest(untraced, &Sample::sketch_reduce_s)},
      {"approx.rows_sampled_out",
       sum([](const R& r) { return r.degradation.rows_sampled_out; })},
      {"deploy.prepare.self_s", self_s("deploy.prepare")},
      {"deploy.compile.self_s", self_s("deploy.compile")},
      {"deploy.quantize.self_s", self_s("deploy.quantize")},
      {"deploy.rows_scored", sum([](const R& r) { return r.deploy.rows_scored; })},
      {"sim.event.ota-epoch.self_s", self_s("sim.event.ota-epoch")},
      {"sim.event.ota-chunk-arrival.self_s", self_s("sim.event.ota-chunk-arrival")},
      {"ota.chunks_sent", sum([](const R& r) { return r.deploy.ota.chunks_sent; })},
      {"ota.resume_rounds", sum([](const R& r) { return r.deploy.ota.resume_rounds; })},
      {"ota.full_fallbacks", sum([](const R& r) { return r.deploy.ota.full_fallbacks; })},
      {"ota.downlink_bytes",
       sum([](const R& r) { return r.deploy.ota.delta_downlink_bytes; })},
      {"ota.chunk_useful_ratio",
       ratio(sum([](const R& r) { return r.deploy.ota.chunks_delivered; }),
             sum([](const R& r) { return r.deploy.ota.chunks_sent; }))},
      {"obs.trace_overhead_pct", overhead_pct},
      {"obs.spans", static_cast<double>(spans.size())},
      {"report.to_json_s", to_json_s},
      {"failed_ratio", ratio(bench.failed(), bench.attempted())},
  };
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Bench bench(perfbench::make_workload(args.workload, args.seed), args.expect_digest);
    std::printf("fleetbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0);
    const Metrics metrics =
        args.trace ? per_layer(bench, args.seconds) : end_to_end(bench, args.seconds);
    std::printf("digest %s\n", bench.digest().c_str());
    print_result(bench, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 2;
  }
}
