// Self-test of the benchmark's own analysis code: the self-time fold on a
// hand-built span tree, the report digest check, and the span-to-metric
// name mapping. Exits 0 when every check holds.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "digest.hpp"
#include "fold.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what);
  }
}

iotml::obs::TraceEvent span(const char* name, std::int64_t ts, std::int64_t dur,
                            std::uint32_t depth, std::uint32_t tid = 1) {
  iotml::obs::TraceEvent e;
  e.name = name;
  e.ts_us = ts;
  e.dur_us = dur;
  e.depth = depth;
  e.tid = tid;
  return e;
}

// run [0,100) holds a [10,40) and c [50,90); a holds b [15,25) and c holds
// a second b [60,65). Completion order, as the collector records it.
std::vector<iotml::obs::TraceEvent> hand_built_tree() {
  return {
      span("b", 15, 10, 2), span("a", 10, 30, 1), span("b", 60, 5, 2),
      span("c", 50, 40, 1), span("run", 0, 100, 0),
  };
}

void test_fold() {
  const auto fold = perfbench::fold_self_times(hand_built_tree());
  expect(fold.at("run").self_us == 30, "run self = 100 - 30 - 40");
  expect(fold.at("a").self_us == 20, "a self = 30 - 10");
  expect(fold.at("c").self_us == 35, "c self = 40 - 5");
  expect(fold.at("b").self_us == 15 && fold.at("b").count == 2, "b folds both spans");
  expect(fold.at("b").total_us == 15, "b total");
  expect(perfbench::self_time_within(hand_built_tree(), "run") == 100,
         "self times add up to the root");

  // A second run [200,260) with one child; both roots are summed.
  std::vector<iotml::obs::TraceEvent> two_runs = hand_built_tree();
  two_runs.push_back(span("a", 210, 20, 1));
  two_runs.push_back(span("run", 200, 60, 0));
  expect(perfbench::self_time_within(two_runs, "run") == 160, "every root is summed");
}

void test_fold_threads() {
  // Two threads interleave completions; each keeps its own child sums.
  const std::vector<iotml::obs::TraceEvent> spans = {
      span("x", 5, 10, 1, 1), span("y", 5, 20, 1, 2), span("p", 0, 50, 0, 1),
      span("q", 0, 30, 0, 2),
  };
  const auto fold = perfbench::fold_self_times(spans);
  expect(fold.at("p").self_us == 40, "thread 1 parent");
  expect(fold.at("q").self_us == 10, "thread 2 parent");
  expect(perfbench::self_time_within(spans, "q") == 30, "subtree of thread 2 only");
}

void test_digest() {
  const std::string report = "{\"devices\": 100, \"rows_generated\": 7621}";
  perfbench::DigestCheck pinned(perfbench::report_digest(report));
  expect(pinned.check(report), "identical report passes");
  for (std::size_t i = 0; i < report.size(); ++i) {
    std::string changed = report;
    changed[i] = static_cast<char>(changed[i] ^ 0x01);
    perfbench::DigestCheck fresh(perfbench::report_digest(report));
    expect(!fresh.check(changed), "one-byte change trips the pinned digest");
  }
  perfbench::DigestCheck unpinned("");
  expect(unpinned.check(report), "first report sets the reference");
  std::string changed = report;
  changed.back() = ']';
  expect(!unpinned.check(changed), "one-byte change trips the cross-run check");
  expect(unpinned.first() == perfbench::report_digest(report), "reference is the first");
  expect(perfbench::report_digest(report).size() == 16, "16 hex digits");
}

void test_names() {
  expect(perfbench::metric_stem("stage:clean(hampel)") == "pipeline.stage.clean-hampel",
         "stage span");
  expect(perfbench::metric_stem("stage:reduce(mi-top3)") == "pipeline.stage.reduce-mi-top3",
         "stage span with a dash");
  expect(perfbench::metric_stem("sim.event:device-flush") == "sim.event.device-flush",
         "event span");
  expect(perfbench::metric_stem("sim.deploy_prepare") == "deploy.prepare", "renamed span");
  expect(perfbench::metric_stem("pipeline.run") == "pipeline.run", "plain span");
  expect(perfbench::metric_stem("a  b//c") == "a-b-c", "runs of bad characters collapse");
  expect(perfbench::valid_metric_name("sim.event.ota-epoch.self_s"), "valid name");
  expect(!perfbench::valid_metric_name(""), "empty name");
  expect(!perfbench::valid_metric_name("-x"), "leading dash");
  expect(!perfbench::valid_metric_name("stage:clean(hampel)"), "raw span name");
  expect(!perfbench::valid_metric_name(std::string(65, 'a')), "too long");
}

}  // namespace

int main() {
  test_fold();
  test_fold_threads();
  test_digest();
  test_names();
  std::printf("perfbench_selftest: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
