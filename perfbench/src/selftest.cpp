// Checks of the benchmark's own arithmetic, on hand-computed inputs:
// percentiles and the ten-samples-beyond rule, median and quartiles (as
// Python's statistics module computes them), self time of nested spans
// and its reconciliation with the traced wall time, and open-loop
// lateness. run.py runs it after every build and stops on a failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;
int checks = 0;

void expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

void percentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);
  }
  expect_near(perfbench::percentile(hundred, 50), 50, "p50 of 1..100");
  expect_near(perfbench::percentile(hundred, 90), 90, "p90 of 1..100");
  expect_near(perfbench::percentile(hundred, 99), 99, "p99 of 1..100");
  expect_near(perfbench::percentile(hundred, 100), 100, "p100 of 1..100");
  expect_near(perfbench::percentile({5, 1, 3}, 50), 3, "p50 of {5,1,3}");

  expect(perfbench::samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  expect(perfbench::samples_beyond(999, 99) == 9, "999 samples: 9 beyond p99");
  expect(perfbench::tail_block(90) == 100, "p90 needs 100 samples");
  expect(perfbench::tail_block(99) == 1000, "p99 needs 1000 samples");
  expect(perfbench::tail_block(99.9) == 10000, "p99.9 needs 10000 samples");

  // Three blocks of 100 (the trailing 50 values are left out): block
  // p90s are 90, 190 and 1000 (one burst), and their median is 190.
  std::vector<double> samples;
  for (int i = 1; i <= 350; ++i) {
    samples.push_back(i);
  }
  for (int i = 200; i < 300; i += 5) {
    samples[static_cast<std::size_t>(i)] = 1000;
  }
  expect_near(perfbench::block_percentile(samples, 90, 100), 190,
              "median of block p90s ignores one burst");
}

void medians_and_quartiles() {
  expect_near(perfbench::median({3, 1, 2}), 2, "median of odd count");
  expect_near(perfbench::median({4, 1, 3, 2}), 2.5, "median of even count");
  // Reference values from Python's statistics.quantiles(values, n=4).
  auto [q1, q3] = perfbench::quartiles({1, 2});
  expect_near(q1, 0.75, "Q1 of {1,2}");
  expect_near(q3, 2.25, "Q3 of {1,2}");
  std::tie(q1, q3) = perfbench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q1, 2.75, "Q1 of 1..10");
  expect_near(q3, 8.25, "Q3 of 1..10");
  std::tie(q1, q3) = perfbench::quartiles({7.5, 1.25, 3.0, 9.0, 4.5});
  expect_near(q1, 2.125, "Q1 of five values");
  expect_near(q3, 8.25, "Q3 of five values");
  expect_near(perfbench::spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0,
              "spread of 1..10");
}

perfbench::Span span(const char* name, const char* layer, std::uint64_t start,
                     std::uint64_t end, std::uint32_t parent) {
  perfbench::Span s;
  s.name = name;
  s.layer = layer;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void self_time() {
  // root [0,100] has children [10,30] and [20,50], which overlap, and
  // [90,120], which outlives it; [10,30] has a child [15,20].
  const perfbench::Spans spans = {
      span("root", "bench", 0, 100, perfbench::kNoParent),
      span("a", "db.api", 10, 30, 0),
      span("b", "db.api", 20, 50, 0),
      span("c", "audit.engine", 90, 120, 0),
      span("d", "db.run_op_log", 15, 20, 1),
  };
  const auto self = perfbench::self_times(spans);
  expect(self[0] == 50, "root self time counts overlapping children once");
  expect(self[1] == 15, "child self time excludes its own child");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 5, "leaf self time is its duration");
  const auto layers = perfbench::layer_self_times(spans);
  expect(layers.at("db.api") == 45 && layers.at("bench") == 50, "self time summed per layer");

  // Nested spans that stay inside the root reconcile with its wall time.
  const perfbench::Spans nested = {
      span("root", "bench", 0, 100, perfbench::kNoParent),
      span("call", "db.api", 0, 60, 0),
      span("record", "db.run_op_log", 10, 20, 1),
  };
  perfbench::Report report;
  report.layer_shares(nested, 0);
  expect_near(report.value("db.api.self_share"), 0.5, "db.api share");
  expect_near(report.value("db.run_op_log.self_share"), 0.1, "db.run_op_log share");
  expect_near(report.value("bench.unaccounted_share"), 0.4, "unaccounted share");
  expect(report.correct(), "shares reconcile with the root's wall time");
}

void lateness() {
  std::uint64_t clock = 100;
  perfbench::Pacer pacer([&clock]() { return clock += 7; });
  // First reading is 107: the request due at 150 is early, so the pacer
  // spins until 156 and starts 6 late.
  expect(pacer.wait_until(150) == 6, "early request starts at the first tick past due");
  expect(pacer.idle_ns() == 49, "spin from 107 to 156 is idle time");
  // The clock now reads 163: a request due at 120 is 43 late, no idling.
  expect(pacer.wait_until(120) == 43, "late request reports its lateness");
  expect(pacer.idle_ns() == 49, "a late request adds no idle time");
}

}  // namespace

int main() {
  percentiles();
  medians_and_quartiles();
  self_time();
  lateness();
  std::fprintf(stderr, "selftest: %d of %d checks passed\n", checks - failures, checks);
  return failures == 0 ? 0 : 1;
}
