// Shared plumbing of the benchmark: run options, the metric names it
// emits, and the report that collects metrics and failures.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the Chrome trace is written to (inside the checkout).
  std::string out_dir = ".";
  /// Worker threads for the audit and replay layers (nproc).
  std::size_t threads = 1;
};

struct MetricName {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports each of them on an untraced
/// run. What "op" and "second op" time on each workload is listed in
/// README.md. The tail of op is printed with them but not listed here: on
/// a shared host its run-to-run spread exceeds any usable bound.
inline constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_ms.p50", "ms"},
    {"second_op_ms.p50", "ms"},
};

/// Per-layer metrics of the traced run. A workload that does not reach a
/// layer reports 0 for that layer's metrics.
inline constexpr MetricName kPerLayer[] = {
    {"db.api.alloc_rec_ns.p50", "ns"},
    {"db.api.alloc_rec_ns.p99", "ns"},
    {"db.api.free_rec_ns.p50", "ns"},
    {"db.api.free_rec_ns.p99", "ns"},
    {"db.api.move_rec_ns.p50", "ns"},
    {"db.api.move_rec_ns.p99", "ns"},
    {"db.api.write_fld_ns.p50", "ns"},
    {"db.api.write_fld_ns.p99", "ns"},
    {"db.api.read_rec_ns.p50", "ns"},
    {"db.api.read_rec_ns.p99", "ns"},
    {"db.api.self_share", "ratio"},
    {"db.index.hits_per_op", "1/op"},
    {"db.index.resyncs_per_op", "1/op"},
    {"db.index.rebuilds_per_op", "1/op"},
    {"db.dirty_chunk_stamps_per_op", "1/op"},
    {"db.run_op_log.record_ns.p50", "ns"},
    {"db.run_op_log.encode_mb_per_s", "MB/s"},
    {"db.run_op_log.decode_mb_per_s", "MB/s"},
    {"db.run_op_log.bytes_per_event", "B"},
    {"db.run_op_log.self_share", "ratio"},
    {"audit.engine.check_static_ms", "ms"},
    {"audit.engine.check_structure_ms", "ms"},
    {"audit.engine.check_ranges_ms", "ms"},
    {"audit.engine.check_semantics_ms", "ms"},
    {"audit.engine.check_selective_ms", "ms"},
    {"audit.engine.booked_us_per_cycle", "us"},
    {"audit.engine.makespan_us", "us"},
    {"audit.engine.modelled_over_measured", "ratio"},
    {"audit.engine.parallel_efficiency", "ratio"},
    {"audit.engine.findings", "count"},
    {"audit.engine.self_share", "ratio"},
    {"common.crc32_mb_per_s", "MB/s"},
    {"audit.replay.run_ms", "ms"},
    {"audit.replay.duplicate_ratio", "ratio"},
    {"audit.replay.unique_chains", "count"},
    {"audit.replay.executed_ops", "count"},
    {"audit.replay.parallel_efficiency", "ratio"},
    {"audit.replay.modelled_over_measured", "ratio"},
    {"audit.replay.self_share", "ratio"},
    {"experiments.replay_workload.apply_ns_per_op", "ns"},
    {"experiments.replay_workload.divergences", "count"},
    {"experiments.replay_workload.self_share", "ratio"},
    {"experiments.audit_runner.run_ms", "ms"},
    {"experiments.audit_runner.self_share", "ratio"},
    {"experiments.pecos_runner.run_ms", "ms"},
    {"experiments.pecos_runner.self_share", "ratio"},
    {"sim.sched.events_per_wall_s", "1/s"},
    {"sim.reliable.retries", "1/run"},
    {"pecos.checks_per_run", "1/run"},
    {"pecos.cf_log.overflow_slices", "1/run"},
    {"audit.cf_attest.transitions_attested", "1/run"},
    {"manager.heal_replayed_ops", "1/run"},
    {"bench.generator_late_ms.p99", "ms"},
    {"bench.idle.self_share", "ratio"},
    {"bench.harness.self_share", "ratio"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.unaccounted_share", "ratio"},
};

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Collects one run's metrics, operation counts and failures, and prints
/// them: a human-readable line per metric, then the one-line JSON result.
class Report {
 public:
  /// Records a metric the result line may carry (and prints it).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  /// Prints a named figure that is reported for reading only.
  void note(const std::string& name, double value, const std::string& unit,
            std::size_t samples = 0) const;
  /// Counts one attempted operation; `ok == false` counts it failed and
  /// keeps `what` (the first few) for the closing message.
  void check(bool ok, const std::string& what, std::uint64_t operations = 1);
  void add_attempted(std::uint64_t operations) { attempted_ += operations; }

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
  [[nodiscard]] double value(std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;

  /// Per-layer self shares of a traced phase whose root span is
  /// `root_index`, plus the unaccounted share; fails the run if they do not
  /// add up to the root's wall time.
  void layer_shares(const Spans& spans, std::uint32_t root_index);

  /// Prints the failures and the JSON result line carrying `names`; a
  /// per-layer name the workload did not measure reads 0.
  void emit(const MetricName* names, std::size_t count, bool fill_zero) const;

 private:
  std::vector<MetricValue> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Process CPU time, ns.
[[nodiscard]] std::uint64_t cpu_ns();

/// The host's current speed, from a fixed piece of work that calls nothing
/// in the program (integer hashing, dependent reads over a 256 KiB table,
/// a binary heap of 64-bit keys and allocator churn: the kinds of work the
/// controller's hot paths do), run between a workload's operations. The cores are shared
/// with other guests, and their speed changes by up to 1.5x within seconds
/// and between minutes. A time multiplied by a factor() reads as on a host
/// where the calibration takes kReferenceNs: a change to the program moves
/// it, a change of the host's speed mostly does not.
class HostSpeed {
 public:
  static constexpr double kReferenceNs = 1e6;

  /// Runs the calibration once and keeps its wall and CPU time.
  void sample();
  /// kReferenceNs over the median calibration time.
  [[nodiscard]] double wall_factor() const;
  [[nodiscard]] double cpu_factor() const;
  [[nodiscard]] std::size_t samples() const noexcept { return wall_ns_.size(); }
  /// Prints the median calibration times, prefixed by `what`.
  void print(const Report& report, const std::string& what) const;

 private:
  std::vector<double> wall_ns_;
  std::vector<double> cpu_ns_;
};

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
