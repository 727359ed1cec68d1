// The three workloads. Each one sets itself up (several times, reporting
// the median as setup_s), measures for the requested seconds, checks its
// outputs and fills the report. README.md gives the reasons for each.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/run_op_log.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {}
namespace wtc::experiments {}

namespace perfbench {

namespace audit = wtc::audit;
namespace db = wtc::db;
namespace experiments = wtc::experiments;
namespace obs = wtc::obs;
namespace sim = wtc::sim;

void run_call_setup(const Options& options, Report& report);
void run_oplog_replay(const Options& options, Report& report);
void run_fault_campaign(const Options& options, Report& report);

/// Seeded input generator (splitmix64). The benchmark owns it so the
/// inputs for a seed do not change when the program's own RNG does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// The controller schema in Table-5 proportions (Process : Connection :
/// Resource : SystemConfig : Subscriber = 4 : 4 : 5 : 2 : 4) at `unit`
/// records per part: 1024 gives a 0.79 MB region, 10240 an 8.1 MB one.
db::ControllerSchemaParams table5_schema(db::RecordIndex unit);

/// The program's index and dirty-stamp counters per API operation.
void report_index_counters(Report& report, const obs::MetricsSnapshot& snapshot,
                           std::uint64_t operations);

/// Per-layer audit metrics on a clean, quiescent region: each check of a
/// full pass timed on its own, full passes at one thread against `threads`
/// threads (measured speedup next to the engine's modelled one), and CRC32
/// throughput over the static spans. Any finding fails the run.
void measure_audit_layers(Report& report, db::Database& database, std::size_t threads);

/// Median of `repeats` timed calls of `setup` (wall seconds); `speed` is
/// sampled before each call, untimed. The last call's result is what the
/// workload then runs on.
double median_setup_seconds(int repeats, HostSpeed& speed, const std::function<void()>& setup);

/// The tail of a sample (in the order taken), in ms: the sample is cut
/// into consecutive blocks of at least `min_block` samples and at least
/// enough for ten beyond the p-th percentile, and the median of the
/// blocks' percentiles is reported, so one burst of host interference
/// moves it little. Fails the run if there is no whole block.
double block_tail_ms(Report& report, const std::vector<double>& ns, double p,
                     const char* what, std::size_t min_block = 0);

/// Per-layer self shares of the traced phase under `root` (the run fails
/// if they do not add up to its wall time), and the Chrome trace written
/// to <out>/trace_<workload>.json.
void finish_trace(Report& report, const Options& options, const Tracer& tracer,
                  std::uint32_t root);

}  // namespace perfbench
