// Observability core: a registry of named counters, gauges, and
// histograms with **constexpr enum handles** — instrument sites index a
// flat array, so the hot path does no hashing, no string comparison, and
// no allocation. When no recorder is installed (the default) every
// instrument call is a thread-local load plus a predicted-not-taken
// branch, and the process's observable output is byte-identical to an
// uninstrumented build.
//
// Model:
//   * `Recorder` owns one run's metric arrays and trace buffer. A
//     campaign worker installs it as the CURRENT THREAD's recorder
//     (ScopedRecorder) for the duration of one simulation run, mirroring
//     how common::ScopedLogSink routes log lines.
//   * Free functions `count` / `gauge_max` / `observe` / `trace_*`
//     forward to the installed recorder, or do nothing.
//   * `MetricsSnapshot` is the plain-data result of a run. Snapshots
//     merge by element-wise accumulation — integer adds and maxes only,
//     so the merged result is identical for any merge order; the
//     campaign runner nevertheless merges in seed order to honor the
//     DESIGN.md §9 determinism contract verbatim.
//
// See capture.hpp for the campaign-level aggregation and file emission.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace wtc::obs {

/// Monotone event counters. One per load-bearing occurrence across the
/// simulator, database, audit, PECOS, and manager layers.
enum class Counter : std::uint16_t {
  sched_events_fired,
  sched_events_cancelled,
  sched_tombstones_purged,
  ipc_sent,
  ipc_delivered,
  ipc_dropped,
  ipc_duplicated,
  ipc_dead_letters,
  reliable_sent,
  reliable_acked,
  reliable_retries,
  reliable_abandoned,
  reliable_accepted,
  reliable_duplicates_dropped,
  reliable_malformed,
  db_reads,
  db_writes,
  db_lock_acquires,
  db_lock_conflicts,
  db_dirty_chunk_stamps,
  db_scrubs,
  db_reloads,
  db_images_rejected,
  db_index_hits,
  db_index_splices,
  db_index_resyncs,
  db_index_rebuilds,
  audit_checks,
  audit_findings,
  audit_passes,
  audit_incremental_cycles,
  audit_full_sweeps,
  audit_table_reload_escalations,
  audit_full_reload_escalations,
  audit_element_reenabled,
  audit_cf_slices,
  audit_cf_transitions_attested,
  audit_cf_violations,
  pecos_checks,
  pecos_violations,
  pecos_preemptive_detections,
  pecos_cf_transitions_logged,
  pecos_cf_log_overflow_slices,
  manager_heartbeats_sent,
  manager_heartbeat_replies,
  manager_restarts,
  manager_takeovers,
  manager_demotions,
  manager_heals,
  manager_heal_replayed_ops,
  manager_heal_escalations,
  audit_parallel_tasks,
  audit_budget_exhausted,
  audit_cycles_deferred,
  db_shard_routed,
  db_cross_shard_links,
  oplog_recorded,
  oplog_bytes,
  replay_chains,
  replay_deduped,
  replay_exec_ops,
  replay_mismatches,
  kCount,
};

/// High-water gauges (merge = max). Few on purpose: most run state worth
/// reporting is either a counter or a histogram.
enum class Gauge : std::uint16_t {
  sched_max_pending_events,
  db_write_generation,
  reliable_max_in_flight,
  cf_log_max_depth,
  /// Routing skew across database shards: max(per-shard routed ops) /
  /// mean(per-shard routed ops), in milli (1000 = perfectly balanced).
  db_shard_imbalance,
  kCount,
};

/// Value-distribution histograms over unsigned quantities (µs costs).
enum class Histogram : std::uint16_t {
  audit_check_cost_us,
  audit_pass_cost_us,
  cf_detection_latency_us,
  audit_cycle_latency_us,
  kCount,
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(Histogram::kCount);

/// Registry names (stable, dotted, one per handle). Indexed by enum value.
[[nodiscard]] std::string_view counter_name(Counter c) noexcept;
[[nodiscard]] std::string_view gauge_name(Gauge g) noexcept;
[[nodiscard]] std::string_view histogram_name(Histogram h) noexcept;

/// Cold-path reverse lookups (tests, tools); linear scan over the
/// registry.
[[nodiscard]] std::optional<Counter> find_counter(std::string_view name) noexcept;
[[nodiscard]] std::optional<Gauge> find_gauge(std::string_view name) noexcept;
[[nodiscard]] std::optional<Histogram> find_histogram(std::string_view name) noexcept;

/// Power-of-two bucketed distribution: bucket i counts values whose
/// bit_width is i (bucket 0 = value 0, bucket 1 = 1, bucket 2 = 2-3, ...).
/// Element-wise merge keeps sum/count/min/max exact and order-independent.
struct HistogramData {
  std::array<std::uint64_t, 64> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void add(std::uint64_t value) noexcept {
    ++buckets[static_cast<std::size_t>(std::bit_width(value))];
    if (count == 0 || value < min) {
      min = value;
    }
    if (count == 0 || value > max) {
      max = value;
    }
    ++count;
    sum += value;
  }
  void merge(const HistogramData& other) noexcept;
  [[nodiscard]] bool operator==(const HistogramData&) const noexcept = default;
};

/// One run's (or one merged campaign's) metric values. Plain data.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kGaugeCount> gauges{};
  std::array<HistogramData, kHistogramCount> histograms{};
  /// Runs merged into this snapshot (1 for a fresh per-run snapshot).
  std::uint64_t runs = 0;

  /// Element-wise accumulate: counters/sums add, gauges/extrema max-merge.
  void merge(const MetricsSnapshot& other) noexcept;

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const HistogramData& histogram(Histogram h) const noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }

  /// Serializations used by --metrics emission (and by tests asserting
  /// cross-job-count determinism as string equality).
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] bool operator==(const MetricsSnapshot&) const noexcept = default;
};

/// The per-run sink instrument sites write into. Cheap to construct;
/// trace buffering only happens when constructed with `tracing = true`.
class Recorder {
 public:
  explicit Recorder(bool tracing = false) : tracing_(tracing) {
    snapshot_.runs = 1;
  }

  void count(Counter c, std::uint64_t delta) noexcept {
    snapshot_.counters[static_cast<std::size_t>(c)] += delta;
  }
  void gauge_max(Gauge g, std::uint64_t value) noexcept {
    auto& slot = snapshot_.gauges[static_cast<std::size_t>(g)];
    if (value > slot) {
      slot = value;
    }
  }
  void observe(Histogram h, std::uint64_t value) noexcept {
    snapshot_.histograms[static_cast<std::size_t>(h)].add(value);
  }
  void trace(const TraceEvent& event) {
    if (tracing_) {
      events_.push_back(event);
    }
  }

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  [[nodiscard]] const MetricsSnapshot& snapshot() const noexcept {
    return snapshot_;
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }

 private:
  MetricsSnapshot snapshot_;
  std::vector<TraceEvent> events_;
  bool tracing_;
};

namespace detail {
/// The current thread's recorder slot; null (the default) disables every
/// instrument site on this thread. A function-local thread_local (rather
/// than an extern one) keeps the access constant-initialized and free of
/// the cross-TU TLS init wrapper.
inline Recorder*& tls_recorder() noexcept {
  thread_local Recorder* slot = nullptr;
  return slot;
}
}  // namespace detail

[[nodiscard]] inline Recorder* current_recorder() noexcept {
  return detail::tls_recorder();
}

/// Installs `recorder` as the CURRENT THREAD's recorder for this object's
/// lifetime, restoring the previous one on destruction. Nestable.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(Recorder& recorder) noexcept
      : previous_(detail::tls_recorder()) {
    detail::tls_recorder() = &recorder;
  }
  ~ScopedRecorder() { detail::tls_recorder() = previous_; }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  Recorder* previous_;
};

// --- instrument-site API (no-ops when no recorder is installed) ---

inline void count(Counter c, std::uint64_t delta = 1) noexcept {
  if (Recorder* recorder = detail::tls_recorder()) {
    recorder->count(c, delta);
  }
}

inline void gauge_max(Gauge g, std::uint64_t value) noexcept {
  if (Recorder* recorder = detail::tls_recorder()) {
    recorder->gauge_max(g, value);
  }
}

inline void observe(Histogram h, std::uint64_t value) noexcept {
  if (Recorder* recorder = detail::tls_recorder()) {
    recorder->observe(h, value);
  }
}

/// Chrome-trace "complete" event: a span [ts, ts+dur] in sim µs. `name`
/// and `category` must be string literals (stored by pointer).
inline void trace_span(const char* name, const char* category,
                       std::uint64_t ts, std::uint64_t dur) {
  if (Recorder* recorder = detail::tls_recorder(); recorder != nullptr &&
                                                   recorder->tracing()) {
    recorder->trace(TraceEvent{name, category, ts, dur, TracePhase::Complete});
  }
}

/// Chrome-trace "instant" event at sim time `ts` (µs).
inline void trace_instant(const char* name, const char* category,
                          std::uint64_t ts) {
  if (Recorder* recorder = detail::tls_recorder(); recorder != nullptr &&
                                                   recorder->tracing()) {
    recorder->trace(TraceEvent{name, category, ts, 0, TracePhase::Instant});
  }
}

}  // namespace wtc::obs
