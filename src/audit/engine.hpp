// The audit element's detection + recovery engine (§4.3).
//
// Implements the four audit techniques the paper's periodic audit runs —
// static-data checksum, dynamic-data range check, structural check, and
// semantic referential-integrity check — plus the targeted single-record
// check used by event-triggered audit and the selective attribute monitor
// (§4.4.2). The engine accesses the database region directly (Figure 1's
// "Direct Memory Access" path), bypassing the API and its locks; to keep
// audit results valid against concurrent client transactions it skips
// records written within a configurable grace window — the implementation
// analog of "if there is an intervening update to a record being accessed
// by an audit element, the result of the audit is invalidated" (§4.3).
//
// Every check returns its modelled CPU cost so the caller can book it on
// the shared Cpu — audits are not free, which is exactly what the Table-3
// call-setup-time overhead measures.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "audit/report.hpp"
#include "common/stats.hpp"
#include "db/database.hpp"
#include "sim/time.hpp"

namespace wtc::audit {

struct EngineConfig {
  bool static_check = true;
  bool structural_check = true;
  bool range_check = true;
  bool semantic_check = true;
  bool selective_monitoring = false;

  /// Range-audit recovery for dynamic tables frees the record preemptively
  /// to stop error propagation (§4.3.1).
  bool free_dynamic_on_range_error = true;

  /// Records written more recently than this are considered possibly
  /// mid-transaction and skipped by range/semantic checks.
  sim::Duration recent_write_grace = 500 * static_cast<sim::Duration>(sim::kMillisecond);

  /// This many *consecutive* corrupted headers indicate table/record
  /// misalignment; the whole database is reloaded from disk (§4.3.2).
  std::uint32_t consecutive_header_threshold = 3;

  /// Selective monitoring: a value is suspect when its occurrence count is
  /// below `selective_fraction * mean occurrences` (§4.4.2), requiring at
  /// least `selective_min_records` samples and a peaked distribution.
  double selective_fraction = 0.3;
  std::size_t selective_min_records = 12;
  double selective_min_mean_occurrences = 4.0;

  /// Static-data checksum chunk size: detection (and reload) granularity.
  std::size_t static_chunk_bytes = 256;

  /// Incremental (dirty-tracking) audit: `incremental_pass` scans only
  /// data written through the store since each check's generation
  /// watermark — same per-item costs, a fraction of the items.
  bool incremental = false;
  /// Every Nth incremental cycle runs the old exhaustive pass, so
  /// raw-memory corruption that bypassed the write path (and therefore
  /// left no dirty stamp) is still caught within N periods. This is the
  /// coverage/cost knob: 1 degenerates to the exhaustive baseline, 0
  /// disables sweeps entirely (store-path coverage only). The escape rate
  /// it buys is measured by bench/ablation_incremental_audit.
  std::uint32_t full_sweep_interval = 10;

  // --- modelled multi-core audit ---
  /// Worker count of the makespan model (1 = serial). Every scan runs on
  /// the calling thread; this moves only `last_cycle_makespan` /
  /// `total_makespan` and the audit.cycle_latency_us histogram. Findings,
  /// repairs, booked cost and every other obs output are the same at any
  /// value.
  std::size_t audit_threads = 1;
  /// Items (static chunks or records) per modelled task of the static /
  /// structural / range scans. Fixed — independent of `audit_threads` — so
  /// task boundaries, the `audit.parallel_tasks` count, and the modelled
  /// cycle makespan depend only on the work, never on the worker count.
  std::size_t parallel_grain = 64;

  // --- per-cycle CPU budget (overload policy) ---
  /// Modelled CPU allowance per full_pass/incremental_pass cycle, in µs
  /// of booked audit cost (0 = unlimited). A cycle that hits the budget
  /// truncates mid-scan — booking only the items it actually scanned —
  /// and carries the unfinished work units to the next cycle (FIFO, so
  /// no table starves under sustained overload). NOT multiplied by
  /// `cost_scale`: it is a CPU allowance, not a per-item cost.
  sim::Duration cycle_budget = 0;

  // --- modelled CPU cost (microseconds). The controller's production
  // database is far larger than this reproduction's, so `cost_scale`
  // multiplies the per-item costs to recreate the paper's audit CPU load
  // (Table 3's 69% call-setup overhead comes from this contention). ---
  std::uint32_t cost_per_record_structural = 60;
  std::uint32_t cost_per_field_range = 25;
  std::uint32_t cost_per_loop_semantic = 120;
  std::uint32_t cost_per_static_chunk = 40;
  std::uint32_t cost_event_check = 40;
  double cost_scale = 10.0;
};

/// Which items a check visits: all of them, or only those written since
/// the check's last scan (see AuditEngine's check methods).
enum class ScanMode : std::uint8_t { Exhaustive, Incremental };

/// Outcome of one check invocation.
struct CheckResult {
  std::uint32_t findings = 0;
  sim::Duration cost = 0;

  CheckResult& operator+=(const CheckResult& other) noexcept {
    findings += other.findings;
    cost += other.cost;
    return *this;
  }
};

class AuditEngine {
 public:
  AuditEngine(db::Database& db, EngineConfig config,
              std::function<sim::Time()> clock);

  void set_report_sink(ReportSink* sink) noexcept { sink_ = sink; }
  void set_client_control(ClientControl* control) noexcept { control_ = control; }

  /// Shard id stamped on every finding this engine reports (0 when
  /// unsharded). In a sharded deployment each shard owns its own engine;
  /// the stamp is what keeps merged finding streams attributable.
  void set_shard_id(std::uint32_t shard) noexcept { shard_id_ = shard; }
  [[nodiscard]] std::uint32_t shard_id() const noexcept { return shard_id_; }

  // Each technique has one entry point. `mode` picks the scan:
  // Exhaustive visits every item; Incremental runs the same detection and
  // recovery logic over only the data whose write generation exceeds the
  // check's watermark (and costs only that). Watermarks are epoch-based:
  // each scan captures the global write generation at its start and
  // adopts it at the end, so writes that race the scan keep generations
  // above the new watermark and stay dirty for the next cycle. Records
  // skipped for any other reason (write-grace window, table lock) hold the
  // watermark back so they are revisited. The content checks (range /
  // selective / semantic) consume *field* generations: group relinks
  // rewrite only header link words, bumping the record generation the
  // structural check watches but not the field generation, so link churn
  // does not force content rescans. The incremental range check
  // additionally skips freed records whose scrub attestation stands
  // (field_generation == scrub_generation — fields hold the defaults the
  // scrub wrote: the trusted schema's on the audit's free paths, the
  // in-region catalog's on DbApi::free_rec; Database::scrub_generation).

  /// Golden-checksum audit of all static data; recovery reloads corrupted
  /// chunks from disk (§4.3.1).
  CheckResult check_static(ScanMode mode = ScanMode::Exhaustive);

  /// Structural audit of one table's record headers (§4.3.2). Single
  /// errors are repaired in place; `consecutive_header_threshold`
  /// consecutive corruptions trigger a full database reload.
  CheckResult check_structure(db::TableId t, ScanMode mode = ScanMode::Exhaustive);

  /// Range audit of one dynamic table's active records (§4.3.1).
  CheckResult check_ranges(db::TableId t, ScanMode mode = ScanMode::Exhaustive);

  /// Referential-integrity audit following the FK loops from every active
  /// anchor record, plus orphan ("zombie") sweep (§4.3.3).
  CheckResult check_semantics(ScanMode mode = ScanMode::Exhaustive);

  /// Selective attribute monitoring of one table's unruled dynamic fields
  /// (§4.4.2): derive value-frequency invariants, escalate suspects.
  CheckResult check_selective(db::TableId t, ScanMode mode = ScanMode::Exhaustive);

  /// Targeted single-record check used by event-triggered audit: header +
  /// ranges (bypassing the write-grace window — the triggering write is
  /// the thing under suspicion).
  CheckResult check_record(db::TableId t, db::RecordIndex r);

  /// Full audit pass over the given table order (the periodic element's
  /// unprioritized cycle): static + per-table structure/ranges/selective +
  /// semantic loops.
  CheckResult full_pass(const std::vector<db::TableId>& order);

  /// One incremental audit cycle over the given table order. Every
  /// `full_sweep_interval`-th call runs the exhaustive pass instead (which
  /// also advances all watermarks) to bound the detection latency of
  /// corruption that bypassed the store's dirty tracking.
  CheckResult incremental_pass(const std::vector<db::TableId>& order);

  [[nodiscard]] std::uint64_t total_findings() const noexcept { return findings_; }
  /// Exhaustive sweeps executed by `incremental_pass` so far.
  [[nodiscard]] std::uint64_t full_sweeps() const noexcept { return full_sweeps_; }
  [[nodiscard]] std::uint64_t incremental_cycles() const noexcept {
    return cycle_index_;
  }

  // --- parallel/budgeted cycle outcome (valid after full_pass /
  // incremental_pass; all values are deterministic functions of the
  // configuration and workload, independent of host scheduling) ---
  /// Modelled critical-path latency of the last cycle: per-scan tasks
  /// greedily assigned to `audit_threads` modelled workers in task order,
  /// serial scans (semantic/selective) added whole. Equals the cycle's
  /// booked cost when audit_threads == 1.
  [[nodiscard]] sim::Duration last_cycle_makespan() const noexcept {
    return last_makespan_;
  }
  [[nodiscard]] sim::Duration total_makespan() const noexcept {
    return total_makespan_;
  }
  /// Cycles that ran out of budget before draining their work queue.
  [[nodiscard]] std::uint64_t budget_exhausted_cycles() const noexcept {
    return budget_exhausted_cycles_;
  }
  /// Work units pushed to a later cycle so far (deferrals + truncations).
  [[nodiscard]] std::uint64_t deferred_units_total() const noexcept {
    return deferred_units_total_;
  }
  /// Units currently carried over, waiting for the next cycle's budget.
  [[nodiscard]] std::size_t carry_depth() const noexcept { return carry_.size(); }
  /// Dirty-grid chunks overlapping table `t`'s span written since the
  /// older of its structure/ranges watermarks — the "pressure" signal the
  /// budgeted cycle ranks tables by.
  [[nodiscard]] std::uint64_t table_dirty_chunks(db::TableId t) const;

  /// For non-engine elements (e.g. the progress indicator) to report
  /// through the same sink; stamps the time.
  void report_external(Finding finding) { report(std::move(finding)); }

  /// Deterministic critical path of `task_costs` greedily assigned (in
  /// task order, to the least-loaded worker) across `workers` workers.
  /// Shared by the engine's own scans and the replay audit's makespan
  /// model, so both book parallel cost under the same discipline.
  [[nodiscard]] static sim::Duration greedy_makespan(
      const std::vector<sim::Duration>& task_costs, std::size_t workers);

 private:
  void report(Finding finding);
  [[nodiscard]] bool recently_written(db::TableId t, db::RecordIndex r) const;
  /// Frees `r` and terminates the thread that last wrote it.
  void free_and_terminate(db::TableId t, db::RecordIndex r, Technique technique);
  [[nodiscard]] bool header_corrupted(db::TableId t, db::RecordIndex r,
                                      std::uint32_t expected_next) const;
  /// Follows the FK chain from (t, r); returns false on violation.
  [[nodiscard]] bool loop_intact(db::TableId t, db::RecordIndex r,
                                 std::vector<std::pair<db::TableId, db::RecordIndex>>&
                                     chain) const;

  static constexpr sim::Duration kUnlimited =
      std::numeric_limits<sim::Duration>::max();

  /// Carried progress of a budget-truncated scan. `resume` is an absolute
  /// item index (static chunk / record / flattened semantic ordinal):
  /// items below it were scanned — and booked — by an earlier installment
  /// of the same scan. `mark` is the epoch watermark captured when the
  /// scan first started; it is adopted only when the scan completes, so
  /// writes landing between installments stay dirty. `new_mark` carries
  /// the running skip-holds (grace window, locks) across installments.
  struct ScanProgress {
    std::size_t resume = 0;
    std::uint64_t mark = 0;
    std::uint64_t new_mark = 0;
    std::uint32_t consecutive = 0;  ///< structural consecutive-bad run
    bool started = false;
    bool truncated = false;  ///< set by a scan that hit its budget
  };

  /// One schedulable slice of an audit cycle. The cycle's work queue is
  /// carried units (FIFO) followed by this cycle's fresh units; a unit
  /// that hits the budget re-queues itself with its ScanProgress.
  struct WorkUnit {
    enum class Kind : std::uint8_t { Static, Structure, Ranges, Selective, Semantics };
    Kind kind = Kind::Static;
    db::TableId table = db::kNoTable;
    bool exhaustive = false;  ///< frozen at enqueue: a truncated sweep
                              ///< unit finishes exhaustively next cycle
    ScanProgress progress;
  };

  // Shared implementations of the exhaustive/incremental check pairs.
  // `budget` is the remaining cycle allowance (kUnlimited for the one-shot
  // public checks); `progress` carries truncation state across cycles
  // (nullptr for one-shot calls, which never truncate).
  CheckResult static_scan(bool exhaustive, sim::Duration budget,
                          ScanProgress* progress);
  CheckResult structure_scan(db::TableId t, bool exhaustive, sim::Duration budget,
                             ScanProgress* progress);
  CheckResult ranges_scan(db::TableId t, bool exhaustive, sim::Duration budget,
                          ScanProgress* progress);
  CheckResult semantics_scan(bool exhaustive, sim::Duration budget,
                             ScanProgress* progress);
  CheckResult selective_scan(db::TableId t, bool exhaustive);

  /// Zeroed per-task booked costs of a scan over `items` selected items,
  /// one per `parallel_grain` of them (a skipped item keeps its slot);
  /// counts the tasks as audit.parallel_tasks.
  [[nodiscard]] std::vector<sim::Duration> task_slots(std::size_t items) const;
  /// Deterministic critical path of `task_costs` greedily assigned (in
  /// task order, to the least-loaded worker) across audit_threads workers.
  [[nodiscard]] sim::Duration makespan_of(
      const std::vector<sim::Duration>& task_costs) const;

  /// Runs one work unit against `budget` remaining cycle allowance;
  /// tallies the scan and updates scan_makespan_.
  CheckResult run_unit(WorkUnit& unit, sim::Duration budget);
  /// One budgeted, carried, prioritized cycle over the unit queue.
  CheckResult run_cycle(const std::vector<db::TableId>& order, bool exhaustive);
  /// A record was skipped without being verified: pull `new_mark` below
  /// its write generation `gen` so the next incremental scan revisits it.
  /// Callers pass the generation from the same domain their dirty test
  /// uses (record_generation for structure, field_generation for the
  /// content checks).
  static void hold_watermark(std::uint64_t gen, std::uint64_t& new_mark);

  db::Database& db_;
  EngineConfig config_;
  std::function<sim::Time()> clock_;
  ReportSink* sink_ = nullptr;
  ClientControl* control_ = nullptr;
  std::uint32_t shard_id_ = 0;
  std::uint64_t findings_ = 0;
  /// Golden CRCs of static-data chunks, computed from the pristine image.
  struct StaticChunk {
    std::size_t offset;
    std::size_t length;
    std::uint32_t golden_crc;
  };
  std::vector<StaticChunk> static_chunks_;

  // --- incremental-audit state ---
  std::uint64_t static_watermark_ = 0;
  std::uint64_t semantic_watermark_ = 0;
  std::vector<std::uint64_t> structure_watermark_;  ///< per table
  std::vector<std::uint64_t> ranges_watermark_;     ///< per table
  std::vector<std::uint64_t> selective_watermark_;  ///< per table
  std::uint64_t cycle_index_ = 0;
  std::uint64_t full_sweeps_ = 0;
  /// Reverse-reference index, precomputed from the schema: for each table
  /// t, every (table, field) whose ForeignKey references t. The semantic
  /// audit's orphan sweep walks this instead of rescanning the schema, and
  /// the incremental variant uses it to prove a table's referencedness
  /// cannot have changed.
  std::vector<std::vector<std::pair<db::TableId, db::FieldId>>> referencing_;
  /// Tables that anchor semantic loop walks (dynamic + FK-bearing).
  std::vector<char> anchor_table_;
  /// Tables with a PrimaryKey field (orphan-sweep candidates).
  std::vector<char> has_pk_;
  /// Per-anchor dirty sets: the loop anchor each record last belonged to,
  /// so a write to any chain member re-walks exactly that loop.
  std::vector<std::vector<std::pair<db::TableId, db::RecordIndex>>> chain_anchor_;

  // --- parallel/budgeted cycle state ---
  /// Work deferred by budget exhaustion, run first next cycle (FIFO).
  std::deque<WorkUnit> carry_;
  /// Critical-path cost of the last scan (set by every scan; equals the
  /// scan's booked cost for serial scans).
  sim::Duration scan_makespan_ = 0;
  sim::Duration last_makespan_ = 0;
  sim::Duration total_makespan_ = 0;
  std::uint64_t budget_exhausted_cycles_ = 0;
  std::uint64_t deferred_units_total_ = 0;
  /// Flattened (table, record) ordinal bases for the semantic scan's
  /// resume indexing: ordinal(t, r) = record_ordinal_base_[t] + r.
  std::vector<std::size_t> record_ordinal_base_;
  std::size_t total_records_ = 0;
};

}  // namespace wtc::audit
