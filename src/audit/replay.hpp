// Replay audit arm: deduplicated re-execution of the whole-run op log
// (ROADMAP item 1, after Tan et al.'s "The Efficient Server Audit
// Problem" — re-execution is the strongest oracle, deduplication is what
// makes it affordable).
//
// The structural arms (static checksum / structure / ranges / semantics)
// validate *well-formedness*; they are blind to values that are in-range
// and link-consistent yet wrong given the operation history — a stale
// field written through the store, a lost update, a phantom write. The
// replay auditor closes that gap: it re-executes the recorded op stream
// against a shadow region rebuilt from the pristine image and compares
// the shadow against the live region word-for-word. Any divergence is,
// by construction, a byte the operation history cannot explain.
//
// Deduplication: ops are grouped into per-(table, record) chains,
// segmented at lifecycle boundaries — every DBalloc starts a fresh chain,
// because Alloc fully determines the record's rebirth state, which both
// makes alloc-first chains record-agnostic and keeps a reused record
// slot from welding hundreds of independent call cycles into one
// undedupable mega-chain. Chains with the same signature — same table,
// same start state, same op sequence (op kinds, groups, fields,
// payloads) — must produce the same end state, so each unique chain is
// executed once and its end state reused for every duplicate. Telephone
// workloads are highly repetitive (every handoff is alloc → write →
// move → move → free with a small value alphabet), so the unique-chain
// count is a fraction of the chain count; A16 gates the resulting CPU
// saving.
//
// Cost: grouping and signing are one pass over the log. A record finds
// its open chain through a flat per-record slot array, a chain links its
// ops through a per-event `next` index, and its signature is streamed a
// 64-bit word at a time as each op arrives. End states are kept per
// executing chain in one flat int32 array, and the compare scans words
// only in slices memcmp finds differing.
//
// Trailing: the log only grows, so follow() resumes where the previous
// call stopped. It groups and signs only the appended events and redoes
// the dedup over the chain records, not the events. A record's shadow
// words are rewritten only when its last chain grew or its class's
// executor changed or grew; only then is that executor's end state
// brought up to date, by the ops it gained since it was last computed.
// The relink and the full live-vs-shadow compare run on every call,
// since a write that bypasses the store can land anywhere.
// `executed_ops` and every cost stay the modelled figures of a fresh
// run() — each unique chain's full length — whatever was re-executed.
//
// Parallelism is modelled, not run: replay executes on the calling
// thread, and `replay_threads` is the worker count of the makespan model,
// whose tasks are the unique chains and the fixed-size compare slices
// (the engine's greedy_makespan discipline). Findings, counters and every
// other stat are the same at any `replay_threads`.
//
// Validity precondition: recording must begin at the pristine image
// (boot state), and every region mutation in between must have flowed
// through the instrumented API on a single recorded client. Audit
// *repairs* write the region outside the API, so a replay cycle is only
// meaningful against a run whose repairs are themselves under test —
// which is exactly the point: a repair that rewrote history shows up as
// a divergence attributed to the repaired span.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "audit/report.hpp"
#include "db/api.hpp"
#include "db/database.hpp"

namespace wtc::audit {

struct ReplayConfig {
  /// Worker count of the makespan model (1 = serial). Replay runs on the
  /// calling thread; this moves only `ReplayStats::makespan`.
  std::size_t replay_threads = 1;
  /// Region bytes per modelled compare task. Fixed — independent of
  /// `replay_threads` — so task boundaries and the modelled makespan
  /// depend only on the region, never on the worker count.
  std::size_t compare_grain_bytes = 4096;

  // --- modelled CPU cost (microseconds; same convention as
  // EngineConfig: per-item costs scaled by cost_scale) ---
  std::uint32_t cost_per_op = 8;             ///< one re-executed op
  std::uint32_t cost_per_compare_chunk = 4;  ///< one compare_grain slice
  double cost_scale = 10.0;
};

/// Outcome statistics of one replay cycle. All values are deterministic
/// functions of (pristine image, op log, live region, config).
struct ReplayStats {
  std::uint64_t total_ops = 0;      ///< update ops selected from the log
  std::uint64_t chains = 0;         ///< per-(table, record) chains formed
  std::uint64_t unique_chains = 0;  ///< distinct chain signatures
  std::uint64_t executed_ops = 0;   ///< ops actually re-executed (unique)
  std::uint64_t mismatched_words = 0;  ///< 32-bit words shadow != live

  /// Modelled CPU cost of naive full re-execution (every op + compare).
  sim::Duration naive_cost = 0;
  /// Modelled CPU cost actually booked (unique ops + compare).
  sim::Duration dedup_cost = 0;
  /// Modelled critical-path latency across `replay_threads` workers.
  sim::Duration makespan = 0;

  [[nodiscard]] std::uint64_t deduped() const noexcept {
    return chains - unique_chains;
  }
  /// Fraction of chains that were duplicates of an earlier one.
  [[nodiscard]] double duplicate_ratio() const noexcept {
    return chains == 0 ? 0.0
                       : static_cast<double>(deduped()) /
                             static_cast<double>(chains);
  }
};

struct ReplayResult {
  /// One finding per maximal contiguous mismatching span, in region
  /// order, attributed to (table, record, field) where the span allows.
  std::vector<Finding> findings;
  ReplayStats stats;
};

/// Is this event one of the region-mutating ops replay interprets (a
/// successful Alloc, Free, Move, WriteRec or WriteFld)?
[[nodiscard]] bool replayable(const db::ApiEvent& event) noexcept;

/// One step of the chain-signature mixer: folds a 64-bit word into the
/// running signature. Each step is a bijection of the signature for a
/// fixed word (xor, multiply by an odd constant, xor-shift), so two chains
/// that differ in one word never share a signature. Not cryptographic — a
/// collision merely merges two dedup classes, and the shadow compare still
/// catches any end-state divergence that causes.
[[nodiscard]] inline std::uint64_t mix_signature(std::uint64_t hash,
                                                 std::uint64_t word) noexcept {
  hash = (hash ^ word) * 0x9E3779B97F4A7C15ull;
  return hash ^ (hash >> 32);
}

/// Signature every chain of `table` starts from.
[[nodiscard]] std::uint64_t chain_seed(db::TableId table) noexcept;

/// The per-op signature step: op kind, payload length, field and group as
/// one word, then the payload two values per word.
[[nodiscard]] std::uint64_t mix_op(std::uint64_t hash,
                                   const db::ApiEvent& event) noexcept;

/// Replay checker over a database's op history, one-shot (run) or
/// trailing a growing log (follow). A reused auditor keeps its scratch
/// (chain slots, op links, end states, shadow) sized to the largest log
/// it has seen; every result equals a fresh auditor's run().
class ReplayAuditor {
 public:
  ReplayAuditor(const db::Database& db, ReplayConfig config);

  /// Re-executes `events` (a whole-run op log, arrival order) from the
  /// pristine image and compares the resulting shadow region against the
  /// live region: reset() then follow(), one code path.
  [[nodiscard]] ReplayResult run(std::span<const db::ApiEvent> events);

  /// The verdict of run(events), resumed from where the previous run() or
  /// follow() stopped. Precondition: `events` begins with the events the
  /// previous call consumed — as a db::RunOpLog, which only appends,
  /// guarantees. A span shorter than what was consumed starts over.
  [[nodiscard]] ReplayResult follow(std::span<const db::ApiEvent> events);

 private:
  /// One per-(table, record) op chain. Its ops are linked through `next_`
  /// in arrival order, from `first` through `length` ops to `last`.
  struct Chain {
    std::uint64_t signature = 0;  ///< streamed while grouping
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::uint32_t length = 0;
    /// The chain that executes this one's dedup class (the first chain
    /// with its signature), as of the last dedup pass.
    std::uint32_t executor = 0;
    std::uint32_t grown = 0;  ///< the follow() call that last appended to it
    std::uint32_t end = 0;    ///< index into ends_ + 1; 0 = never executed
    db::RecordIndex record = 0;
    db::TableId table = db::kNoTable;
  };
  /// An executing chain's end state: status, group, then the fields, at
  /// `at` in states_, after its first `ops` ops (the last being `last`).
  struct EndState {
    std::size_t at = 0;
    std::uint32_t ops = 0;
    std::uint32_t last = 0;
  };
  /// One dedup class: its signature and the chain that executes it.
  struct Unique {
    std::uint64_t signature = 0;
    std::uint32_t chain = 0;
  };

  /// Forgets every consumed event: the next follow() starts over from the
  /// pristine image.
  void reset();
  /// Brings `chain`'s end state up to its current length, executing only
  /// the ops it gained since the state was last computed, and returns it.
  const std::int32_t* execute_chain(Chain& chain,
                                    std::span<const db::ApiEvent> events);

  const db::Database& db_;
  ReplayConfig config_;
  /// Per table, the first record slot: a record's slot is its table's
  /// base plus its index (one past the end at the back).
  std::vector<std::uint32_t> table_base_;
  // State carried from one follow() to the next; reset() clears it.
  std::size_t consumed_ = 0;                  ///< events grouped so far
  std::uint64_t total_ops_ = 0;               ///< replayable ops among them
  std::uint32_t calls_ = 0;                   ///< follow() calls so far, for Chain::grown
  std::vector<std::uint32_t> open_chain_;     ///< per record slot
  std::vector<std::uint32_t> next_;           ///< per event: next op of its chain
  std::vector<Chain> chains_;                 ///< creation order
  std::vector<EndState> ends_;
  std::vector<std::int32_t> states_;          ///< end states, flat
  std::vector<std::byte> shadow_;             ///< the region the log explains
  // Per-call scratch.
  std::vector<Unique> uniques_;               ///< discovery order
  std::vector<std::uint32_t> unique_bucket_;  ///< signature table: unique + 1
};

}  // namespace wtc::audit
