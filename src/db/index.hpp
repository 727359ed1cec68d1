// Shadow group/free indexes over one table's record headers.
//
// The database region keeps each logical group's records on a singly
// linked chain in record-index order (layout.hpp), and the structural
// audit checks and repairs exactly that invariant. Maintaining it by
// rebuilding every chain on each alloc/free/move makes every mutating API
// call O(N_records); finding a free record by scanning headers makes
// DBalloc O(N_records) again. TableIndex is the fast access path over that
// slower, audited authoritative structure: an in-memory mirror of the
// membership information the chains encode — which records are free
// (status word) and which group each record belongs to (group word) — so
// the API can pop the lowest free slot and find a record's chain
// neighbours and splice only the affected `next` links.
//
// Each membership set is a two-level bitmap: one bit per record in 64-bit
// words, plus one summary word per 64 words whose bit w says "word w is
// non-empty". Membership changes are O(1). A neighbour search tests the
// record's own word, then finds the nearest non-empty word through the
// summary level, so it reads at most two words plus one summary word per
// 4096 records it skips — a sparse group in a 300k-record table costs ~75
// summary-word tests, not ~4700 word tests. The whole index of a table is
// 17 bits per record plus one group byte, with no per-member allocation.
//
// The index lives OUTSIDE the audited region (like the redundant metadata
// of §4.3.3): injected corruption never touches it directly, and it never
// weakens an audit invariant because it stores no authoritative state —
// every entry is recomputable from the region's status/group words, which
// is exactly what rebuild-from-region and the cross-check do. It is kept
// in sync by Database::mark_written: any store write overlapping a
// record's status/group words re-reads them and resyncs that record, so
// API writes, audit repairs, disk reloads, image installs, and the
// injector's through-store corruption all update it automatically. Only
// raw corruption that bypasses the store can desync it — the same blind
// spot the incremental audit's periodic full sweep exists for — and the
// consumers treat it as advisory: DBalloc validates the popped record's
// status against the region and rebuilds on mismatch.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "db/layout.hpp"
#include "db/schema.hpp"

namespace wtc::db {

class TableIndex {
 public:
  /// Sentinel for "group word out of range": such records are on no chain
  /// (relink leaves them unlinked) and in no member set.
  static constexpr std::uint8_t kNoGroup = 0xFF;

  /// Resets to the state of a table whose every record has an out-of-range
  /// group and a non-free status (i.e. "member of nothing"); callers then
  /// sync() each record from its region header words.
  void reset(RecordIndex num_records);

  /// Resyncs record `r` from its region header words. Idempotent and O(1).
  void sync(RecordIndex r, std::uint32_t status, std::uint32_t group);

  /// Lowest-index record whose status word is kStatusFree (what the
  /// DBalloc scan would find), or nullopt when none.
  [[nodiscard]] std::optional<RecordIndex> first_free() const noexcept {
    return free_.next_from(0);
  }

  /// Greatest member of group `g` below `r` — the record whose `next` link
  /// must point at/around `r` when splicing. `r` itself is never returned
  /// whether or not it is currently a member. nullopt also when `r` is not
  /// a record of the table.
  [[nodiscard]] std::optional<RecordIndex> pred(std::uint32_t g,
                                                RecordIndex r) const noexcept;
  /// Smallest member of group `g` above `r` (r's chain successor).
  [[nodiscard]] std::optional<RecordIndex> succ(std::uint32_t g,
                                                RecordIndex r) const noexcept;

  [[nodiscard]] std::size_t member_count(std::uint32_t g) const {
    return groups_.at(g).count();
  }
  [[nodiscard]] std::size_t free_count() const noexcept { return free_.count(); }
  /// Cached group of record `r` (kNoGroup for out-of-range group words).
  [[nodiscard]] std::uint8_t group_of(RecordIndex r) const {
    return group_of_.at(r);
  }

  /// Exact-state comparison, used by the full-rebuild cross-check.
  [[nodiscard]] bool operator==(const TableIndex&) const = default;

 private:
  /// Set of record indexes in [0, size): the two-level bitmap above.
  class Bitmap {
   public:
    void reset(RecordIndex size);
    void insert(RecordIndex r) noexcept;
    void erase(RecordIndex r) noexcept;
    /// Smallest member >= r.
    [[nodiscard]] std::optional<RecordIndex> next_from(RecordIndex r) const noexcept;
    /// Greatest member < r.
    [[nodiscard]] std::optional<RecordIndex> prev_below(RecordIndex r) const noexcept;
    [[nodiscard]] std::size_t count() const noexcept { return count_; }
    [[nodiscard]] bool operator==(const Bitmap&) const = default;

   private:
    std::vector<std::uint64_t> words_;    ///< bit r%64 of word r/64
    std::vector<std::uint64_t> summary_;  ///< bit w%64 of word w/64: words_[w] != 0
    std::size_t count_ = 0;
  };

  std::array<Bitmap, kMaxGroups> groups_;
  Bitmap free_;
  std::vector<std::uint8_t> group_of_;  ///< per record; kNoGroup = none
};

}  // namespace wtc::db
