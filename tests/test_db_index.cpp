// Tests for the shadow group/free index (db/index.hpp) and the O(1)
// splice hot path built on it: byte-equivalence against the full-relink
// reference, self-resync through every store write path, and the
// advisory-index recovery behaviour under raw (store-bypassing)
// corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "obs/metrics.hpp"

namespace wtc::db {
namespace {

bool regions_equal(const Database& a, const Database& b) {
  const auto ra = a.region();
  const auto rb = b.region();
  return ra.size() == rb.size() &&
         std::memcmp(ra.data(), rb.data(), ra.size()) == 0;
}

bool all_indexes_verify(const Database& db) {
  for (TableId t = 0; t < db.table_count(); ++t) {
    if (!db.verify_index(t)) {
      return false;
    }
  }
  return true;
}

// Ordered-set reference model of one TableIndex: what the bitmaps must
// answer for every query.
class SetModel {
 public:
  explicit SetModel(RecordIndex size) : group_of_(size, TableIndex::kNoGroup) {}

  void sync(RecordIndex r, std::uint32_t status, std::uint32_t group) {
    if (group_of_[r] != TableIndex::kNoGroup) {
      groups_[group_of_[r]].erase(r);
    }
    group_of_[r] = group < kMaxGroups ? static_cast<std::uint8_t>(group)
                                      : TableIndex::kNoGroup;
    if (group_of_[r] != TableIndex::kNoGroup) {
      groups_[group_of_[r]].insert(r);
    }
    if (status == kStatusFree) {
      free_.insert(r);
    } else {
      free_.erase(r);
    }
  }

  [[nodiscard]] std::optional<RecordIndex> first_free() const {
    if (free_.empty()) {
      return std::nullopt;
    }
    return *free_.begin();
  }
  [[nodiscard]] std::optional<RecordIndex> pred(std::uint32_t g, RecordIndex r) const {
    const auto& members = groups_[g];
    const auto it = members.lower_bound(r);
    if (it == members.begin()) {
      return std::nullopt;
    }
    return *std::prev(it);
  }
  [[nodiscard]] std::optional<RecordIndex> succ(std::uint32_t g, RecordIndex r) const {
    const auto it = groups_[g].upper_bound(r);
    if (it == groups_[g].end()) {
      return std::nullopt;
    }
    return *it;
  }
  [[nodiscard]] std::size_t member_count(std::uint32_t g) const {
    return groups_[g].size();
  }
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  [[nodiscard]] std::uint8_t group_of(RecordIndex r) const { return group_of_[r]; }
  [[nodiscard]] bool is_free(RecordIndex r) const { return free_.count(r) != 0; }

 private:
  std::array<std::set<RecordIndex>, kMaxGroups> groups_;
  std::set<RecordIndex> free_;
  std::vector<std::uint8_t> group_of_;
};

// Every query of `index` at record `r` agrees with the model.
void expect_queries_match(const TableIndex& index, const SetModel& model,
                          RecordIndex r) {
  for (std::uint32_t g = 0; g < kMaxGroups; ++g) {
    ASSERT_EQ(index.pred(g, r), model.pred(g, r)) << "pred g=" << g << " r=" << r;
    ASSERT_EQ(index.succ(g, r), model.succ(g, r)) << "succ g=" << g << " r=" << r;
  }
  ASSERT_EQ(index.group_of(r), model.group_of(r)) << "r=" << r;
}

void expect_counts_match(const TableIndex& index, const SetModel& model) {
  ASSERT_EQ(index.first_free(), model.first_free());
  ASSERT_EQ(index.free_count(), model.free_count());
  for (std::uint32_t g = 0; g < kMaxGroups; ++g) {
    ASSERT_EQ(index.member_count(g), model.member_count(g)) << "g=" << g;
  }
}

// Random syncs against the ordered-set model, on table sizes around the
// 64-record word and 4096-record summary-bit boundaries (4097 and 100 are
// not multiples of 64). Half the syncs hit the boundary records, and the
// status/group values include out-of-range ones. The second half of the
// syncs mostly removes records, so the sets thin out and searches cross
// empty words.
TEST(TableIndexModel, RandomSyncsMatchOrderedSetModel) {
  common::Rng rng(0xB17B17u);
  for (const RecordIndex size : {1u, 64u, 100u, 4096u, 4097u, 8300u}) {
    std::vector<RecordIndex> edges;
    for (const RecordIndex r : {0u, 1u, 62u, 63u, 64u, 65u, 127u, 128u, 4095u,
                                4096u, 4097u, 8191u, 8192u}) {
      if (r < size) {
        edges.push_back(r);
      }
    }
    edges.push_back(size - 1);
    TableIndex index;
    index.reset(size);
    SetModel model(size);
    for (int op = 0; op < 4000; ++op) {
      const RecordIndex r =
          rng.uniform(2) == 0
              ? edges[rng.uniform(edges.size())]
              : static_cast<RecordIndex>(rng.uniform(size));
      const bool remove = op >= 2000 && rng.uniform(4) != 0;
      const auto status_pick = remove ? 1 : rng.uniform(3);
      const std::uint32_t status = status_pick == 0   ? kStatusFree
                                   : status_pick == 1 ? kStatusActive
                                                      : 0xDEADu;
      // Few groups so chains are dense enough to have neighbours; 1 in 8
      // other syncs stores an out-of-range group word.
      const std::uint32_t group =
          remove || rng.uniform(8) == 0
              ? kMaxGroups + static_cast<std::uint32_t>(rng.uniform(3))
              : static_cast<std::uint32_t>(rng.uniform(4));
      index.sync(r, status, group);
      model.sync(r, status, group);
      ASSERT_NO_FATAL_FAILURE(expect_counts_match(index, model)) << "size " << size;
      ASSERT_NO_FATAL_FAILURE(expect_queries_match(index, model, r));
      if (op % 16 == 0) {
        for (const RecordIndex e : edges) {
          ASSERT_NO_FATAL_FAILURE(expect_queries_match(index, model, e))
              << "size " << size << " op " << op;
        }
      }
    }
    // The index is a pure function of the synced words: one rebuilt from
    // the final state compares equal (what verify_index relies on).
    TableIndex rebuilt;
    rebuilt.reset(size);
    for (RecordIndex r = 0; r < size; ++r) {
      const std::uint8_t g = model.group_of(r);
      rebuilt.sync(r, model.is_free(r) ? kStatusFree : kStatusActive,
                   g == TableIndex::kNoGroup ? kMaxGroups : g);
    }
    EXPECT_TRUE(rebuilt == index) << "size " << size;
    rebuilt.sync(size - 1, model.is_free(size - 1) ? kStatusActive : kStatusFree,
                 0);
    EXPECT_FALSE(rebuilt == index) << "size " << size;
  }
}

// A 300001-record table (not a multiple of 64) whose group 3 has three
// members, and one free record at the far end: neighbour and free-slot
// searches skip thousands of empty words, in both directions, and cross
// the boundary between the first and second summary words (record
// 262144 = 64 * 4096).
TEST(TableIndexModel, SparseGroupInLargeTableCrossesSummaryWords) {
  constexpr RecordIndex kSize = 300001;
  constexpr std::uint32_t kGroup = 3;
  TableIndex index;
  index.reset(kSize);
  SetModel model(kSize);
  const auto sync = [&](RecordIndex r, std::uint32_t status, std::uint32_t group) {
    index.sync(r, status, group);
    model.sync(r, status, group);
  };
  for (RecordIndex r = 0; r < kSize; ++r) {
    sync(r, kStatusActive, 1);
  }
  for (const RecordIndex r : {7u, 262144u, 300000u}) {
    sync(r, kStatusActive, kGroup);
  }
  sync(299999, kStatusFree, 0);

  EXPECT_EQ(index.member_count(kGroup), 3u);
  EXPECT_EQ(index.free_count(), 1u);
  EXPECT_EQ(index.first_free(), std::optional<RecordIndex>{299999});
  EXPECT_EQ(index.succ(kGroup, 0), std::optional<RecordIndex>{7});
  EXPECT_EQ(index.succ(kGroup, 7), std::optional<RecordIndex>{262144});
  EXPECT_EQ(index.succ(kGroup, 262143), std::optional<RecordIndex>{262144});
  EXPECT_EQ(index.succ(kGroup, 262144), std::optional<RecordIndex>{300000});
  EXPECT_EQ(index.succ(kGroup, 300000), std::nullopt);
  EXPECT_EQ(index.pred(kGroup, 300000), std::optional<RecordIndex>{262144});
  EXPECT_EQ(index.pred(kGroup, 262144), std::optional<RecordIndex>{7});
  EXPECT_EQ(index.pred(kGroup, 262145), std::optional<RecordIndex>{262144});
  EXPECT_EQ(index.pred(kGroup, 7), std::nullopt);
  EXPECT_EQ(index.pred(kGroup, kSize), std::nullopt);  // not a record
  for (const RecordIndex r : {0u, 6u, 7u, 8u, 4095u, 4096u, 131072u, 262143u,
                              262144u, 262145u, 299999u, 300000u}) {
    ASSERT_NO_FATAL_FAILURE(expect_queries_match(index, model, r)) << r;
  }
  ASSERT_NO_FATAL_FAILURE(expect_counts_match(index, model));

  // Empty the group one member at a time; the searches must follow.
  sync(262144, kStatusActive, 1);
  EXPECT_EQ(index.succ(kGroup, 7), std::optional<RecordIndex>{300000});
  EXPECT_EQ(index.pred(kGroup, 300000), std::optional<RecordIndex>{7});
  sync(7, kStatusActive, 1);
  sync(300000, kStatusActive, 1);
  EXPECT_EQ(index.member_count(kGroup), 0u);
  EXPECT_EQ(index.succ(kGroup, 0), std::nullopt);
  EXPECT_EQ(index.pred(kGroup, 300000), std::nullopt);
  sync(299999, kStatusActive, 1);
  EXPECT_EQ(index.first_free(), std::nullopt);
}

class IndexTest : public ::testing::Test {
 protected:
  IndexTest()
      : db_(make_controller_database()),
        ids_(resolve_controller_ids(db_->schema())),
        api_(*db_, []() { return sim::Time{0}; }) {
    api_.init(100);
  }

  std::unique_ptr<Database> db_;
  ControllerIds ids_;
  DbApi api_;
};

TEST_F(IndexTest, FreshDatabaseIndexMatchesRegion) {
  EXPECT_TRUE(all_indexes_verify(*db_));
  // Every dynamic record starts on the free list.
  const auto total = db_->schema().tables[ids_.process].num_records;
  EXPECT_EQ(db_->index(ids_.process).free_count(), total);
  EXPECT_EQ(db_->index(ids_.process).first_free(), std::optional<RecordIndex>{0});
}

TEST_F(IndexTest, ApiMutationsKeepIndexInSync) {
  RecordIndex a = 0;
  RecordIndex b = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, a), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, b), Status::Ok);
  EXPECT_TRUE(db_->verify_index(ids_.process));
  ASSERT_EQ(api_.move_rec(ids_.process, a, kGroupStableCalls), Status::Ok);
  EXPECT_TRUE(db_->verify_index(ids_.process));
  ASSERT_EQ(api_.free_rec(ids_.process, b), Status::Ok);
  EXPECT_TRUE(db_->verify_index(ids_.process));
  const auto& index = db_->index(ids_.process);
  EXPECT_EQ(index.group_of(a), kGroupStableCalls);
  EXPECT_EQ(index.member_count(kGroupActiveCalls), 0u);
}

// The heart of the PR: a randomized alloc/free/move campaign driven
// identically through a splice-mode API and a full-relink API must keep
// the two regions byte-identical at every step (the splice is not an
// approximation of the invariant — it produces the same bytes), and the
// splice side's shadow index must continuously match its region.
TEST_F(IndexTest, RandomizedCampaignMatchesFullRelinkByteForByte) {
  auto relink_db = make_controller_database();
  DbApi relink_api(*relink_db, []() { return sim::Time{0}; });
  relink_api.set_link_mode(LinkMode::FullRelink);
  relink_api.init(100);
  ASSERT_EQ(api_.link_mode(), LinkMode::Splice);
  ASSERT_TRUE(regions_equal(*db_, *relink_db));

  common::Rng rng(0xD5171DE5u);
  const TableId tables[] = {ids_.process, ids_.connection, ids_.resource};
  std::vector<std::vector<RecordIndex>> active(3);
  for (int op = 0; op < 2000; ++op) {
    const auto which = rng.uniform(3);
    const TableId t = tables[which];
    auto& live = active[which];
    const auto kind = rng.uniform(3);
    if (kind == 0 || live.empty()) {
      const auto group =
          rng.uniform(2) == 0 ? kGroupActiveCalls : kGroupStableCalls;
      RecordIndex r1 = 0;
      RecordIndex r2 = 0;
      const Status s1 = api_.alloc_rec(t, group, r1);
      const Status s2 = relink_api.alloc_rec(t, group, r2);
      ASSERT_EQ(s1, s2);
      if (s1 == Status::Ok) {
        ASSERT_EQ(r1, r2);  // both must pick the lowest-index free slot
        live.push_back(r1);
      }
    } else {
      const auto pick = rng.uniform(live.size());
      const RecordIndex r = live[pick];
      if (kind == 1) {
        ASSERT_EQ(api_.free_rec(t, r), Status::Ok);
        ASSERT_EQ(relink_api.free_rec(t, r), Status::Ok);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        const auto group =
            rng.uniform(2) == 0 ? kGroupActiveCalls : kGroupStableCalls;
        ASSERT_EQ(api_.move_rec(t, r, group), Status::Ok);
        ASSERT_EQ(relink_api.move_rec(t, r, group), Status::Ok);
      }
    }
    ASSERT_TRUE(regions_equal(*db_, *relink_db)) << "after op " << op;
    if (op % 64 == 0) {
      ASSERT_TRUE(all_indexes_verify(*db_)) << "after op " << op;
    }
  }
  EXPECT_TRUE(all_indexes_verify(*db_));
}

TEST_F(IndexTest, IndexRebuiltAfterReloadAndInstallImage) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r), Status::Ok);

  // Snapshot the mutated region and install it into a fresh database: the
  // install goes through the store, so the indexes must match the image.
  const auto live = db_->region();
  const std::vector<std::byte> image(live.begin(), live.end());
  auto other = make_controller_database();
  ASSERT_TRUE(other->install_image(image));
  EXPECT_TRUE(all_indexes_verify(*other));
  EXPECT_EQ(other->index(ids_.process).member_count(kGroupActiveCalls), 1u);

  // A full reload-from-disk (recovery escalation) rewinds the region to
  // the pristine image; the resync must follow it back.
  db_->reload_all_from_disk();
  EXPECT_TRUE(all_indexes_verify(*db_));
  EXPECT_EQ(db_->index(ids_.process).member_count(kGroupActiveCalls), 0u);
}

TEST_F(IndexTest, AuditHeaderRepairResyncsIndex) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);

  // Raw-corrupt the group word (bypassing the store): the region now
  // disagrees with the index, exactly the blind spot the audit covers.
  const std::size_t at = db_->layout().record_offset(ids_.process, r);
  store_u32(db_->region(), at + 8, 7);
  EXPECT_FALSE(db_->verify_index(ids_.process));

  // The audit's header repair writes through the store; its note_write
  // must drag the shadow index back into sync with the repaired header.
  direct::repair_header(*db_, ids_.process, r);
  EXPECT_TRUE(db_->verify_index(ids_.process));
}

TEST_F(IndexTest, ThroughStoreCorruptionResyncsIndex) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);

  // The injector's through_store mode: flip a bit, then mark_written —
  // the same path a wild software write takes through the memory system.
  const std::size_t status_at =
      db_->layout().record_offset(ids_.process, r) + 4;
  db_->region()[status_at] ^= std::byte{0x01};
  db_->mark_written(status_at, 1);
  EXPECT_TRUE(db_->verify_index(ids_.process));
}

TEST_F(IndexTest, AllocRecoversFromStaleFreeIndex) {
  // Raw-corrupt the status word of the lowest free record to "active"
  // without telling the store: the free index still advertises it. The
  // splice-mode alloc must detect the lie against the region, rebuild the
  // index, and hand out a record that really is free.
  const auto first = db_->index(ids_.process).first_free();
  ASSERT_TRUE(first.has_value());
  const std::size_t at = db_->layout().record_offset(ids_.process, *first);
  store_u32(db_->region(), at + 4, kStatusActive);

  obs::Recorder recorder;
  RecordIndex r = 0;
  {
    obs::ScopedRecorder scoped(recorder);
    ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  }
  EXPECT_NE(r, *first);
  EXPECT_EQ(load_u32(db_->region(),
                     db_->layout().record_offset(ids_.process, r) + 4),
            kStatusActive);
  EXPECT_EQ(recorder.snapshot().counter(obs::Counter::db_index_rebuilds), 1u);
  EXPECT_TRUE(db_->verify_index(ids_.process));
}

TEST_F(IndexTest, CrossCheckModeHealsDesyncBeforeSplice) {
  RecordIndex a = 0;
  RecordIndex b = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, a), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, b), Status::Ok);

  // Raw-corrupt record a's group word so the index is stale, then mutate
  // record b with the paranoid cross-check on: the API must notice the
  // desync, heal the index from the region, and splice correctly.
  const std::size_t at = db_->layout().record_offset(ids_.process, a);
  store_u32(db_->region(), at + 8, kGroupStableCalls);
  db_->set_index_cross_check(true);
  ASSERT_EQ(api_.move_rec(ids_.process, b, kGroupStableCalls), Status::Ok);
  EXPECT_TRUE(db_->verify_index(ids_.process));
  EXPECT_EQ(db_->index(ids_.process).group_of(a), kGroupStableCalls);
}

TEST_F(IndexTest, AllocExhaustionAndRefillThroughIndex) {
  const auto total = db_->schema().tables[ids_.connection].num_records;
  RecordIndex r = 0;
  for (RecordIndex i = 0; i < total; ++i) {
    ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r), Status::Ok);
  }
  EXPECT_EQ(db_->index(ids_.connection).free_count(), 0u);
  EXPECT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r),
            Status::NoFreeRecord);
  ASSERT_EQ(api_.free_rec(ids_.connection, 3), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r), Status::Ok);
  EXPECT_EQ(r, 3u);  // the index hands back the only (lowest) free slot
  EXPECT_TRUE(db_->verify_index(ids_.connection));
}

// Satellite: the observer accounting on DBalloc. The splice-mode alloc
// consults exactly one record header (the popped free slot); the legacy
// scan reads one header per scanned record. Each must charge the oracle
// for precisely the headers it actually read.
class CountingObserver : public RegionObserver {
 public:
  void on_legitimate_write(std::size_t, std::size_t) override {}
  void on_client_read(sim::ProcessId, std::size_t offset, std::size_t len) override {
    ++reads;
    last_offset = offset;
    last_len = len;
  }
  int reads = 0;
  std::size_t last_offset = 0;
  std::size_t last_len = 0;
};

TEST_F(IndexTest, SpliceAllocChargesExactlyOneHeaderRead) {
  RecordIndex r = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  }
  CountingObserver counting;
  db_->set_observer(&counting);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  db_->set_observer(nullptr);
  EXPECT_EQ(r, 5u);
  EXPECT_EQ(counting.reads, 1);
  EXPECT_EQ(counting.last_offset,
            db_->layout().record_offset(ids_.process, r) + 4);
  EXPECT_EQ(counting.last_len, 4u);
}

TEST_F(IndexTest, FullRelinkAllocChargesOneReadPerScannedHeader) {
  api_.set_link_mode(LinkMode::FullRelink);
  RecordIndex r = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  }
  CountingObserver counting;
  db_->set_observer(&counting);
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  db_->set_observer(nullptr);
  EXPECT_EQ(r, 5u);
  EXPECT_EQ(counting.reads, 6);  // headers 0..5 scanned, one charge each
}

}  // namespace
}  // namespace wtc::db
