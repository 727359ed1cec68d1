// Whole-run op-log record/replay: the on-disk format round-trip (and its
// trust-boundary rejections), the deduplicated replay audit, and the
// zero-simulation workload engine's byte-identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "audit/engine.hpp"
#include "audit/replay.hpp"
#include "common/rng.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/run_op_log.hpp"
#include "experiments/audit_runner.hpp"
#include "experiments/campaign.hpp"
#include "experiments/replay_workload.hpp"

namespace wtc {
namespace {

/// A pristine controller DB with an instrumented single-client API and a
/// RunOpLog tee — the replay validity baseline.
struct Fixture {
  std::unique_ptr<db::Database> database = db::make_controller_database();
  db::ControllerIds ids = db::resolve_controller_ids(database->schema());
  db::RunOpLog oplog;
  sim::Time now = 0;
  db::DbApi api{*database, [this]() { return now; }};

  Fixture() {
    api.set_audit_hooks(&oplog);
    api.init(1);
  }

  /// One call lifecycle; `keep` leaves the triple active (and returns the
  /// records through the out params).
  void call(std::int32_t codec, bool keep = false, db::RecordIndex* out_conn = nullptr,
            db::RecordIndex* out_res = nullptr) {
    db::RecordIndex p = 0, c = 0, r = 0;
    ASSERT_EQ(api.alloc_rec(ids.process, db::kGroupActiveCalls, p),
              db::Status::Ok);
    ASSERT_EQ(api.alloc_rec(ids.connection, db::kGroupActiveCalls, c),
              db::Status::Ok);
    ASSERT_EQ(api.alloc_rec(ids.resource, db::kGroupActiveCalls, r),
              db::Status::Ok);
    now += static_cast<sim::Time>(sim::kMillisecond);
    api.write_fld(ids.process, p, ids.p_process_id, db::key_of(p));
    api.write_fld(ids.process, p, ids.p_connection_id, db::key_of(c));
    api.write_fld(ids.connection, c, ids.c_connection_id, db::key_of(c));
    api.write_fld(ids.connection, c, ids.c_channel_id, db::key_of(r));
    api.write_fld(ids.connection, c, ids.c_codec, codec);
    api.write_fld(ids.resource, r, ids.r_channel_id, db::key_of(r));
    api.write_fld(ids.resource, r, ids.r_process_id, db::key_of(p));
    api.move_rec(ids.process, p, db::kGroupStableCalls);
    now += static_cast<sim::Time>(sim::kMillisecond);
    if (keep) {
      if (out_conn != nullptr) *out_conn = c;
      if (out_res != nullptr) *out_res = r;
      return;
    }
    api.free_rec(ids.resource, r);
    api.free_rec(ids.connection, c);
    api.free_rec(ids.process, p);
  }
};

void expect_events_equal(const std::vector<db::ApiEvent>& a,
                         const std::vector<db::ApiEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].op, b[i].op) << "event " << i;
    EXPECT_EQ(a[i].client, b[i].client) << "event " << i;
    EXPECT_EQ(a[i].table, b[i].table) << "event " << i;
    EXPECT_EQ(a[i].record, b[i].record) << "event " << i;
    EXPECT_EQ(a[i].time, b[i].time) << "event " << i;
    EXPECT_EQ(a[i].is_update, b[i].is_update) << "event " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "event " << i;
    EXPECT_EQ(a[i].thread, b[i].thread) << "event " << i;
    EXPECT_EQ(a[i].group, b[i].group) << "event " << i;
    EXPECT_EQ(a[i].field, b[i].field) << "event " << i;
    EXPECT_EQ(a[i].payload_len, b[i].payload_len) << "event " << i;
    for (std::uint8_t f = 0; f < a[i].payload_len; ++f) {
      EXPECT_EQ(a[i].payload[f], b[i].payload[f]) << "event " << i;
    }
  }
}

// --- on-disk format -------------------------------------------------------

TEST(OpLogFormat, InMemoryRoundTrip) {
  Fixture fx;
  for (int call = 0; call < 7; ++call) {
    fx.call(call % 3);
  }
  fx.api.close();
  ASSERT_GT(fx.oplog.recorded(), 0u);

  const std::vector<std::uint8_t> bytes = fx.oplog.serialize();
  const db::OpLogReadResult decoded = db::decode_op_log(bytes);
  ASSERT_TRUE(decoded.ok()) << db::to_string(decoded.error);
  expect_events_equal(fx.oplog.events(), decoded.events);
}

TEST(OpLogFormat, StreamingWriterMatchesSerialize) {
  const std::string path = "test_oplog_stream.oplog";
  Fixture fx;
  // The writer streams events recorded from open_file on — the fixture's
  // DBinit predates it and stays in-memory only.
  ASSERT_TRUE(fx.oplog.open_file(path));
  // Cross several chunk boundaries (chunk_events defaults to 1024).
  for (int call = 0; call < 300; ++call) {
    fx.call(call % 5);
  }
  fx.api.close();
  ASSERT_TRUE(fx.oplog.close_file());

  const db::OpLogReadResult decoded = db::load_op_log(path);
  ASSERT_TRUE(decoded.ok()) << db::to_string(decoded.error);
  const std::vector<db::ApiEvent> streamed(fx.oplog.events().begin() + 1,
                                           fx.oplog.events().end());
  expect_events_equal(streamed, decoded.events);
  std::remove(path.c_str());
}

TEST(OpLogFormat, HeaderOnlyIsEmpty) {
  db::RunOpLog empty;
  const db::OpLogReadResult decoded = db::decode_op_log(empty.serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.events.empty());
}

TEST(OpLogFormat, RejectsBadMagicTruncationAndBadCrc) {
  Fixture fx;
  fx.call(1);
  fx.api.close();
  const std::vector<std::uint8_t> bytes = fx.oplog.serialize();
  ASSERT_GT(bytes.size(), 24u);

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(db::decode_op_log(bad_magic).error, db::OpLogError::BadMagic);

  // Truncation anywhere — inside the header, a chunk frame, or the
  // payload — must yield Truncated (or BadMagic for a cut header), and
  // never events from the damaged tail.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() - 5, std::size_t{14}, std::size_t{6}}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    const db::OpLogReadResult result = db::decode_op_log(cut);
    EXPECT_FALSE(result.ok()) << "kept " << keep;
    EXPECT_TRUE(result.events.empty()) << "kept " << keep;
  }

  auto bad_crc = bytes;
  bad_crc.back() ^= 0x01;  // last payload byte
  const db::OpLogReadResult result = db::decode_op_log(bad_crc);
  EXPECT_EQ(result.error, db::OpLogError::BadCrc);
  EXPECT_TRUE(result.events.empty());
}

TEST(OpLogFormat, DamagedLaterChunkRejectsEveryEvent) {
  // Three chunks (1024-event batching); damage confined to the last one
  // must still reject the whole log with no events from the intact ones.
  Fixture fx;
  for (int call = 0; call < 200; ++call) {
    fx.call(call % 5);
  }
  fx.api.close();
  const std::vector<std::uint8_t> bytes = fx.oplog.serialize();
  ASSERT_GT(fx.oplog.recorded(), 2048u);

  auto garbage_tail = bytes;
  garbage_tail.insert(garbage_tail.end(), {1, 2, 3});
  auto bad_crc = bytes;
  bad_crc.back() ^= 0x01;
  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 1);
  for (const auto& [input, error] :
       {std::pair{garbage_tail, db::OpLogError::Truncated},
        std::pair{bad_crc, db::OpLogError::BadCrc},
        std::pair{cut, db::OpLogError::Truncated}}) {
    const db::OpLogReadResult result = db::decode_op_log(input);
    EXPECT_EQ(result.error, error);
    EXPECT_TRUE(result.events.empty());
  }
}

// --- deduplicated replay audit -------------------------------------------

TEST(ReplayAudit, ExecutesEachUniqueChainOnce) {
  Fixture fx;
  // 30 identical call cycles + 2 distinct ones: per table, the identical
  // cycles form one dedup class per lifecycle shape.
  for (int call = 0; call < 30; ++call) {
    fx.call(7);
  }
  fx.call(1);
  fx.call(2);
  fx.api.close();

  audit::ReplayAuditor auditor(*fx.database, audit::ReplayConfig{});
  const audit::ReplayResult result = auditor.run(fx.oplog.events());
  EXPECT_TRUE(result.findings.empty());
  const audit::ReplayStats& s = result.stats;
  // 32 lifecycles on each of 3 tables.
  EXPECT_EQ(s.chains, 96u);
  // process and resource chains don't depend on the codec: 1 unique
  // each; connection has 3 codecs -> 3 uniques.
  EXPECT_EQ(s.unique_chains, 5u);
  EXPECT_GT(s.duplicate_ratio(), 0.30);
  // Each unique chain executed exactly once: the executed-op count is
  // the sum of one representative per class, nothing more.
  EXPECT_LT(s.executed_ops, s.total_ops);
  EXPECT_EQ(s.naive_cost > 0, true);
  EXPECT_LT(s.dedup_cost, s.naive_cost / 3);
}

TEST(ReplayAudit, StartStateSplitsChainsNotBornAtAlloc) {
  // The same write to two populated subscriber records: equal op
  // sequences, different pristine start states (distinct ids and auth
  // keys), so two dedup classes — one would replay a wrong end state.
  Fixture fx;
  fx.api.write_fld(fx.ids.subscriber, 0, fx.ids.s_privileges, 5);
  fx.api.write_fld(fx.ids.subscriber, 1, fx.ids.s_privileges, 5);
  fx.api.close();
  audit::ReplayAuditor auditor(*fx.database, audit::ReplayConfig{});
  const audit::ReplayResult result = auditor.run(fx.oplog.events());
  EXPECT_EQ(result.stats.chains, 2u);
  EXPECT_EQ(result.stats.unique_chains, 2u);
  EXPECT_TRUE(result.findings.empty());
}

TEST(ReplayAudit, DetectsSemanticCorruptionStructuralArmsMiss) {
  Fixture fx;
  db::RecordIndex conn = 0, res = 0;
  fx.call(3, true, &conn, &res);
  for (int call = 0; call < 5; ++call) {
    fx.call(call % 2);
  }
  fx.api.close();

  db::Database& db = *fx.database;
  // In-range drift of two unruled dynamic fields, behind the API's back.
  const std::size_t billing_at =
      db.layout().field_offset(fx.ids.connection, conn, fx.ids.c_billing_units);
  const std::size_t quality_at =
      db.layout().field_offset(fx.ids.resource, res, fx.ids.r_link_quality);
  db::store_i32(db.region(), billing_at,
                db::load_i32(db.region(), billing_at) + 1);
  db.mark_written(billing_at, 4);
  db::store_i32(db.region(), quality_at,
                db::load_i32(db.region(), quality_at) + 1);
  db.mark_written(quality_at, 4);

  // The structural arms see nothing: headers intact, no range rule, FK
  // loop unbroken, no static data touched.
  audit::EngineConfig config;
  sim::Time audit_now = 60 * sim::kSecond;
  audit::AuditEngine engine(db, config, [&audit_now]() { return audit_now; });
  std::uint64_t structural = engine.check_static().findings;
  for (db::TableId t = 0;
       t < static_cast<db::TableId>(db.schema().tables.size()); ++t) {
    structural += engine.check_structure(t).findings;
    structural += engine.check_ranges(t).findings;
  }
  structural += engine.check_semantics().findings;
  EXPECT_EQ(structural, 0u);

  // The replay audit flags exactly the two corrupted words.
  audit::ReplayAuditor auditor(db, audit::ReplayConfig{});
  const audit::ReplayResult result = auditor.run(fx.oplog.events());
  EXPECT_EQ(result.stats.mismatched_words, 2u);
  ASSERT_EQ(result.findings.size(), 2u);
  bool billing_found = false, quality_found = false;
  for (const audit::Finding& f : result.findings) {
    EXPECT_EQ(f.technique, audit::Technique::ReplayCheck);
    if (f.offset == billing_at) billing_found = true;
    if (f.offset == quality_at) quality_found = true;
  }
  EXPECT_TRUE(billing_found);
  EXPECT_TRUE(quality_found);
}

TEST(ReplayAudit, CleanRunHasNoFalseMismatches) {
  Fixture fx;
  for (int call = 0; call < 12; ++call) {
    db::RecordIndex conn = 0, res = 0;
    fx.call(call % 4, call % 3 == 0, &conn, &res);
  }
  fx.api.close();
  audit::ReplayAuditor auditor(*fx.database, audit::ReplayConfig{});
  const audit::ReplayResult result = auditor.run(fx.oplog.events());
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.stats.mismatched_words, 0u);
}

TEST(ReplayAudit, BitIdenticalAtAnyThreadCount) {
  Fixture fx;
  db::RecordIndex conn = 0;
  for (int call = 0; call < 20; ++call) {
    fx.call(call % 6, call == 4, &conn, nullptr);
  }
  fx.api.close();
  // One corruption so findings are non-trivial in every arm.
  db::Database& db = *fx.database;
  const std::size_t at =
      db.layout().field_offset(fx.ids.connection, conn, fx.ids.c_billing_units);
  db::store_i32(db.region(), at, db::load_i32(db.region(), at) ^ 0x55);
  db.mark_written(at, 4);

  std::vector<audit::ReplayResult> results;
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    audit::ReplayConfig config;
    config.replay_threads = threads;
    config.compare_grain_bytes = 256;  // many slices even on a small region
    audit::ReplayAuditor auditor(db, config);
    results.push_back(auditor.run(fx.oplog.events()));
  }
  const audit::ReplayResult& base = results.front();
  ASSERT_FALSE(base.findings.empty());
  for (const audit::ReplayResult& r : results) {
    ASSERT_EQ(r.findings.size(), base.findings.size());
    for (std::size_t i = 0; i < r.findings.size(); ++i) {
      EXPECT_EQ(r.findings[i].offset, base.findings[i].offset);
      EXPECT_EQ(r.findings[i].length, base.findings[i].length);
      EXPECT_EQ(r.findings[i].table, base.findings[i].table);
      EXPECT_EQ(r.findings[i].record, base.findings[i].record);
      EXPECT_EQ(r.findings[i].field, base.findings[i].field);
    }
    EXPECT_EQ(r.stats.chains, base.stats.chains);
    EXPECT_EQ(r.stats.unique_chains, base.stats.unique_chains);
    EXPECT_EQ(r.stats.executed_ops, base.stats.executed_ops);
    EXPECT_EQ(r.stats.mismatched_words, base.stats.mismatched_words);
    EXPECT_EQ(r.stats.naive_cost, base.stats.naive_cost);
    EXPECT_EQ(r.stats.dedup_cost, base.stats.dedup_cost);
  }
}

/// Every output of a replay cycle, the modelled makespan included.
void expect_same_result(const audit::ReplayResult& a,
                        const audit::ReplayResult& b) {
  EXPECT_EQ(a.stats.total_ops, b.stats.total_ops);
  EXPECT_EQ(a.stats.chains, b.stats.chains);
  EXPECT_EQ(a.stats.unique_chains, b.stats.unique_chains);
  EXPECT_EQ(a.stats.executed_ops, b.stats.executed_ops);
  EXPECT_EQ(a.stats.mismatched_words, b.stats.mismatched_words);
  EXPECT_EQ(a.stats.naive_cost, b.stats.naive_cost);
  EXPECT_EQ(a.stats.dedup_cost, b.stats.dedup_cost);
  EXPECT_EQ(a.stats.makespan, b.stats.makespan);
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].offset, b.findings[i].offset);
    EXPECT_EQ(a.findings[i].length, b.findings[i].length);
    EXPECT_EQ(a.findings[i].table, b.findings[i].table);
    EXPECT_EQ(a.findings[i].record, b.findings[i].record);
    EXPECT_EQ(a.findings[i].field, b.findings[i].field);
  }
}

TEST(ReplayAudit, PinnedStatsOnShippedLogs) {
  // Chain and dedup-class counts of the shipped logs: a change to the
  // grouping or the signature mixer that merges or splits a dedup class
  // moves them.
  struct Pinned {
    const char* name;
    std::uint64_t total_ops, chains, unique_chains, executed_ops;
    sim::Duration dedup_cost, makespan_1, makespan_4;
  };
  for (const Pinned& pinned :
       {Pinned{"handoff_storm", 12030, 1800, 14, 123, 10000, 10000, 2680},
        Pinned{"registration_avalanche", 675, 135, 100, 500, 40160, 40160, 10040},
        Pinned{"diurnal_load", 5214, 1008, 41, 252, 20320, 20320, 5160}}) {
    SCOPED_TRACE(pinned.name);
    const db::OpLogReadResult log = db::load_op_log(
        std::string(WTC_WORKLOADS_DIR) + "/" + pinned.name + ".oplog");
    ASSERT_TRUE(log.ok()) << db::to_string(log.error);
    // Applied to the default controller database it was recorded on.
    const auto database = db::make_controller_database();
    experiments::apply_op_log(*database, log.events);
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      audit::ReplayConfig config;
      config.replay_threads = threads;
      audit::ReplayAuditor auditor(*database, config);
      const audit::ReplayResult result = auditor.run(log.events);
      EXPECT_TRUE(result.findings.empty());
      EXPECT_EQ(result.stats.mismatched_words, 0u);
      EXPECT_EQ(result.stats.total_ops, pinned.total_ops);
      EXPECT_EQ(result.stats.chains, pinned.chains);
      EXPECT_EQ(result.stats.unique_chains, pinned.unique_chains);
      EXPECT_EQ(result.stats.executed_ops, pinned.executed_ops);
      EXPECT_EQ(result.stats.dedup_cost, pinned.dedup_cost);
      // `replay_threads` is only the worker count of the makespan model.
      EXPECT_EQ(result.stats.makespan,
                threads == 1 ? pinned.makespan_1 : pinned.makespan_4);
    }
  }
}

TEST(ReplayAudit, ReusedAuditorMatchesFreshOne) {
  // One auditor keeps its chain slots, op links, end states and shadow
  // across runs (as the audit process's replay element and the perf
  // bench use it); stale scratch from a longer, shorter or dirtier run
  // must never leak into the next result. Every fourth call stays
  // active, so records the prefix never touches end the whole log away
  // from their pristine state.
  Fixture fx;
  for (int call = 0; call < 48; ++call) {
    fx.call(call % 5, call % 4 == 0);
  }
  fx.api.close();
  db::Database& db = *fx.database;
  const std::span<const db::ApiEvent> whole(fx.oplog.events());
  const std::span<const db::ApiEvent> prefix = whole.first(whole.size() / 3);
  // The suffix starts at a field write, mid-lifecycle: its first ops on
  // that call's records are not Allocs.
  std::size_t mid = whole.size() / 2;
  while (whole[mid].op != db::ApiOp::WriteFld) {
    ++mid;
  }
  const std::span<const db::ApiEvent> suffix = whole.subspan(mid);
  const std::size_t corrupt_at = db.layout().field_offset(
      fx.ids.process, db.layout().table(fx.ids.process).num_records / 2,
      fx.ids.p_task_token);

  for (const std::size_t threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    audit::ReplayConfig config;
    config.replay_threads = threads;
    config.compare_grain_bytes = 1024;
    audit::ReplayAuditor reused(db, config);
    const auto step = [&](std::span<const db::ApiEvent> events) {
      audit::ReplayAuditor fresh(db, config);
      const audit::ReplayResult result = reused.run(events);
      expect_same_result(result, fresh.run(events));
      return result;
    };
    EXPECT_TRUE(step(whole).findings.empty());
    step(prefix);
    EXPECT_TRUE(step(whole).findings.empty());
    step(suffix);
    const std::int32_t original = db::load_i32(db.region(), corrupt_at);
    db::store_i32(db.region(), corrupt_at, original ^ 0x40);
    EXPECT_EQ(step(whole).stats.mismatched_words, 1u);
    db::store_i32(db.region(), corrupt_at, original);
    EXPECT_TRUE(step(whole).findings.empty());
  }
}

TEST(ReplayAudit, FollowMatchesFreshRunAtEveryAppend) {
  // A trailing auditor fed ever longer prefixes of each shipped log must
  // equal a fresh run() over the same prefix at every step: cut at seeded
  // points (half of them moved to a field write, so a lifecycle is split
  // across two calls), one step with nothing appended, a live word
  // corrupted for a few steps, and one shorter prefix that starts over.
  for (const char* name :
       {"handoff_storm", "registration_avalanche", "diurnal_load"}) {
    SCOPED_TRACE(name);
    const db::OpLogReadResult log =
        db::load_op_log(std::string(WTC_WORKLOADS_DIR) + "/" + name + ".oplog");
    ASSERT_TRUE(log.ok()) << db::to_string(log.error);
    const auto database = db::make_controller_database();
    experiments::apply_op_log(*database, log.events);
    db::Database& db = *database;
    const std::span<const db::ApiEvent> whole(log.events);

    common::Rng rng(0xF0110);
    std::vector<std::size_t> cuts;
    for (int i = 0; i < 24; ++i) {
      std::size_t cut = rng.uniform(whole.size() + 1);
      while (i % 2 == 0 && cut < whole.size() &&
             whole[cut].op != db::ApiOp::WriteFld) {
        ++cut;
      }
      cuts.push_back(cut);
    }
    std::sort(cuts.begin(), cuts.end());
    const std::size_t repeat = cuts[7];
    const std::size_t shorter = cuts[3];
    cuts.insert(cuts.begin() + 8, repeat);    // nothing appended
    cuts.insert(cuts.begin() + 16, shorter);  // shorter: starts over
    ASSERT_LT(shorter, cuts[15]);
    cuts.push_back(whole.size());

    const auto ids = db::resolve_controller_ids(db.schema());
    const std::size_t corrupt_at = db.layout().field_offset(
        ids.connection, db.layout().table(ids.connection).num_records / 3,
        ids.c_billing_units);
    const std::int32_t original = db::load_i32(db.region(), corrupt_at);

    audit::ReplayConfig config;
    config.replay_threads = 3;
    config.compare_grain_bytes = 1024;
    audit::ReplayAuditor trailing(db, config);
    for (std::size_t step = 0; step < cuts.size(); ++step) {
      SCOPED_TRACE(step);
      db::store_i32(db.region(), corrupt_at,
                    step >= 5 && step < 9 ? original ^ 0x11 : original);
      const std::span<const db::ApiEvent> prefix = whole.first(cuts[step]);
      audit::ReplayAuditor fresh(db, config);
      expect_same_result(trailing.follow(prefix), fresh.run(prefix));
    }
    EXPECT_TRUE(trailing.follow(whole).findings.empty());
  }
}

/// The 64-bit word that takes audit::mix_signature from `from` to `to`:
/// the mixer's steps inverted (xor-shift, then the odd multiplier).
std::uint64_t mixer_preimage(std::uint64_t from, std::uint64_t to) {
  constexpr std::uint64_t kOdd = 0x9E3779B97F4A7C15ull;
  std::uint64_t inverse = kOdd;  // Newton: correct bits double each step
  for (int i = 0; i < 5; ++i) {
    inverse *= 2 - kOdd * inverse;
  }
  return ((to ^ (to >> 32)) * inverse) ^ from;
}

/// A successful update event of `op` on (table, record).
db::ApiEvent update(db::ApiOp op, db::TableId table, db::RecordIndex record) {
  db::ApiEvent event;
  event.op = op;
  event.table = table;
  event.record = record;
  event.is_update = true;
  return event;
}

/// A two-value WriteRec on (table, record) whose op takes a chain's
/// signature from `from` to `to`.
db::ApiEvent colliding_write(db::TableId table, db::RecordIndex record,
                             std::uint64_t from, std::uint64_t to) {
  db::ApiEvent event = update(db::ApiOp::WriteRec, table, record);
  event.payload_len = 2;
  // The header word mix_op folds first: op kind and payload length.
  const std::uint64_t header = audit::mix_signature(
      from, static_cast<std::uint64_t>(db::ApiOp::WriteRec) | 2ull << 8);
  const std::uint64_t word = mixer_preimage(header, to);
  event.payload[0] = static_cast<std::int32_t>(word & 0xFFFFFFFFu);
  event.payload[1] = static_cast<std::int32_t>(word >> 32);
  return event;
}

TEST(ReplayAudit, FollowIsExactUnderSignatureCollisions) {
  // A signature collision merges two dedup classes, so a record takes
  // its executor's (wrong) end state in a fresh run(). The trailing
  // auditor must reproduce that too: a record whose own chain did not
  // grow is rewritten when its executor grows without changing its
  // signature, or when its class passes to another executor.
  Fixture fx;
  const db::TableId t = fx.ids.process;
  const std::uint64_t born =
      audit::mix_op(audit::chain_seed(t), update(db::ApiOp::Alloc, t, 0));
  const auto write_field = [&](db::RecordIndex record, std::int32_t value) {
    db::ApiEvent event = update(db::ApiOp::WriteFld, t, record);
    event.payload_len = 1;
    event.payload[0] = value;
    return event;
  };
  const std::uint64_t written = audit::mix_op(born, write_field(0, 7));

  std::vector<db::ApiEvent> events{
      // Records 0 and 1 are born alike: record 0 executes both.
      update(db::ApiOp::Alloc, t, 0), update(db::ApiOp::Alloc, t, 1),
      // Records 2-4 end with one signature: record 2 through a colliding
      // write, so it executes all three with its own end state.
      update(db::ApiOp::Alloc, t, 2), colliding_write(t, 2, born, written),
      update(db::ApiOp::Alloc, t, 3), write_field(3, 7),
      update(db::ApiOp::Alloc, t, 4), write_field(4, 7),
      // Record 0 grows without changing its signature.
      colliding_write(t, 0, born, born),
      // Record 2 grows out of the class: record 3 executes it now.
      write_field(2, 1)};
  ASSERT_EQ(audit::mix_op(born, events[3]), written);
  ASSERT_EQ(audit::mix_op(born, events[8]), born);

  const std::span<const db::ApiEvent> log(events);
  audit::ReplayAuditor trailing(*fx.database, audit::ReplayConfig{});
  for (const std::size_t cut : {8u, 9u, 10u}) {
    SCOPED_TRACE(cut);
    audit::ReplayAuditor fresh(*fx.database, audit::ReplayConfig{});
    expect_same_result(trailing.follow(log.first(cut)), fresh.run(log.first(cut)));
  }
}

// --- zero-simulation workload engine --------------------------------------

TEST(ReplayWorkload, ByteIdenticalToRecordingRun) {
  const std::string path = "test_oplog_record.oplog";
  experiments::AuditRunParams params;
  params.duration = 120 * static_cast<sim::Duration>(sim::kSecond);
  params.injections_enabled = false;  // clean: region log-explainable
  params.capture_final_region = true;
  params.record_oplog_path = path;
  params.seed = 0x5EED;

  const auto recorded = experiments::run_audit_experiment(params);
  ASSERT_GT(recorded.oplog_recorded, 0u);
  ASSERT_FALSE(recorded.final_region.empty());

  auto replay_params = params;
  replay_params.record_oplog_path.clear();
  replay_params.replay_oplog_path = path;
  const auto replayed = experiments::run_audit_experiment(replay_params);
  EXPECT_EQ(replayed.replay_divergences, 0u);
  EXPECT_GT(replayed.replay_applied, 0u);
  EXPECT_EQ(recorded.final_region, replayed.final_region);
  std::remove(path.c_str());
}

TEST(ReplayWorkload, DeterministicAcrossCampaignJobs) {
  const std::string path = "test_oplog_jobs.oplog";
  experiments::AuditRunParams params;
  params.duration = 60 * static_cast<sim::Duration>(sim::kSecond);
  params.injections_enabled = false;
  params.capture_final_region = true;
  params.record_oplog_path = path;
  params.seed = 0x10B5;
  const auto recorded = experiments::run_audit_experiment(params);
  ASSERT_GT(recorded.oplog_recorded, 0u);

  auto replay_params = params;
  replay_params.record_oplog_path.clear();
  replay_params.replay_oplog_path = path;

  std::vector<std::vector<std::vector<std::byte>>> regions;
  for (const std::size_t jobs : {1u, 3u}) {
    experiments::CampaignOptions options;
    options.jobs = jobs;
    options.stderr_progress = 0;
    regions.push_back(experiments::run_campaign(
        4,
        [&](std::size_t) {
          return experiments::run_audit_experiment(replay_params).final_region;
        },
        options));
  }
  ASSERT_EQ(regions[0].size(), regions[1].size());
  for (std::size_t i = 0; i < regions[0].size(); ++i) {
    EXPECT_EQ(regions[0][i], regions[1][i]) << "run " << i;
    EXPECT_EQ(regions[0][i], recorded.final_region) << "run " << i;
  }
  std::remove(path.c_str());
}

// --- replay audit element wiring ------------------------------------------

TEST(ReplayAuditElement, PinnedStatsWithInjections) {
  // The element's trailing auditor must report exactly what re-running
  // the whole log at every tick reported: run count and the last tick's
  // stats, pinned from the re-running build, with injected corruption
  // under replay so mismatches are non-zero.
  struct Pinned {
    std::uint64_t seed, runs, total_ops, chains, unique_chains, executed_ops,
        mismatched_words;
    sim::Duration naive_cost, dedup_cost, makespan;
  };
  for (const Pinned& pinned :
       {Pinned{0x1701, 20, 1823, 561, 552, 1796, 12, 146000, 143840, 143840},
        Pinned{0x51DE, 20, 1917, 588, 578, 1887, 1, 153520, 151120, 151120}}) {
    SCOPED_TRACE(pinned.seed);
    experiments::AuditRunParams params;
    params.duration = 400 * static_cast<sim::Duration>(sim::kSecond);
    params.audit.replay_audit = true;
    params.seed = pinned.seed;
    const auto result = experiments::run_audit_experiment(params);
    ASSERT_GT(result.oracle.injected, 0u);
    EXPECT_EQ(result.replay_runs, pinned.runs);
    EXPECT_EQ(result.replay.total_ops, pinned.total_ops);
    EXPECT_EQ(result.replay.chains, pinned.chains);
    EXPECT_EQ(result.replay.unique_chains, pinned.unique_chains);
    EXPECT_EQ(result.replay.executed_ops, pinned.executed_ops);
    EXPECT_EQ(result.replay.mismatched_words, pinned.mismatched_words);
    EXPECT_EQ(result.replay.naive_cost, pinned.naive_cost);
    EXPECT_EQ(result.replay.dedup_cost, pinned.dedup_cost);
    EXPECT_EQ(result.replay.makespan, pinned.makespan);
  }
}

TEST(ReplayAuditElement, RunsCleanInsideTheAuditProcess) {
  experiments::AuditRunParams params;
  params.duration = 200 * static_cast<sim::Duration>(sim::kSecond);
  params.injections_enabled = false;
  params.audit.replay_audit = true;
  params.seed = 0xE1E;
  const auto result = experiments::run_audit_experiment(params);
  EXPECT_GT(result.replay_runs, 0u);
  EXPECT_EQ(result.replay.mismatched_words, 0u);
  EXPECT_GT(result.replay.total_ops, 0u);
}

}  // namespace
}  // namespace wtc
