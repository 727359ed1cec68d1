// Op-log harness: arbitrary bytes as an on-disk whole-run op log.
//
// The op-log reader (db/run_op_log.hpp) is the fourth trust boundary:
// --replay-oplog feeds whatever file it is handed straight into the
// zero-simulation workload engine and the replay auditor, so a hostile
// log must die as a typed error or replay harmlessly — never UB.
//
// Invariants:
//   * the decoder never crashes, and a rejected input yields a typed
//     error with NO events (all-or-nothing);
//   * the decoder's event storage is bounded by its input, whatever the
//     chunk headers claim: at most one event per 11 bytes (the smallest
//     encoded event);
//   * decoding is deterministic (two decodes agree byte-for-byte);
//   * an accepted log re-encodes to a stream that decodes to the same
//     events (the format is lossless for everything validation admits);
//   * an accepted log replays deterministically: applied to two fresh
//     harness-schema databases through the real DbApi, both end
//     byte-identical — and the replay auditor over the applied region
//     produces identical findings and stats at 1 and 2 worker threads,
//     and a trailing auditor fed the events in two appends (cut at an
//     input-derived point) ends with exactly the one-shot result.
//     (Findings may well be non-empty: an adversarial log can claim
//     update snapshots the API never produced. Flagging those is the
//     auditor working, not a harness failure.)
#include "fuzz/harness.hpp"

#include <memory>
#include <span>
#include <vector>

#include "audit/replay.hpp"
#include "common/crc32.hpp"
#include "db/api.hpp"
#include "db/run_op_log.hpp"

namespace wtc::fuzz {
namespace {

/// Ops actually interpreted (bounded): enough to exercise every DbApi
/// mutation path without letting a huge log stall the fuzzer.
constexpr std::size_t kMaxReplayOps = 2048;

void put_le32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

/// Single-chunk re-encode of decoded events (the reader accepts any
/// chunking, so this needn't mirror RunOpLog::serialize's batching).
std::vector<std::uint8_t> reencode(const std::vector<db::ApiEvent>& events) {
  std::vector<std::uint8_t> payload;
  sim::Time last_time = 0;
  for (const db::ApiEvent& event : events) {
    db::encode_op_log_event(payload, event, last_time);
  }
  std::vector<std::uint8_t> out;
  put_le32(out, db::kOpLogMagic);
  put_le32(out, db::kOpLogVersion);
  if (!events.empty()) {
    put_le32(out, static_cast<std::uint32_t>(payload.size()));
    put_le32(out, static_cast<std::uint32_t>(events.size()));
    put_le32(out, common::crc32(std::as_bytes(std::span(payload))));
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

bool same_event(const db::ApiEvent& a, const db::ApiEvent& b) {
  if (a.op != b.op || a.client != b.client || a.table != b.table ||
      a.record != b.record || a.time != b.time || a.is_update != b.is_update ||
      a.status != b.status || a.thread != b.thread || a.group != b.group ||
      a.field != b.field || a.payload_len != b.payload_len) {
    return false;
  }
  for (std::uint8_t f = 0; f < a.payload_len; ++f) {
    if (a.payload[f] != b.payload[f]) return false;
  }
  return true;
}

bool same_events(const std::vector<db::ApiEvent>& a,
                 const std::vector<db::ApiEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_event(a[i], b[i])) return false;
  }
  return true;
}

/// Re-issues the log's update ops through the real DbApi (the bounded
/// stand-in for the zero-simulation engine — the harness library does not
/// link the experiments layer). Invalid tables/records/groups must come
/// back as Status errors, never UB.
std::unique_ptr<db::Database> apply_bounded(
    std::span<const db::ApiEvent> events) {
  auto database = db::make_controller_database(harness_schema_params());
  sim::Time now = 0;
  db::DbApi api(*database, [&now]() { return now; });
  api.init(1);
  std::size_t applied = 0;
  for (const db::ApiEvent& event : events) {
    if (applied >= kMaxReplayOps) break;
    if (!event.is_update || event.status != db::Status::Ok) continue;
    now = event.time;
    switch (event.op) {
      case db::ApiOp::WriteRec:
        (void)api.write_rec(event.table, event.record,
                            std::span<const std::int32_t>(event.payload.data(),
                                                          event.payload_len));
        break;
      case db::ApiOp::WriteFld:
        if (event.payload_len >= 1) {
          (void)api.write_fld(event.table, event.record, event.field,
                              event.payload[0]);
        }
        break;
      case db::ApiOp::Move:
        (void)api.move_rec(event.table, event.record, event.group);
        break;
      case db::ApiOp::Alloc: {
        db::RecordIndex out = 0;
        (void)api.alloc_rec(event.table, event.group, out);
        break;
      }
      case db::ApiOp::Free:
        (void)api.free_rec(event.table, event.record);
        break;
      default:
        continue;
    }
    ++applied;
  }
  api.close();
  return database;
}

bool same_stats(const audit::ReplayStats& a, const audit::ReplayStats& b) {
  // makespan models the parallel critical path — the one stat that
  // legitimately differs between worker counts.
  return a.total_ops == b.total_ops && a.chains == b.chains &&
         a.unique_chains == b.unique_chains &&
         a.executed_ops == b.executed_ops &&
         a.mismatched_words == b.mismatched_words &&
         a.naive_cost == b.naive_cost && a.dedup_cost == b.dedup_cost;
}

bool same_findings(const std::vector<audit::Finding>& a,
                   const std::vector<audit::Finding>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].offset != b[i].offset || a[i].length != b[i].length ||
        a[i].table != b[i].table || a[i].record != b[i].record ||
        a[i].field != b[i].field) {
      return false;
    }
  }
  return true;
}

}  // namespace

int fuzz_oplog(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);
  const db::OpLogReadResult first = db::decode_op_log(bytes);
  require(first.events.capacity() <= size / 11,
          "decode reserves at most one event per 11 input bytes");
  if (!first.ok()) {
    require(first.events.empty(),
            "rejected log yields no events (all-or-nothing)");
    return 0;
  }

  const db::OpLogReadResult second = db::decode_op_log(bytes);
  require(second.ok(), "decode verdict is deterministic");
  require(same_events(first.events, second.events),
          "decoded events are deterministic");

  const db::OpLogReadResult reround = db::decode_op_log(reencode(first.events));
  require(reround.ok(), "re-encoded accepted log is accepted");
  require(same_events(first.events, reround.events),
          "encode/decode round-trip preserves accepted events");

  const std::span<const db::ApiEvent> events(
      first.events.data(), std::min(first.events.size(), kMaxReplayOps));
  const auto db_a = apply_bounded(events);
  const auto db_b = apply_bounded(events);
  const auto region_a = db_a->region();
  const auto region_b = db_b->region();
  require(region_a.size() == region_b.size() &&
              std::equal(region_a.begin(), region_a.end(), region_b.begin()),
          "accepted log replays to a byte-identical region");

  audit::ReplayConfig serial;
  serial.replay_threads = 1;
  serial.compare_grain_bytes = 512;
  audit::ReplayConfig parallel = serial;
  parallel.replay_threads = 2;
  audit::ReplayAuditor auditor_serial(*db_a, serial);
  audit::ReplayAuditor auditor_parallel(*db_a, parallel);
  const audit::ReplayResult one = auditor_serial.run(events);
  const audit::ReplayResult two = auditor_parallel.run(events);
  require(same_stats(one.stats, two.stats),
          "replay-audit stats are thread-count independent");
  require(same_findings(one.findings, two.findings),
          "replay-audit findings are thread-count independent");

  audit::ReplayAuditor trailing(*db_a, serial);
  const std::size_t cut = (data[size / 2] * 257u + size) % (events.size() + 1);
  (void)trailing.follow(events.first(cut));
  const audit::ReplayResult followed = trailing.follow(events);
  require(same_stats(followed.stats, one.stats) &&
              followed.stats.makespan == one.stats.makespan,
          "trailing replay-audit stats equal the one-shot run's");
  require(same_findings(followed.findings, one.findings),
          "trailing replay-audit findings equal the one-shot run's");
  return 0;
}

}  // namespace wtc::fuzz
