// oplog_inspect — offline inspection of whole-run op-log captures
// (--record-oplog output, workloads/*.oplog).
//
// Decodes the log through the same trust-boundary reader the replay
// consumers use (db/run_op_log.hpp), then summarizes: event and byte
// counts, per-op / per-thread / per-table breakdowns, and the
// chain-dedup ratio the replay audit's deduplicated re-execution will
// see — per-(table,record) op chains hashed the record-agnostic way
// (start-state-independent for alloc-first chains), so the ratio printed
// here predicts the `replay.deduped / replay.chains` counters.
//
//   oplog_inspect <log>            text summary
//   oplog_inspect --json <log>     JSON (for CI artifact diffing)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/replay.hpp"
#include "common/table_printer.hpp"
#include "db/run_op_log.hpp"
#include "report.hpp"

using namespace wtc;

namespace {

const char* op_name(db::ApiOp op) {
  switch (op) {
    case db::ApiOp::Init: return "DBinit";
    case db::ApiOp::Close: return "DBclose";
    case db::ApiOp::ReadRec: return "DBread";
    case db::ApiOp::ReadFld: return "DBreadfield";
    case db::ApiOp::WriteRec: return "DBwrite";
    case db::ApiOp::WriteFld: return "DBwritefield";
    case db::ApiOp::Move: return "DBmove";
    case db::ApiOp::Alloc: return "DBalloc";
    case db::ApiOp::Free: return "DBfree";
    case db::ApiOp::TxnBegin: return "DBtxnbegin";
    case db::ApiOp::TxnEnd: return "DBtxnend";
  }
  return "?";
}

/// Chain signature the way audit::ReplayAuditor streams it: the table
/// seed, then every op through the auditor's own per-op step. The auditor
/// also mixes the pristine start state for chains that do not begin with
/// DBalloc; this tool has no region, so for those chains it mixes the
/// record index instead (start states of distinct records may still
/// collide, so the printed ratio is a lower bound on the auditor's).
std::uint64_t chain_signature(const std::vector<const db::ApiEvent*>& ops) {
  std::uint64_t hash = audit::chain_seed(ops.front()->table);
  if (ops.front()->op != db::ApiOp::Alloc) {
    hash = audit::mix_signature(hash, ops.front()->record);
  }
  for (const db::ApiEvent* event : ops) {
    hash = audit::mix_op(hash, *event);
  }
  return hash;
}

struct Summary {
  std::size_t events = 0;
  std::size_t updates = 0;
  sim::Time first_time = 0;
  sim::Time last_time = 0;
  std::map<db::ApiOp, std::size_t> by_op;
  std::map<std::uint32_t, std::size_t> by_thread;
  std::map<db::TableId, std::size_t> by_table;
  std::size_t chains = 0;
  std::size_t unique_chains = 0;

  double duplicate_ratio() const {
    return chains == 0 ? 0.0
                       : static_cast<double>(chains - unique_chains) /
                             static_cast<double>(chains);
  }
};

Summary summarize(const std::vector<db::ApiEvent>& events) {
  Summary s;
  s.events = events.size();
  // Chain grouping mirrors audit::ReplayAuditor: per-(table, record),
  // segmented at lifecycle boundaries (every DBalloc starts a new chain).
  std::vector<std::vector<const db::ApiEvent*>> chains;
  std::map<std::uint64_t, std::size_t> chain_of;
  for (const db::ApiEvent& event : events) {
    if (s.by_op.empty()) {
      s.first_time = event.time;
    }
    s.last_time = event.time;
    ++s.by_op[event.op];
    ++s.by_thread[event.thread];
    ++s.by_table[event.table];
    if (event.is_update) {
      ++s.updates;
    }
    if (audit::replayable(event)) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(event.table) << 32) | event.record;
      auto it = chain_of.find(key);
      if (it == chain_of.end() || event.op == db::ApiOp::Alloc) {
        it = chain_of.insert_or_assign(key, chains.size()).first;
        chains.emplace_back();
      }
      chains[it->second].push_back(&event);
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> unique;
  for (const auto& ops : chains) {
    ++s.chains;
    ++unique[chain_signature(ops)];
  }
  s.unique_chains = unique.size();
  return s;
}

void print_text(const std::string& path, std::size_t bytes, const Summary& s) {
  std::printf("op log %s: %zu bytes, %zu events (%zu updates), time %llu..%llu\n",
              path.c_str(), bytes, s.events, s.updates,
              static_cast<unsigned long long>(s.first_time),
              static_cast<unsigned long long>(s.last_time));
  common::TablePrinter ops({"op", "events"});
  for (const auto& [op, count] : s.by_op) {
    ops.add_row({op_name(op), std::to_string(count)});
  }
  std::printf("%s", ops.render().c_str());
  common::TablePrinter threads({"thread", "events"});
  for (const auto& [thread, count] : s.by_thread) {
    threads.add_row({std::to_string(thread), std::to_string(count)});
  }
  std::printf("%s", threads.render().c_str());
  common::TablePrinter tables({"table", "events"});
  for (const auto& [table, count] : s.by_table) {
    tables.add_row({std::to_string(table), std::to_string(count)});
  }
  std::printf("%s", tables.render().c_str());
  std::printf(
      "replay chains: %zu (%zu unique, duplicate ratio %.1f%% — the replay "
      "audit executes only the unique ones)\n",
      s.chains, s.unique_chains, 100.0 * s.duplicate_ratio());
}

void print_json(const std::string& path, std::size_t bytes, const Summary& s) {
  bench::Json doc;
  doc.field("file", path)
      .field("bytes", bytes)
      .field("events", s.events)
      .field("updates", s.updates)
      .field("first_time", s.first_time)
      .field("last_time", s.last_time);
  bench::Json& by_op = doc.object("by_op");
  for (const auto& [op, count] : s.by_op) {
    by_op.field(op_name(op), count);
  }
  bench::Json& by_thread = doc.object("by_thread");
  for (const auto& [thread, count] : s.by_thread) {
    by_thread.field(std::to_string(thread), count);
  }
  bench::Json& by_table = doc.object("by_table");
  for (const auto& [table, count] : s.by_table) {
    by_table.field(std::to_string(table), count);
  }
  doc.field("chains", s.chains)
      .field("unique_chains", s.unique_chains)
      .field("duplicate_ratio", s.duplicate_ratio(), 4);
  std::printf("%s\n", doc.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s [--json] <oplog-file>\n", argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s [--json] <oplog-file>\n", argv[0]);
    return 2;
  }
  const db::OpLogReadResult log = db::load_op_log(path);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s: %s at byte %zu\n", path,
                 std::string(db::to_string(log.error)).c_str(),
                 log.error_offset);
    return 1;
  }
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  const std::size_t bytes = size_error ? 0 : static_cast<std::size_t>(size);
  const Summary s = summarize(log.events);
  if (json) {
    print_json(path, bytes, s);
  } else {
    print_text(path, bytes, s);
  }
  return 0;
}
