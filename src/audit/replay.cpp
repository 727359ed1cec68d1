#include "audit/replay.hpp"

#include <algorithm>
#include <cstring>

#include "audit/engine.hpp"
#include "db/direct.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {
namespace {

constexpr std::uint32_t kNoChain = 0xFFFFFFFFu;

/// Folds `count` consecutive 32-bit words at `words` into a signature,
/// two per step (an odd count's last step has a zero high half).
[[nodiscard]] std::uint64_t mix_words(std::uint64_t hash, const std::byte* words,
                                      std::size_t count) noexcept {
  for (std::size_t i = 0; i < count; i += 2) {
    std::uint64_t word = 0;
    std::memcpy(&word, words + i * 4, i + 1 < count ? 8 : 4);
    hash = mix_signature(hash, word);
  }
  return hash;
}

/// A maximal contiguous run of mismatching 32-bit words.
struct MismatchRun {
  std::size_t offset = 0;
  std::size_t length = 0;
};

[[nodiscard]] sim::Duration scaled(std::uint64_t items, std::uint32_t per_item,
                                   double scale) noexcept {
  return static_cast<sim::Duration>(static_cast<double>(items) *
                                    static_cast<double>(per_item) * scale);
}

}  // namespace

bool replayable(const db::ApiEvent& event) noexcept {
  if (!event.is_update || event.status != db::Status::Ok) {
    return false;
  }
  switch (event.op) {
    case db::ApiOp::WriteRec:
    case db::ApiOp::WriteFld:
    case db::ApiOp::Move:
    case db::ApiOp::Alloc:
    case db::ApiOp::Free:
      return true;
    default:
      return false;
  }
}

std::uint64_t chain_seed(db::TableId table) noexcept {
  return mix_signature(0xcbf29ce484222325ull, table);
}

std::uint64_t mix_op(std::uint64_t hash, const db::ApiEvent& event) noexcept {
  hash = mix_signature(hash, static_cast<std::uint64_t>(event.op) |
                                 static_cast<std::uint64_t>(event.payload_len) << 8 |
                                 static_cast<std::uint64_t>(event.field) << 16 |
                                 static_cast<std::uint64_t>(event.group) << 32);
  return mix_words(hash, reinterpret_cast<const std::byte*>(event.payload.data()),
                   event.payload_len);
}

ReplayAuditor::ReplayAuditor(const db::Database& db, ReplayConfig config)
    : db_(db), config_(config) {
  table_base_.push_back(0);
  for (const db::TableLayout& table : db_.layout().tables()) {
    table_base_.push_back(table_base_.back() + table.num_records);
  }
}

void ReplayAuditor::reset() {
  consumed_ = 0;
  total_ops_ = 0;
  chains_.clear();
  ends_.clear();
  states_.clear();
}

ReplayResult ReplayAuditor::run(std::span<const db::ApiEvent> events) {
  reset();
  return follow(events);
}

const std::int32_t* ReplayAuditor::execute_chain(
    Chain& chain, std::span<const db::ApiEvent> events) {
  const std::size_t num_fields = db_.layout().table(chain.table).num_fields;
  if (chain.end == 0) {
    ends_.push_back(EndState{states_.size(), 0, 0});
    chain.end = static_cast<std::uint32_t>(ends_.size());
    states_.resize(states_.size() + 2 + num_fields);
  }
  EndState& end = ends_[chain.end - 1];
  if (end.ops == chain.length) {
    return states_.data() + end.at;
  }
  const auto& fields = db_.schema().tables.at(chain.table).fields;
  // state: [status, group, fields...], the record's words from +4 on
  // minus the next link, starting from the pristine image.
  std::int32_t* const state = states_.data() + end.at;
  std::int32_t* const values = state + 2;
  std::uint32_t index = chain.first;
  if (end.ops == 0) {
    const auto pristine = db_.pristine();
    const std::size_t at = db_.layout().record_offset(chain.table, chain.record);
    std::memcpy(state, pristine.data() + at + 4, 8);
    std::memcpy(values, pristine.data() + at + db::kRecordHeaderSize,
                num_fields * 4);
  } else {
    index = next_[end.last];
  }
  const auto reset = [&](std::uint32_t status, std::uint32_t group) {
    state[0] = static_cast<std::int32_t>(status);
    state[1] = static_cast<std::int32_t>(group);
    for (std::size_t f = 0; f < num_fields; ++f) {
      values[f] = fields[f].default_value;
    }
  };
  for (std::uint32_t n = end.ops; n < chain.length; ++n, index = next_[index]) {
    const db::ApiEvent& event = events[index];
    switch (event.op) {
      case db::ApiOp::Alloc:
        reset(db::kStatusActive, event.group);
        break;
      case db::ApiOp::WriteRec: {
        // Update events snapshot the record's post-write fields
        // (min(num_fields, 8) of them — every shipped schema fits).
        const std::size_t n_fields =
            std::min<std::size_t>(event.payload_len, num_fields);
        std::copy_n(event.payload.begin(), n_fields, values);
        break;
      }
      case db::ApiOp::WriteFld:
        if (event.field < num_fields && event.payload_len >= 1) {
          values[event.field] = event.payload[0];
        }
        break;
      case db::ApiOp::Move:
        state[1] = static_cast<std::int32_t>(event.group);
        break;
      case db::ApiOp::Free:
        reset(db::kStatusFree, 0);
        break;
      default:
        break;
    }
  }
  end.ops = chain.length;
  end.last = chain.last;
  return state;
}

ReplayResult ReplayAuditor::follow(std::span<const db::ApiEvent> events) {
  const auto& layout = db_.layout();
  const auto pristine = db_.pristine();
  const std::size_t num_tables = layout.tables().size();
  ReplayResult result;
  ReplayStats& stats = result.stats;

  if (events.size() < consumed_) {
    reset();
  }
  if (consumed_ == 0) {
    // Starting over: no chain is open and the shadow is the pristine image.
    open_chain_.assign(table_base_.back(), kNoChain);
    shadow_.assign(pristine.begin(), pristine.end());
  }
  ++calls_;

  // --- select + group + sign the appended events, one pass:
  // per-(table, record) chains, arrival order, segmented at lifecycle
  // boundaries — every Alloc starts a fresh chain (the record is reborn
  // from a state Alloc fully determines), so repeated call cycles on a
  // reused record slot become *separate* record-agnostic chains the dedup
  // pass can collapse ---
  if (next_.size() < events.size()) {
    next_.resize(events.size());
  }
  for (auto i = static_cast<std::uint32_t>(consumed_);
       i < static_cast<std::uint32_t>(events.size()); ++i) {
    const db::ApiEvent& event = events[i];
    if (!replayable(event) || event.table >= num_tables ||
        event.record >= table_base_[event.table + 1] - table_base_[event.table]) {
      continue;
    }
    ++total_ops_;
    std::uint32_t& open = open_chain_[table_base_[event.table] + event.record];
    if (open == kNoChain || event.op == db::ApiOp::Alloc) {
      open = static_cast<std::uint32_t>(chains_.size());
      Chain& chain = chains_.emplace_back();
      chain.signature = chain_seed(event.table);
      chain.first = i;
      chain.table = event.table;
      chain.record = event.record;
      if (event.op != db::ApiOp::Alloc) {
        // The chain's end state depends on where it started: fold in the
        // pristine start state (status, group, every field). Chains that
        // begin with an Alloc are start-independent — Alloc resets the
        // record wholesale — so their signatures stay record-agnostic.
        const std::byte* record =
            pristine.data() + layout.record_offset(event.table, event.record);
        chain.signature = mix_words(chain.signature, record + 4, 2);
        chain.signature = mix_words(chain.signature, record + db::kRecordHeaderSize,
                                    layout.table(event.table).num_fields);
      }
    } else {
      next_[chains_[open].last] = i;
    }
    Chain& chain = chains_[open];
    chain.last = i;
    ++chain.length;
    chain.grown = calls_;
    chain.signature = mix_op(chain.signature, event);
  }
  consumed_ = events.size();
  stats.total_ops = total_ops_;
  stats.chains = chains_.size();

  // --- dedup over the chain records: the first chain with a signature
  // becomes the executor. Open addressing over a power-of-two table at
  // most half full. Each unique chain is one task of the makespan model
  // at its full length, however much of it is re-executed below ---
  std::size_t buckets = 1;
  while (buckets < 2 * chains_.size()) {
    buckets <<= 1;
  }
  const std::size_t mask = buckets - 1;
  unique_bucket_.assign(buckets, 0);
  uniques_.clear();
  std::vector<sim::Duration> chain_costs;
  const std::span<std::byte> shadow(shadow_);
  for (std::uint32_t c = 0; c < static_cast<std::uint32_t>(chains_.size()); ++c) {
    Chain& chain = chains_[c];
    std::uint32_t executor = c;
    for (std::size_t b = chain.signature & mask;; b = (b + 1) & mask) {
      std::uint32_t& bucket = unique_bucket_[b];
      if (bucket == 0) {
        uniques_.push_back(Unique{chain.signature, c});
        bucket = static_cast<std::uint32_t>(uniques_.size());
        stats.executed_ops += chain.length;
        chain_costs.push_back(
            scaled(chain.length, config_.cost_per_op, config_.cost_scale));
        break;
      }
      if (uniques_[bucket - 1].signature == chain.signature) {
        executor = uniques_[bucket - 1].chain;
        break;
      }
    }
    // The shadow holds each record's last chain's end state. It changes
    // only when that chain grew, passed to another executor, or its
    // executor grew; only then is the executor brought up to date (it
    // precedes this chain, so its ops this call are all grouped) and the
    // record rewritten.
    if (open_chain_[table_base_[chain.table] + chain.record] == c &&
        (chain.grown == calls_ || chain.executor != executor ||
         chains_[executor].grown == calls_)) {
      const std::int32_t* state = execute_chain(chains_[executor], events);
      const std::size_t at = layout.record_offset(chain.table, chain.record);
      std::memcpy(shadow.data() + at + 4, state, 8);
      std::memcpy(shadow.data() + at + db::kRecordHeaderSize, state + 2,
                  layout.table(chain.table).num_fields * 4);
    }
    chain.executor = executor;
  }
  stats.unique_chains = uniques_.size();
  obs::count(obs::Counter::replay_chains, stats.chains);
  obs::count(obs::Counter::replay_deduped, stats.deduped());
  obs::count(obs::Counter::replay_exec_ops, stats.executed_ops);

  // --- recompute each table's group links (replay's analog of relink) ---
  for (std::size_t t = 0; t < num_tables; ++t) {
    const auto table = static_cast<db::TableId>(t);
    const auto expected = db::direct::expected_links(shadow, layout, table);
    for (db::RecordIndex r = 0; r < expected.size(); ++r) {
      db::store_u32(shadow, layout.record_offset(table, r) + 12, expected[r]);
    }
  }

  // --- compare shadow vs live, word-for-word, in fixed-grain slices (the
  // model's compare tasks); a slice memcmp finds equal has no mismatching
  // word, and a run may continue across a slice seam ---
  const auto live = db_.region();
  const std::size_t grain = std::max<std::size_t>(4, config_.compare_grain_bytes);
  const std::size_t tasks = (live.size() + grain - 1) / grain;
  std::vector<MismatchRun> runs;
  for (std::size_t begin = 0; begin < live.size(); begin += grain) {
    const std::size_t end = std::min(live.size(), begin + grain);
    if (std::memcmp(live.data() + begin, shadow.data() + begin, end - begin) == 0) {
      continue;
    }
    for (std::size_t at = begin; at + 4 <= end; at += 4) {
      if (db::load_u32(live, at) == db::load_u32(shadow, at)) {
        continue;
      }
      if (!runs.empty() && runs.back().offset + runs.back().length == at) {
        runs.back().length += 4;
      } else {
        runs.push_back(MismatchRun{at, 4});
      }
    }
  }
  for (const MismatchRun& run : runs) {
    stats.mismatched_words += run.length / 4;
    Finding finding;
    finding.technique = Technique::ReplayCheck;
    finding.recovery = Recovery::None;
    finding.offset = run.offset;
    finding.length = run.length;
    if (const auto loc = layout.locate(run.offset)) {
      finding.table = loc->table;
      finding.record = loc->record;
      if (!loc->in_header) {
        const std::size_t record_at =
            layout.record_offset(loc->table, loc->record);
        finding.field = static_cast<db::FieldId>(
            (run.offset - record_at - db::kRecordHeaderSize) / 4);
      }
    }
    result.findings.push_back(finding);
  }
  obs::count(obs::Counter::replay_mismatches, stats.mismatched_words);

  // --- cost model: same µs-and-scale convention as the engine; the
  // makespan is the chain and compare phases' critical paths across
  // `replay_threads` modelled workers, back to back ---
  const std::size_t workers = std::max<std::size_t>(1, config_.replay_threads);
  std::vector<sim::Duration> compare_costs(
      tasks, scaled(1, config_.cost_per_compare_chunk, config_.cost_scale));
  const sim::Duration compare_cost =
      scaled(tasks, config_.cost_per_compare_chunk, config_.cost_scale);
  stats.naive_cost =
      scaled(stats.total_ops, config_.cost_per_op, config_.cost_scale) +
      compare_cost;
  stats.dedup_cost =
      scaled(stats.executed_ops, config_.cost_per_op, config_.cost_scale) +
      compare_cost;
  stats.makespan = AuditEngine::greedy_makespan(chain_costs, workers) +
                   AuditEngine::greedy_makespan(compare_costs, workers);
  return result;
}

}  // namespace wtc::audit
