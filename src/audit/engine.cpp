#include "audit/engine.hpp"

#include <algorithm>
#include <array>

#include "common/crc32.hpp"
#include "db/direct.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {

namespace {

/// Books one check invocation in the observability layer. Every public
/// check entry point (and every scan dispatched by incremental_pass)
/// funnels its result through here, so `audit.checks` counts check
/// invocations uniformly no matter which element drove them.
CheckResult tally(CheckResult result) {
  obs::count(obs::Counter::audit_checks);
  obs::observe(obs::Histogram::audit_check_cost_us,
               static_cast<std::uint64_t>(result.cost));
  return result;
}

std::string_view technique_name(Technique technique) noexcept {
  switch (technique) {
    case Technique::StaticChecksum: return "static-checksum";
    case Technique::RangeCheck: return "range-check";
    case Technique::StructuralCheck: return "structural-check";
    case Technique::SemanticCheck: return "semantic-check";
    case Technique::SelectiveMonitor: return "selective-monitor";
    case Technique::ProgressIndicator: return "progress-indicator";
    case Technique::ElementQuarantine: return "element-quarantine";
    case Technique::CfAttestation: return "cf-attestation";
    case Technique::ReplayCheck: return "replay-check";
  }
  return "?";
}

}  // namespace

std::string_view to_string(Technique technique) noexcept {
  return technique_name(technique);
}

std::string_view to_string(Recovery recovery) noexcept {
  switch (recovery) {
    case Recovery::None: return "none";
    case Recovery::ReloadSpan: return "reload-span";
    case Recovery::ReloadAll: return "reload-all";
    case Recovery::RepairHeader: return "repair-header";
    case Recovery::ResetField: return "reset-field";
    case Recovery::FreeRecord: return "free-record";
    case Recovery::TerminateClientThread: return "terminate-client-thread";
    case Recovery::KillClientProcess: return "kill-client-process";
    case Recovery::DisableElement: return "disable-element";
    case Recovery::ReenableElement: return "reenable-element";
    case Recovery::HealThread: return "heal-thread";
  }
  return "?";
}

AuditEngine::AuditEngine(db::Database& db, EngineConfig config,
                         std::function<sim::Time()> clock)
    : db_(db), config_(config), clock_(std::move(clock)) {
  // Emulate the production database's audit CPU load on this smaller one.
  const auto scale = [&](std::uint32_t cost) {
    return static_cast<std::uint32_t>(static_cast<double>(cost) *
                                      config_.cost_scale);
  };
  config_.cost_per_record_structural = scale(config_.cost_per_record_structural);
  config_.cost_per_field_range = scale(config_.cost_per_field_range);
  config_.cost_per_loop_semantic = scale(config_.cost_per_loop_semantic);
  config_.cost_per_static_chunk = scale(config_.cost_per_static_chunk);
  config_.cost_event_check = scale(config_.cost_event_check);
  config_.parallel_grain = std::max<std::size_t>(1, config_.parallel_grain);
  // Golden checksums: chunk every static span and CRC the pristine bytes.
  for (const auto& [offset, length] : db_.static_spans()) {
    for (std::size_t at = offset; at < offset + length;
         at += config_.static_chunk_bytes) {
      const std::size_t chunk_len =
          std::min(config_.static_chunk_bytes, offset + length - at);
      const auto bytes = db_.pristine().subspan(at, chunk_len);
      static_chunks_.push_back({at, chunk_len, common::crc32(bytes)});
    }
  }
  // Incremental-audit state: watermarks start at 0, i.e. everything the
  // store has ever written (generation >= 1) is dirty for the first cycle.
  const std::size_t tables = db_.table_count();
  structure_watermark_.assign(tables, 0);
  ranges_watermark_.assign(tables, 0);
  selective_watermark_.assign(tables, 0);
  referencing_.resize(tables);
  anchor_table_.assign(tables, 0);
  has_pk_.assign(tables, 0);
  chain_anchor_.reserve(tables);
  for (db::TableId t = 0; t < tables; ++t) {
    const auto& spec = db_.schema().tables[t];
    bool has_fk = false;
    for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
      const auto& field = spec.fields[f];
      if (field.role == db::FieldRole::ForeignKey) {
        has_fk = true;
        if (field.ref_table < tables) {
          referencing_[field.ref_table].emplace_back(t, f);
        }
      } else if (field.role == db::FieldRole::PrimaryKey) {
        has_pk_[t] = 1;
      }
    }
    anchor_table_[t] = static_cast<char>(spec.dynamic && has_fk ? 1 : 0);
    chain_anchor_.emplace_back(
        spec.num_records,
        std::make_pair(db::kNoTable, db::RecordIndex{0}));
  }
  // Flattened record ordinals for the semantic scan's budget-resume index.
  record_ordinal_base_.assign(tables, 0);
  for (db::TableId t = 0; t < tables; ++t) {
    record_ordinal_base_[t] = total_records_;
    total_records_ += db_.schema().tables[t].num_records;
  }
}

std::uint64_t AuditEngine::table_dirty_chunks(db::TableId t) const {
  if (t >= db_.table_count()) {
    return 0;
  }
  const auto& tl = db_.layout().table(t);
  const std::uint64_t mark =
      std::min(structure_watermark_[t], ranges_watermark_[t]);
  return db_.region_dirty_chunks_since(
      tl.offset, tl.record_size * static_cast<std::size_t>(tl.num_records),
      mark);
}

std::vector<sim::Duration> AuditEngine::task_slots(std::size_t items) const {
  const std::size_t grain = config_.parallel_grain;
  const std::size_t tasks = (items + grain - 1) / grain;
  obs::count(obs::Counter::audit_parallel_tasks,
             static_cast<std::uint64_t>(tasks));
  return std::vector<sim::Duration>(tasks, 0);
}

sim::Duration AuditEngine::greedy_makespan(
    const std::vector<sim::Duration>& task_costs, std::size_t workers) {
  workers = std::max<std::size_t>(1, workers);
  if (workers == 1) {
    sim::Duration sum = 0;
    for (const sim::Duration cost : task_costs) {
      sum += cost;
    }
    return sum;
  }
  // Greedy list scheduling in task order (the deterministic model of a
  // work queue): each task lands on the currently least-loaded worker.
  std::vector<sim::Duration> load(workers, 0);
  for (const sim::Duration cost : task_costs) {
    auto* slot = &load[0];
    for (auto& worker : load) {
      if (worker < *slot) {
        slot = &worker;
      }
    }
    *slot += cost;
  }
  sim::Duration makespan = 0;
  for (const sim::Duration worker : load) {
    makespan = std::max(makespan, worker);
  }
  return makespan;
}

sim::Duration AuditEngine::makespan_of(
    const std::vector<sim::Duration>& task_costs) const {
  return greedy_makespan(task_costs, config_.audit_threads);
}

void AuditEngine::report(Finding finding) {
  finding.time = clock_();
  finding.shard = shard_id_;
  ++findings_;
  obs::count(obs::Counter::audit_findings);
  obs::trace_instant("audit.finding", "audit",
                     static_cast<std::uint64_t>(finding.time));
  if (finding.table != db::kNoTable &&
      finding.table < db_.table_count()) {
    auto& stats = db_.table_stats(finding.table);
    ++stats.errors_detected_total;
    ++stats.errors_last_cycle;
  }
  if (sink_ != nullptr) {
    sink_->on_finding(finding);
  }
}

bool AuditEngine::recently_written(db::TableId t, db::RecordIndex r) const {
  const auto& meta = db_.record_meta(t, r);
  const sim::Time now = clock_();
  return meta.last_access != 0 &&
         now - meta.last_access <
             static_cast<sim::Time>(config_.recent_write_grace);
}

void AuditEngine::hold_watermark(std::uint64_t gen, std::uint64_t& new_mark) {
  if (gen > 0) {
    new_mark = std::min(new_mark, gen - 1);
  }
}

CheckResult AuditEngine::check_static(ScanMode mode) {
  return tally(static_scan(mode == ScanMode::Exhaustive, kUnlimited, nullptr));
}

CheckResult AuditEngine::static_scan(bool exhaustive, sim::Duration budget,
                                     ScanProgress* progress) {
  CheckResult result;
  scan_makespan_ = 0;
  if (!config_.static_check) {
    return result;
  }
  const std::size_t resume = progress != nullptr ? progress->resume : 0;
  const std::uint64_t mark = progress != nullptr && progress->started
                                 ? progress->mark
                                 : db_.write_generation();

  // Select: the chunk indexes this installment must verify, so the
  // modelled task boundaries cover exactly the set the loop below books.
  std::vector<std::size_t> selected;
  for (std::size_t i = resume; i < static_chunks_.size(); ++i) {
    const auto& chunk = static_chunks_[i];
    if (exhaustive ||
        db_.span_written_since(chunk.offset, chunk.length, static_watermark_)) {
      selected.push_back(i);
    }
  }

  // Verify in chunk order: golden-CRC compare, cost booking, findings and
  // reloads. A reload rewrites only its own chunk, never a later one.
  std::vector<sim::Duration> task_cost = task_slots(selected.size());
  bool truncated = false;
  for (std::size_t k = 0; k < selected.size(); ++k) {
    if (budget != kUnlimited && result.cost >= budget && k > 0) {
      // Out of budget: book only what was scanned; resume here next cycle.
      truncated = true;
      progress->resume = selected[k];
      progress->mark = mark;
      progress->started = true;
      progress->truncated = true;
      break;
    }
    result.cost += config_.cost_per_static_chunk;
    task_cost[k / config_.parallel_grain] += config_.cost_per_static_chunk;
    const auto& chunk = static_chunks_[selected[k]];
    if (common::crc32(db_.region().subspan(chunk.offset, chunk.length)) ==
        chunk.golden_crc) {
      continue;
    }
    Finding finding;
    finding.technique = Technique::StaticChecksum;
    finding.recovery = Recovery::ReloadSpan;
    finding.offset = chunk.offset;
    finding.length = chunk.length;
    if (const auto loc = db_.layout().locate(chunk.offset)) {
      finding.table = loc->table;
      finding.record = loc->record;
    }
    report(finding);
    ++result.findings;
    db_.reload_span_from_disk(chunk.offset, chunk.length);
  }
  scan_makespan_ = makespan_of(task_cost);
  if (!truncated) {
    // Epoch watermark: writes that landed during (any installment of) this
    // scan have generations above `mark` and stay dirty for the next cycle.
    static_watermark_ = mark;
  }
  return result;
}

bool AuditEngine::header_corrupted(db::TableId t, db::RecordIndex r,
                                   std::uint32_t expected_next) const {
  const auto header = db::direct::read_header(db_, t, r);
  const bool dynamic = db_.schema().tables[t].dynamic;
  if (header.id_tag != db::expected_id_tag(t, r)) {
    return true;
  }
  if (header.status != db::kStatusFree && header.status != db::kStatusActive) {
    return true;
  }
  if (header.group >= db::kMaxGroups) {
    return true;
  }
  if (dynamic && ((header.status == db::kStatusFree && header.group != 0) ||
                  (header.status == db::kStatusActive && header.group == 0))) {
    return true;
  }
  return header.next != expected_next;
}

CheckResult AuditEngine::check_structure(db::TableId t, ScanMode mode) {
  return tally(structure_scan(t, mode == ScanMode::Exhaustive, kUnlimited, nullptr));
}

CheckResult AuditEngine::structure_scan(db::TableId t, bool exhaustive,
                                        sim::Duration budget,
                                        ScanProgress* progress) {
  CheckResult result;
  scan_makespan_ = 0;
  if (!config_.structural_check || t >= db_.table_count()) {
    return result;
  }
  if (db_.lock_info(t)) {
    // Client transaction in progress: result would be invalid. The
    // watermark is NOT advanced, so nothing is lost for the next cycle.
    return result;
  }
  const std::size_t resume = progress != nullptr ? progress->resume : 0;
  const std::uint64_t mark = progress != nullptr && progress->started
                                 ? progress->mark
                                 : db_.write_generation();
  // Header generations, not record generations: this check validates only
  // the 16-byte headers, and ordinary call-data field updates cannot
  // corrupt what it reads.
  if (!exhaustive && db_.table_header_generation(t) <= structure_watermark_[t]) {
    structure_watermark_[t] = mark;
    return result;  // no header write anywhere in the table since last scan
  }
  const auto& tl = db_.layout().table(t);

  // Expected `next` links: each group's chain lists its records in index
  // order. Computed from the stored group values ("offsets ... based on
  // record sizes stored in system tables; all record sizes are fixed and
  // known", §4.3.2).
  std::vector<std::uint32_t> expected_next(tl.num_records, db::kNilLink);
  std::array<std::uint32_t, db::kMaxGroups> last_in_group;
  last_in_group.fill(db::kNilLink);
  for (db::RecordIndex r = 0; r < tl.num_records; ++r) {
    const auto header = db::direct::read_header(db_, t, r);
    if (header.group < db::kMaxGroups) {
      if (last_in_group[header.group] != db::kNilLink) {
        expected_next[last_in_group[header.group]] = r;
      }
      last_in_group[header.group] = r;
    }
  }

  // Select: records this installment must validate. Repairs wait until
  // after the loop below, so every verdict reads the pre-repair headers.
  std::vector<db::RecordIndex> selected;
  for (db::RecordIndex r = static_cast<db::RecordIndex>(resume);
       r < tl.num_records; ++r) {
    if (exhaustive || db_.header_generation(t, r) > structure_watermark_[t]) {
      selected.push_back(r);
    }
  }

  // Validate in record order; clean-skipped records reset the
  // consecutive-corruption run.
  std::vector<sim::Duration> task_cost = task_slots(selected.size());
  std::vector<db::RecordIndex> bad;
  std::uint32_t consecutive = progress != nullptr ? progress->consecutive : 0;
  bool truncated = false;
  std::size_t k = 0;  // position in `selected`
  for (db::RecordIndex r = static_cast<db::RecordIndex>(resume);
       r < tl.num_records; ++r) {
    if (k >= selected.size() || selected[k] != r) {
      // Verified clean by a previous scan and untouched since. Reading its
      // group above cost nothing extra — the booked cost models the
      // per-record validation, which is skipped here.
      consecutive = 0;
      continue;
    }
    if (budget != kUnlimited && result.cost >= budget && k > 0) {
      truncated = true;
      progress->resume = r;
      progress->mark = mark;
      progress->consecutive = consecutive;
      progress->started = true;
      progress->truncated = true;
      break;
    }
    result.cost += config_.cost_per_record_structural;
    task_cost[k / config_.parallel_grain] += config_.cost_per_record_structural;
    if (header_corrupted(t, r, expected_next[r])) {
      bad.push_back(r);
      if (++consecutive >= config_.consecutive_header_threshold) {
        // Strong indication of misalignment: reload the whole database
        // (§4.3.2). Dynamic state — all active calls — is lost, and the
        // remaining records go unchecked and unbooked.
        Finding finding;
        finding.technique = Technique::StructuralCheck;
        finding.recovery = Recovery::ReloadAll;
        finding.table = t;
        finding.offset = 0;
        finding.length = db_.region().size();
        report(finding);
        ++result.findings;
        db_.reload_all_from_disk();
        scan_makespan_ = makespan_of(task_cost);
        // Watermark deliberately not advanced: the reload rewrote the
        // whole region, and everything should be re-verified next cycle.
        // Any carried progress is void for the same reason.
        if (progress != nullptr) {
          progress->truncated = false;
        }
        return result;
      }
    } else {
      consecutive = 0;
    }
    ++k;
  }

  for (const db::RecordIndex r : bad) {
    Finding finding;
    finding.technique = Technique::StructuralCheck;
    finding.recovery = Recovery::RepairHeader;
    finding.table = t;
    finding.record = r;
    finding.offset = db_.layout().record_offset(t, r);
    finding.length = db::kRecordHeaderSize;
    report(finding);
    ++result.findings;
    db::direct::repair_header(db_, t, r);
  }
  scan_makespan_ = makespan_of(task_cost);
  if (!truncated) {
    // Repairs above went through the store (note_write), so the repaired
    // records carry generations > mark and get re-verified next cycle — and
    // the same notification resynchronizes the shadow group index with the
    // repaired header words, keeping the API's O(1) splice path coherent
    // after structural recovery.
    structure_watermark_[t] = mark;
  }
  return result;
}

CheckResult AuditEngine::check_ranges(db::TableId t, ScanMode mode) {
  return tally(ranges_scan(t, mode == ScanMode::Exhaustive, kUnlimited, nullptr));
}

CheckResult AuditEngine::ranges_scan(db::TableId t, bool exhaustive,
                                     sim::Duration budget,
                                     ScanProgress* progress) {
  CheckResult result;
  scan_makespan_ = 0;
  if (!config_.range_check || t >= db_.table_count()) {
    return result;
  }
  const auto& spec = db_.schema().tables[t];
  if (!spec.dynamic || db_.lock_info(t)) {
    return result;
  }
  const std::size_t resume = progress != nullptr ? progress->resume : 0;
  const bool carried = progress != nullptr && progress->started;
  const std::uint64_t mark = carried ? progress->mark : db_.write_generation();
  std::uint64_t new_mark = carried ? progress->new_mark : mark;
  // Field generations, not record generations: a group relink rewrites
  // only header link words and cannot change any field value this check
  // reads, so it must not force a content rescan.
  if (!exhaustive && db_.table_field_generation(t) <= ranges_watermark_[t]) {
    ranges_watermark_[t] = mark;
    return result;
  }

  // Select: records this installment must examine (dirty and not
  // scrub-attested). Records left out here book nothing and take no slot
  // in a modelled task.
  std::vector<db::RecordIndex> selected;
  for (db::RecordIndex r = static_cast<db::RecordIndex>(resume);
       r < spec.num_records; ++r) {
    const std::uint64_t field_gen = db_.field_generation(t, r);
    if (!exhaustive && field_gen <= ranges_watermark_[t]) {
      continue;
    }
    if (!exhaustive && field_gen == db_.scrub_generation(t, r)) {
      // The last field-area write was a free-record scrub: the fields hold
      // the defaults that scrub wrote, so the freed-record rule is taken
      // to hold without reading a byte. The audit's own free paths write
      // the trusted schema's defaults; DbApi::free_rec writes the in-region
      // catalog's, which differ only while a field descriptor is corrupted
      // (the static audit's checksum covers the catalog, and the
      // exhaustive pass compares against the schema). Any later field
      // write — legitimate or injected through the store — breaks the
      // equality.
      continue;
    }
    selected.push_back(r);
  }

  // Examine in record order: each record is read, booked and recovered
  // before the next. A recovery rewrites only the record's own fields and
  // status (plus neighbours' link words when it frees), none of which a
  // later record's check reads.
  std::vector<sim::Duration> task_cost = task_slots(selected.size());
  bool truncated = false;
  for (std::size_t k = 0; k < selected.size(); ++k) {
    if (budget != kUnlimited && result.cost >= budget && k > 0) {
      truncated = true;
      progress->resume = selected[k];
      progress->mark = mark;
      progress->new_mark = new_mark;
      progress->started = true;
      progress->truncated = true;
      break;
    }
    const db::RecordIndex r = selected[k];
    if (recently_written(t, r)) {
      // Possibly mid-transaction: skipped unverified, so the watermark is
      // held back below its generation and it stays dirty for next cycle.
      hold_watermark(db_.field_generation(t, r), new_mark);
      continue;
    }
    const std::uint32_t status = db::direct::read_header(db_, t, r).status;
    // Free records must hold exactly their catalog defaults (the API
    // scrubs them on free) — the strongest possible rule, so the audit
    // sweep removes latent errors in unused data ("the entire database is
    // checked for errors periodically", §5.1). Active records must keep
    // their ruled fields in range.
    const bool free = status == db::kStatusFree;
    if (!free && status != db::kStatusActive) {
      continue;  // corrupted status: the structural audit owns this
    }
    sim::Duration record_cost = 0;
    for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
      const auto& field = spec.fields[f];
      if (!free && !field.has_range()) {
        continue;
      }
      record_cost += config_.cost_per_field_range;
      const std::int32_t value = db::direct::read_field(db_, t, r, f);
      if (free ? value == field.default_value
               : value >= *field.range_min && value <= *field.range_max) {
        continue;
      }
      Finding finding;
      finding.technique = Technique::RangeCheck;
      finding.table = t;
      finding.record = r;
      finding.field = f;
      finding.offset = db_.layout().field_offset(t, r, f);
      finding.length = 4;
      ++result.findings;
      // Recovery: reset to the catalog default; in a dynamic table, also
      // free the record preemptively to stop propagation (§4.3.1).
      db::direct::write_field(db_, t, r, f, field.default_value);
      if (!free && config_.free_dynamic_on_range_error) {
        finding.recovery = Recovery::FreeRecord;
        report(finding);
        db::direct::free_record(db_, t, r);
        break;  // record is gone; stop scanning its fields
      }
      finding.recovery = Recovery::ResetField;
      report(finding);
    }
    result.cost += record_cost;
    task_cost[k / config_.parallel_grain] += record_cost;
  }
  scan_makespan_ = makespan_of(task_cost);
  if (!truncated) {
    ranges_watermark_[t] = new_mark;
  }
  return result;
}

bool AuditEngine::loop_intact(
    db::TableId t, db::RecordIndex r,
    std::vector<std::pair<db::TableId, db::RecordIndex>>& chain) const {
  chain.clear();
  chain.emplace_back(t, r);
  db::TableId cur_t = t;
  db::RecordIndex cur_r = r;
  constexpr int kMaxHops = 8;
  for (int hop = 0; hop < kMaxHops; ++hop) {
    const auto& spec = db_.schema().tables[cur_t];
    const auto fk = std::find_if(spec.fields.begin(), spec.fields.end(),
                                 [](const db::FieldSpec& field) {
                                   return field.role == db::FieldRole::ForeignKey;
                                 });
    if (fk == spec.fields.end()) {
      return true;  // chain ends without a loop: nothing to verify
    }
    const auto fk_index = static_cast<db::FieldId>(fk - spec.fields.begin());
    const std::int32_t key = db::direct::read_field(db_, cur_t, cur_r, fk_index);
    if (key <= 0) {
      return false;  // unset/invalid reference
    }
    const db::TableId next_t = fk->ref_table;
    const auto next_r = static_cast<db::RecordIndex>(key - 1);
    if (next_t >= db_.table_count() ||
        next_r >= db_.schema().tables[next_t].num_records) {
      return false;
    }
    const auto header = db::direct::read_header(db_, next_t, next_r);
    if (header.status != db::kStatusActive) {
      return false;  // "lost" record: reference to a freed slot
    }
    // Primary key must match the reference (§4.3.3's correspondence).
    const auto& next_spec = db_.schema().tables[next_t];
    const auto pk = std::find_if(next_spec.fields.begin(), next_spec.fields.end(),
                                 [](const db::FieldSpec& field) {
                                   return field.role == db::FieldRole::PrimaryKey;
                                 });
    if (pk != next_spec.fields.end()) {
      const auto pk_index = static_cast<db::FieldId>(pk - next_spec.fields.begin());
      if (db::direct::read_field(db_, next_t, next_r, pk_index) != key) {
        return false;
      }
    }
    if (next_t == t && next_r == r) {
      return true;  // loop closed back to the anchor: 1-detectable and intact
    }
    for (const auto& [seen_t, seen_r] : chain) {
      if (seen_t == next_t && seen_r == next_r) {
        return false;  // closed onto the wrong record
      }
    }
    chain.emplace_back(next_t, next_r);
    cur_t = next_t;
    cur_r = next_r;
  }
  return false;
}

void AuditEngine::free_and_terminate(db::TableId t, db::RecordIndex r,
                                     Technique technique) {
  const auto meta = db_.record_meta(t, r);
  Finding finding;
  finding.technique = technique;
  finding.recovery = Recovery::FreeRecord;
  finding.table = t;
  finding.record = r;
  finding.offset = db_.layout().record_offset(t, r);
  finding.length = db_.layout().table(t).record_size;
  report(finding);
  db::direct::free_record(db_, t, r);
  if (control_ != nullptr && meta.last_writer != sim::kNoProcess) {
    Finding termination = finding;
    termination.recovery = Recovery::TerminateClientThread;
    report(termination);
    control_->terminate_client_thread(meta.last_writer, meta.last_writer_thread);
  }
}

CheckResult AuditEngine::check_semantics(ScanMode mode) {
  return tally(semantics_scan(mode == ScanMode::Exhaustive, kUnlimited, nullptr));
}

// The semantic scan is one serial piece of the makespan model at any
// audit_threads: its recovery (freeing a zombie chain) rewrites records
// that later anchors' walks read, so its items cannot be modelled as
// independent tasks without changing results. Its budget
// truncation uses a flattened (table, record) ordinal as the resume
// point: walk anchors occupy ordinals [0, total_records_), the orphan
// sweep's tables occupy [total_records_, total_records_ + table_count).
CheckResult AuditEngine::semantics_scan(bool exhaustive, sim::Duration budget,
                                        ScanProgress* progress) {
  CheckResult result;
  scan_makespan_ = 0;
  if (!config_.semantic_check) {
    return result;
  }
  const std::size_t resume = progress != nullptr ? progress->resume : 0;
  const bool carried = progress != nullptr && progress->started;
  const std::uint64_t mark = carried ? progress->mark : db_.write_generation();
  std::uint64_t new_mark = carried ? progress->new_mark : mark;
  bool progressed = false;
  const auto truncate_at = [&](std::size_t ordinal) {
    progress->resume = ordinal;
    progress->mark = mark;
    progress->new_mark = new_mark;
    progress->started = true;
    progress->truncated = true;
  };
  std::vector<std::pair<db::TableId, db::RecordIndex>> chain;

  // Anchor selection. Exhaustive: every record of every anchor table
  // (dynamic + FK-bearing; activity is checked at walk time). Incremental:
  // only records written since the watermark, plus — via the per-anchor
  // dirty sets — the last-known anchor of every dirty chain member, so a
  // corrupted mid-chain link re-walks exactly the loop it belongs to.
  std::vector<std::vector<char>> walk(db_.table_count());
  for (db::TableId t = 0; t < db_.table_count(); ++t) {
    walk[t].assign(db_.schema().tables[t].num_records, 0);
  }
  const auto select = [&](db::TableId t, db::RecordIndex r) {
    if (t < db_.table_count() && anchor_table_[t] &&
        r < db_.schema().tables[t].num_records) {
      walk[t][r] = 1;
    }
  };
  for (db::TableId t = 0; t < db_.table_count(); ++t) {
    const auto& spec = db_.schema().tables[t];
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      // Field generations: loop intactness depends on FK/PK field values
      // and record activity, and every legitimate activity change (alloc,
      // free) writes the field area in the same operation — header-only
      // link relinks cannot break a loop.
      if (!exhaustive && db_.field_generation(t, r) <= semantic_watermark_) {
        continue;
      }
      select(t, r);
      if (!exhaustive) {
        const auto anchor = chain_anchor_[t][r];
        if (anchor.first != db::kNoTable) {
          select(anchor.first, anchor.second);
        }
      }
    }
  }

  // Anchored loop checks (§4.3.3).
  bool truncated = false;
  for (db::TableId t = 0; t < db_.table_count() && !truncated; ++t) {
    if (!anchor_table_[t]) {
      continue;
    }
    const auto& spec = db_.schema().tables[t];
    if (db_.lock_info(t)) {
      // Locked: hold the watermark back for every selected anchor so the
      // skipped walks happen next cycle.
      for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
        if (walk[t][r] && record_ordinal_base_[t] + r >= resume) {
          hold_watermark(db_.field_generation(t, r), new_mark);
        }
      }
      continue;
    }
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      if (!walk[t][r] || record_ordinal_base_[t] + r < resume) {
        continue;  // below resume: walked by an earlier installment
      }
      if (budget != kUnlimited && result.cost >= budget && progressed) {
        truncate_at(record_ordinal_base_[t] + r);
        truncated = true;
        break;
      }
      const auto header = db::direct::read_header(db_, t, r);
      if (header.status != db::kStatusActive) {
        continue;
      }
      if (recently_written(t, r)) {
        hold_watermark(db_.field_generation(t, r), new_mark);
        continue;
      }
      result.cost += config_.cost_per_loop_semantic;
      progressed = true;
      const bool intact = loop_intact(t, r, chain);
      // Record which anchor each visited chain member belongs to, so a
      // future write to the member re-selects this anchor.
      for (const auto& [member_t, member_r] : chain) {
        chain_anchor_[member_t][member_r] = {t, r};
      }
      if (intact) {
        if (!exhaustive) {
          // The closed walk just verified every edge of this loop, so a
          // pending walk from any other member of the same chain would
          // re-verify the identical edge set — drop those selections.
          // Broken loops are deliberately NOT deduplicated: each member's
          // own walk can localize the damage differently.
          for (const auto& [member_t, member_r] : chain) {
            if (member_t < walk.size() && anchor_table_[member_t] &&
                member_r < walk[member_t].size()) {
              walk[member_t][member_r] = 0;
            }
          }
        }
        continue;
      }
      // A chain member may be mid-transaction: skip rather than misfire,
      // holding the watermark back so the loop is re-walked next cycle.
      const bool any_recent = std::any_of(
          chain.begin(), chain.end(), [this](const auto& link) {
            return recently_written(link.first, link.second);
          });
      if (any_recent) {
        for (const auto& [member_t, member_r] : chain) {
          hold_watermark(db_.field_generation(member_t, member_r), new_mark);
        }
        continue;
      }
      ++result.findings;
      // Recovery: free the zombie chain and terminate the owning thread —
      // keeps records available at the cost of dropping one call (§4.3.3).
      free_and_terminate(t, r, Technique::SemanticCheck);
      for (std::size_t i = 1; i < chain.size(); ++i) {
        Finding finding;
        finding.technique = Technique::SemanticCheck;
        finding.recovery = Recovery::FreeRecord;
        finding.table = chain[i].first;
        finding.record = chain[i].second;
        finding.offset =
            db_.layout().record_offset(chain[i].first, chain[i].second);
        finding.length = db_.layout().table(chain[i].first).record_size;
        report(finding);
        db::direct::free_record(db_, chain[i].first, chain[i].second);
      }
    }
  }

  // Orphan ("resource leak") sweep: active records no longer referenced by
  // any semantic relationship are zombies holding limited resources.
  // Budget granularity is one table: its reference scan derives one
  // referenced-set, so it either runs whole or defers whole.
  for (db::TableId t = 0; t < db_.table_count() && !truncated; ++t) {
    if (total_records_ + t < resume) {
      continue;  // swept by an earlier installment
    }
    if (budget != kUnlimited && result.cost >= budget && progressed) {
      truncate_at(total_records_ + t);
      truncated = true;
      break;
    }
    const auto& spec = db_.schema().tables[t];
    if (!spec.dynamic || !has_pk_[t] || referencing_[t].empty() ||
        db_.lock_info(t)) {
      continue;
    }
    if (!exhaustive) {
      // A record's referencedness can only change when the table itself or
      // one of its referencing tables was written — the reverse-reference
      // index makes that a couple of generation compares.
      bool touched = db_.table_field_generation(t) > semantic_watermark_;
      for (const auto& [u, f] : referencing_[t]) {
        (void)f;
        touched = touched || db_.table_field_generation(u) > semantic_watermark_;
      }
      if (!touched) {
        continue;
      }
    }

    std::vector<bool> referenced(spec.num_records, false);
    for (const auto& [u, f] : referencing_[t]) {
      const auto& uspec = db_.schema().tables[u];
      if (!uspec.dynamic) {
        continue;
      }
      for (db::RecordIndex r = 0; r < uspec.num_records; ++r) {
        if (db::direct::read_header(db_, u, r).status != db::kStatusActive) {
          continue;
        }
        const std::int32_t key = db::direct::read_field(db_, u, r, f);
        if (key > 0 &&
            static_cast<db::RecordIndex>(key - 1) < spec.num_records) {
          referenced[static_cast<std::size_t>(key - 1)] = true;
        }
      }
    }
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      const auto header = db::direct::read_header(db_, t, r);
      if (header.status != db::kStatusActive || referenced[r]) {
        continue;
      }
      if (recently_written(t, r)) {
        hold_watermark(db_.field_generation(t, r), new_mark);
        continue;
      }
      result.cost += config_.cost_per_loop_semantic;
      progressed = true;
      ++result.findings;
      free_and_terminate(t, r, Technique::SemanticCheck);
    }
  }
  scan_makespan_ = result.cost;  // sequential scan: critical path = total
  if (!truncated) {
    semantic_watermark_ = new_mark;
  }
  return result;
}

CheckResult AuditEngine::check_selective(db::TableId t, ScanMode mode) {
  return tally(selective_scan(t, mode == ScanMode::Exhaustive));
}

// Selective monitoring stays serial and atomic under the budget: its
// verdicts derive from a whole-table value histogram, so partial scans
// would change the invariant itself, not just defer work. An overloaded
// cycle defers the whole unit instead (run_cycle's queue check).
CheckResult AuditEngine::selective_scan(db::TableId t, bool exhaustive) {
  CheckResult result;
  scan_makespan_ = 0;
  if (!config_.selective_monitoring || t >= db_.table_count()) {
    return result;
  }
  const auto& spec = db_.schema().tables[t];
  if (!spec.dynamic || db_.lock_info(t)) {
    return result;
  }
  const std::uint64_t mark = db_.write_generation();
  std::uint64_t new_mark = mark;
  // The derived invariant is a histogram over the WHOLE table, so there is
  // no per-record narrowing — but when nothing in the table changed, the
  // histograms (and the verdicts drawn from them) cannot have changed
  // either, and the table-level generation proves it.
  if (!exhaustive && db_.table_field_generation(t) <= selective_watermark_[t]) {
    selective_watermark_[t] = mark;
    return result;
  }
  for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
    const auto& field = spec.fields[f];
    // Only attributes with no enforceable catalog rule are worth deriving
    // invariants for (§4.4.2's motivation).
    if (field.kind != db::DataKind::Dynamic || field.has_range() ||
        field.role != db::FieldRole::Plain) {
      continue;
    }
    common::ValueHistogram histogram;
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      if (db::direct::read_header(db_, t, r).status != db::kStatusActive) {
        continue;
      }
      if (recently_written(t, r)) {
        hold_watermark(db_.field_generation(t, r), new_mark);
        continue;
      }
      result.cost += config_.cost_per_field_range;
      histogram.add(db::direct::read_field(db_, t, r, f));
    }
    if (histogram.total() < config_.selective_min_records ||
        histogram.mean_occurrences() < config_.selective_min_mean_occurrences) {
      continue;  // not enough data / distribution too flat to trust
    }
    const auto suspects = histogram.suspects(config_.selective_fraction);
    if (suspects.empty()) {
      continue;
    }
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      if (db::direct::read_header(db_, t, r).status != db::kStatusActive ||
          recently_written(t, r)) {
        continue;
      }
      const std::int32_t value = db::direct::read_field(db_, t, r, f);
      if (std::find(suspects.begin(), suspects.end(), value) == suspects.end()) {
        continue;
      }
      // "Further checked by other means": escalate to the semantic audit
      // before acting on a derived (unverified) invariant.
      std::vector<std::pair<db::TableId, db::RecordIndex>> chain;
      if (loop_intact(t, r, chain)) {
        // The record's relationships are intact, but the attribute value
        // is a statistical outlier — reset the field only.
        Finding finding;
        finding.technique = Technique::SelectiveMonitor;
        finding.recovery = Recovery::ResetField;
        finding.table = t;
        finding.record = r;
        finding.field = f;
        finding.offset = db_.layout().field_offset(t, r, f);
        finding.length = 4;
        report(finding);
        ++result.findings;
        db::direct::write_field(db_, t, r, f, field.default_value);
      } else {
        ++result.findings;
        free_and_terminate(t, r, Technique::SelectiveMonitor);
      }
    }
  }
  selective_watermark_[t] = new_mark;
  scan_makespan_ = result.cost;
  return result;
}

CheckResult AuditEngine::check_record(db::TableId t, db::RecordIndex r) {
  CheckResult result;
  if (t >= db_.table_count() ||
      r >= db_.schema().tables[t].num_records) {
    return result;
  }
  // One targeted event check books exactly one event-check cost: header
  // inspection and the (few) field reads are one cache-resident visit to
  // the record, not a header pass plus a separate range pass.
  result.cost += config_.cost_event_check;

  // Header check (expected next recomputed against current group layout).
  const auto& tl = db_.layout().table(t);
  std::uint32_t expected_next = db::kNilLink;
  const auto my_header = db::direct::read_header(db_, t, r);
  if (my_header.group < db::kMaxGroups) {
    for (db::RecordIndex s = r + 1; s < tl.num_records; ++s) {
      if (db::direct::read_header(db_, t, s).group == my_header.group) {
        expected_next = s;
        break;
      }
    }
  }
  if (header_corrupted(t, r, expected_next)) {
    Finding finding;
    finding.technique = Technique::StructuralCheck;
    finding.recovery = Recovery::RepairHeader;
    finding.table = t;
    finding.record = r;
    finding.offset = db_.layout().record_offset(t, r);
    finding.length = db::kRecordHeaderSize;
    report(finding);
    ++result.findings;
    db::direct::repair_header(db_, t, r);
    // Short-circuit: the repair decided the record's fate (it may have
    // been freed), and no per-field range work was performed — so no
    // per-field range cost is booked either.
    return result;
  }

  // Range check of this record only, ignoring the write-grace window: the
  // triggering write is exactly what is under suspicion.
  const auto& spec = db_.schema().tables[t];
  if (config_.range_check && spec.dynamic &&
      db::direct::read_header(db_, t, r).status == db::kStatusActive) {
    for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
      const auto& field = spec.fields[f];
      if (!field.has_range()) {
        continue;
      }
      result.cost += config_.cost_per_field_range;
      const std::int32_t value = db::direct::read_field(db_, t, r, f);
      if (value >= *field.range_min && value <= *field.range_max) {
        continue;
      }
      Finding finding;
      finding.technique = Technique::RangeCheck;
      finding.table = t;
      finding.record = r;
      finding.field = f;
      finding.offset = db_.layout().field_offset(t, r, f);
      finding.length = 4;
      ++result.findings;
      db::direct::write_field(db_, t, r, f, field.default_value);
      if (config_.free_dynamic_on_range_error) {
        finding.recovery = Recovery::FreeRecord;
        report(finding);
        db::direct::free_record(db_, t, r);
        break;
      }
      finding.recovery = Recovery::ResetField;
      report(finding);
    }
  }
  return tally(result);
}

CheckResult AuditEngine::run_unit(WorkUnit& unit, sim::Duration budget) {
  switch (unit.kind) {
    case WorkUnit::Kind::Static:
      return tally(static_scan(unit.exhaustive, budget, &unit.progress));
    case WorkUnit::Kind::Structure:
      return tally(
          structure_scan(unit.table, unit.exhaustive, budget, &unit.progress));
    case WorkUnit::Kind::Ranges:
      return tally(
          ranges_scan(unit.table, unit.exhaustive, budget, &unit.progress));
    case WorkUnit::Kind::Selective:
      return tally(selective_scan(unit.table, unit.exhaustive));
    case WorkUnit::Kind::Semantics:
      return tally(semantics_scan(unit.exhaustive, budget, &unit.progress));
  }
  return {};
}

CheckResult AuditEngine::run_cycle(const std::vector<db::TableId>& order,
                                   bool exhaustive) {
  // The cycle's work queue: units carried from earlier budget-exhausted
  // cycles first (FIFO — the starvation-freedom guarantee under sustained
  // overload), then this cycle's fresh units in `order`. A fresh unit
  // duplicating a carried (kind, table) is dropped: the carried one
  // already covers at least its dirty set.
  std::vector<WorkUnit> queue;
  queue.reserve(carry_.size() + 2 + 3 * order.size());
  for (auto& unit : carry_) {
    queue.push_back(unit);
  }
  carry_.clear();
  const auto enqueue_fresh = [&](WorkUnit::Kind kind, db::TableId t) {
    for (const auto& unit : queue) {
      if (unit.kind == kind && unit.table == t) {
        return;
      }
    }
    WorkUnit unit;
    unit.kind = kind;
    unit.table = t;
    unit.exhaustive = exhaustive;  // frozen: a truncated sweep unit still
                                   // finishes exhaustively next cycle
    queue.push_back(unit);
  };
  enqueue_fresh(WorkUnit::Kind::Static, db::kNoTable);
  for (const db::TableId t : order) {
    enqueue_fresh(WorkUnit::Kind::Structure, t);
    enqueue_fresh(WorkUnit::Kind::Ranges, t);
    if (config_.selective_monitoring) {
      enqueue_fresh(WorkUnit::Kind::Selective, t);
    }
  }
  enqueue_fresh(WorkUnit::Kind::Semantics, db::kNoTable);

  const sim::Duration budget =
      config_.cycle_budget > 0 ? config_.cycle_budget : kUnlimited;
  CheckResult result;
  sim::Duration makespan = 0;
  bool exhausted = false;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (budget != kUnlimited && result.cost >= budget) {
      // Out of budget: everything not yet started carries to the next
      // cycle, in order.
      exhausted = true;
      for (std::size_t j = i; j < queue.size(); ++j) {
        carry_.push_back(queue[j]);
      }
      break;
    }
    WorkUnit& unit = queue[i];
    const sim::Duration remaining =
        budget == kUnlimited ? kUnlimited : budget - result.cost;
    result += run_unit(unit, remaining);
    makespan += scan_makespan_;
    if (unit.progress.truncated) {
      // Partially scanned: the unit re-queues with its resume point; only
      // the items it actually scanned were booked.
      unit.progress.truncated = false;
      carry_.push_back(unit);
    }
  }
  if (exhausted) {
    ++budget_exhausted_cycles_;
    obs::count(obs::Counter::audit_budget_exhausted);
  }
  if (!carry_.empty()) {
    deferred_units_total_ += carry_.size();
    obs::count(obs::Counter::audit_cycles_deferred,
               static_cast<std::uint64_t>(carry_.size()));
  }
  last_makespan_ = makespan;
  total_makespan_ += makespan;
  obs::observe(obs::Histogram::audit_cycle_latency_us,
               static_cast<std::uint64_t>(makespan));
  return result;
}

CheckResult AuditEngine::full_pass(const std::vector<db::TableId>& order) {
  const auto start = static_cast<std::uint64_t>(clock_());
  const CheckResult result = run_cycle(order, /*exhaustive=*/true);
  obs::count(obs::Counter::audit_passes);
  obs::observe(obs::Histogram::audit_pass_cost_us,
               static_cast<std::uint64_t>(result.cost));
  obs::trace_span("audit.full_pass", "audit", start,
                  static_cast<std::uint64_t>(result.cost));
  return result;
}

CheckResult AuditEngine::incremental_pass(const std::vector<db::TableId>& order) {
  const auto start = static_cast<std::uint64_t>(clock_());
  ++cycle_index_;
  obs::count(obs::Counter::audit_incremental_cycles);
  const bool sweep = config_.full_sweep_interval != 0 &&
                     cycle_index_ % config_.full_sweep_interval == 0;
  if (sweep) {
    ++full_sweeps_;
    obs::count(obs::Counter::audit_full_sweeps);
  }
  // A sweep cycle enqueues its fresh units exhaustively — same checks and
  // costs as the baseline pass — which both catches corruption the dirty
  // tracking never saw (raw-memory writes bypassing the store) and
  // advances every watermark, clearing the accumulated dirty state.
  const CheckResult result = run_cycle(order, sweep);
  obs::count(obs::Counter::audit_passes);
  obs::observe(obs::Histogram::audit_pass_cost_us,
               static_cast<std::uint64_t>(result.cost));
  obs::trace_span("audit.incremental_pass", "audit", start,
                  static_cast<std::uint64_t>(result.cost));
  return result;
}

}  // namespace wtc::audit
