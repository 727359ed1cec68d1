#include "obs/metrics.hpp"

#include <algorithm>

namespace wtc::obs {
namespace {

constexpr std::array<std::string_view, kCounterCount> kCounterNames = {
    "sched.events_fired",
    "sched.events_cancelled",
    "sched.tombstones_purged",
    "ipc.sent",
    "ipc.delivered",
    "ipc.dropped",
    "ipc.duplicated",
    "ipc.dead_letters",
    "reliable.sent",
    "reliable.acked",
    "reliable.retries",
    "reliable.abandoned",
    "reliable.accepted",
    "reliable.duplicates_dropped",
    "reliable.malformed",
    "db.reads",
    "db.writes",
    "db.lock_acquires",
    "db.lock_conflicts",
    "db.dirty_chunk_stamps",
    "db.scrubs",
    "db.reloads",
    "db.images_rejected",
    "db.index_hits",
    "db.index_splices",
    "db.index_resyncs",
    "db.index_rebuilds",
    "audit.checks",
    "audit.findings",
    "audit.passes",
    "audit.incremental_cycles",
    "audit.full_sweeps",
    "audit.table_reload_escalations",
    "audit.full_reload_escalations",
    "audit.element_reenabled",
    "audit.cf_slices",
    "audit.cf_transitions_attested",
    "audit.cf_violations",
    "pecos.checks",
    "pecos.violations",
    "pecos.preemptive_detections",
    "pecos.cf_transitions_logged",
    "pecos.cf_log_overflow_slices",
    "manager.heartbeats_sent",
    "manager.heartbeat_replies",
    "manager.restarts",
    "manager.takeovers",
    "manager.demotions",
    "manager.heals",
    "manager.heal_replayed_ops",
    "manager.heal_escalations",
    "audit.parallel_tasks",
    "audit.budget_exhausted",
    "audit.cycles_deferred",
    "db.shard_routed",
    "db.cross_shard_links",
    "oplog.recorded",
    "oplog.bytes",
    "replay.chains",
    "replay.deduped",
    "replay.exec_ops",
    "replay.mismatches",
};

constexpr std::array<std::string_view, kGaugeCount> kGaugeNames = {
    "sched.max_pending_events",
    "db.write_generation",
    "reliable.max_in_flight",
    "cf_log.max_depth",
    "db.shard_imbalance",
};

constexpr std::array<std::string_view, kHistogramCount> kHistogramNames = {
    "audit.check_cost_us",
    "audit.pass_cost_us",
    "cf.detection_latency_us",
    "audit.cycle_latency_us",
};

void append_u64(std::string& out, std::uint64_t value) {
  out += std::to_string(value);
}

void append_histogram_json(std::string& out, const HistogramData& hist) {
  out += "{\"count\":";
  append_u64(out, hist.count);
  out += ",\"sum\":";
  append_u64(out, hist.sum);
  out += ",\"min\":";
  append_u64(out, hist.min);
  out += ",\"max\":";
  append_u64(out, hist.max);
  out += ",\"buckets\":[";
  // Trailing zero buckets carry no information; emit up to the last
  // non-zero one so the document stays readable.
  std::size_t last = 0;
  for (std::size_t i = 0; i < hist.buckets.size(); ++i) {
    if (hist.buckets[i] != 0) {
      last = i + 1;
    }
  }
  for (std::size_t i = 0; i < last; ++i) {
    if (i != 0) {
      out += ',';
    }
    append_u64(out, hist.buckets[i]);
  }
  out += "]}";
}

}  // namespace

std::string_view counter_name(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

std::string_view gauge_name(Gauge g) noexcept {
  return kGaugeNames[static_cast<std::size_t>(g)];
}

std::string_view histogram_name(Histogram h) noexcept {
  return kHistogramNames[static_cast<std::size_t>(h)];
}

std::optional<Counter> find_counter(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kCounterNames.size(); ++i) {
    if (kCounterNames[i] == name) {
      return static_cast<Counter>(i);
    }
  }
  return std::nullopt;
}

std::optional<Gauge> find_gauge(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kGaugeNames.size(); ++i) {
    if (kGaugeNames[i] == name) {
      return static_cast<Gauge>(i);
    }
  }
  return std::nullopt;
}

std::optional<Histogram> find_histogram(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kHistogramNames.size(); ++i) {
    if (kHistogramNames[i] == name) {
      return static_cast<Histogram>(i);
    }
  }
  return std::nullopt;
}

void HistogramData::merge(const HistogramData& other) noexcept {
  if (other.count == 0) {
    return;
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  if (count == 0 || other.min < min) {
    min = other.min;
  }
  if (count == 0 || other.max > max) {
    max = other.max;
  }
  count += other.count;
  sum += other.sum;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) noexcept {
  for (std::size_t i = 0; i < counters.size(); ++i) {
    counters[i] += other.counters[i];
  }
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    gauges[i] = std::max(gauges[i], other.gauges[i]);
  }
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    histograms[i].merge(other.histograms[i]);
  }
  runs += other.runs;
}

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out.reserve(2048);
  out += "{\n  \"runs\": ";
  append_u64(out, runs);
  out += ",\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    out += kCounterNames[i];
    out += "\": ";
    append_u64(out, counters[i]);
  }
  out += "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    out += kGaugeNames[i];
    out += "\": ";
    append_u64(out, gauges[i]);
  }
  out += "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    out += kHistogramNames[i];
    out += "\": ";
    append_histogram_json(out, histograms[i]);
  }
  out += "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::to_csv() const {
  std::string out = "metric,value\n";
  out += "runs,";
  append_u64(out, runs);
  out += '\n';
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += kCounterNames[i];
    out += ',';
    append_u64(out, counters[i]);
    out += '\n';
  }
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += kGaugeNames[i];
    out += ',';
    append_u64(out, gauges[i]);
    out += '\n';
  }
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& hist = histograms[i];
    const std::string base(kHistogramNames[i]);
    for (const auto& [suffix, value] :
         {std::pair<const char*, std::uint64_t>{".count", hist.count},
          {".sum", hist.sum},
          {".min", hist.min},
          {".max", hist.max}}) {
      out += base;
      out += suffix;
      out += ',';
      append_u64(out, value);
      out += '\n';
    }
  }
  return out;
}

}  // namespace wtc::obs
