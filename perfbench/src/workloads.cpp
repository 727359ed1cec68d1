#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

#include "audit/engine.hpp"
#include "common/crc32.hpp"
#include "stats.hpp"

namespace perfbench {

db::ControllerSchemaParams table5_schema(db::RecordIndex unit) {
  db::ControllerSchemaParams p;
  p.process_records = 4 * unit;
  p.connection_records = 4 * unit;
  p.resource_records = 5 * unit;
  p.config_records = 2 * unit;
  p.subscriber_records = 4 * unit;
  return p;
}

void report_index_counters(Report& report, const obs::MetricsSnapshot& snapshot,
                           std::uint64_t operations) {
  const auto per_op = [&](obs::Counter c) {
    return static_cast<double>(snapshot.counter(c)) /
           static_cast<double>(std::max<std::uint64_t>(1, operations));
  };
  report.metric("db.index.hits_per_op", per_op(obs::Counter::db_index_hits), "1/op");
  report.metric("db.index.resyncs_per_op", per_op(obs::Counter::db_index_resyncs), "1/op");
  report.metric("db.index.rebuilds_per_op", per_op(obs::Counter::db_index_rebuilds), "1/op");
  report.metric("db.dirty_chunk_stamps_per_op", per_op(obs::Counter::db_dirty_chunk_stamps),
                "1/op");
}

double median_setup_seconds(int repeats, HostSpeed& speed, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    speed.sample();
    const std::uint64_t t0 = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(seconds);
}

double block_tail_ms(Report& report, const std::vector<double>& ns, double p,
                     const char* what, std::size_t min_block) {
  const std::size_t block = std::max(min_block, tail_block(p));
  const bool whole = ns.size() >= block;
  report.check(whole, std::string(what) + ": " + std::to_string(ns.size()) +
                          " samples fill no block of " + std::to_string(block));
  return whole ? block_percentile(ns, p, block) / 1e6 : 0.0;
}

void finish_trace(Report& report, const Options& options, const Tracer& tracer,
                  std::uint32_t root) {
  report.layer_shares(tracer.spans(), root);
  const std::string path = options.out_dir + "/trace_" + options.workload + ".json";
  if (!write_chrome_trace(path, tracer.spans(), 200000)) {
    std::printf("warning: cannot write %s\n", path.c_str());
  }
}

void measure_audit_layers(Report& report, db::Database& database, std::size_t threads) {
  const auto engine = [&](std::size_t n) {
    audit::EngineConfig config;
    config.audit_threads = n;
    config.recent_write_grace = 0;
    return std::make_unique<audit::AuditEngine>(database, config, []() { return sim::Time{0}; });
  };
  const auto one = engine(1);
  const auto many = engine(threads);
  // Selective monitoring learns value histograms; an engine of its own
  // keeps it out of the full passes timed below.
  audit::EngineConfig selective_config;
  selective_config.selective_monitoring = true;
  selective_config.recent_write_grace = 0;
  audit::AuditEngine selective(database, selective_config, []() { return sim::Time{0}; });
  std::vector<db::TableId> order;
  for (db::TableId t = 0; t < database.table_count(); ++t) {
    order.push_back(t);
  }
  const auto clean = [&](const audit::CheckResult& r, const char* what) {
    report.check(r.findings == 0, std::string(what) + " found damage in a clean region");
  };

  // The checks a full pass runs, each called on its own.
  std::vector<double> check_ns[5];
  std::uint64_t selective_findings = 0;
  for (int i = 0; i < 5; ++i) {
    std::uint64_t t0 = now_ns();
    clean(one->check_static(), "check_static");
    check_ns[0].push_back(static_cast<double>(now_ns() - t0));
    double structure = 0.0, ranges = 0.0;
    for (const db::TableId t : order) {
      t0 = now_ns();
      clean(one->check_structure(t), "check_structure");
      structure += static_cast<double>(now_ns() - t0);
      t0 = now_ns();
      clean(one->check_ranges(t), "check_ranges");
      ranges += static_cast<double>(now_ns() - t0);
    }
    check_ns[1].push_back(structure);
    check_ns[2].push_back(ranges);
    t0 = now_ns();
    clean(one->check_semantics(), "check_semantics");
    check_ns[3].push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    for (const db::TableId t : order) {
      selective_findings += selective.check_selective(t).findings;
    }
    check_ns[4].push_back(static_cast<double>(now_ns() - t0));
  }
  const char* names[] = {"audit.engine.check_static_ms", "audit.engine.check_structure_ms",
                         "audit.engine.check_ranges_ms", "audit.engine.check_semantics_ms",
                         "audit.engine.check_selective_ms"};
  // Rare values are what the selective monitor reports, so its findings
  // are read, not failed on.
  report.note("audit.engine.selective_findings", static_cast<double>(selective_findings),
              "count");
  for (int k = 0; k < 5; ++k) {
    report.metric(names[k], median(check_ns[k]) / 1e6, "ms", check_ns[k].size());
  }

  // Measured against modelled parallelism, full passes alternated.
  std::vector<double> one_ns, many_ns;
  audit::CheckResult booked;
  for (int i = 0; i < 5; ++i) {
    std::uint64_t t0 = now_ns();
    clean(one->full_pass(order), "one-thread full pass");
    one_ns.push_back(static_cast<double>(now_ns() - t0));
    t0 = now_ns();
    booked = many->full_pass(order);
    clean(booked, "nproc full pass");
    many_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  const double measured = median(one_ns) / median(many_ns);
  const auto makespan = static_cast<double>(many->last_cycle_makespan());
  const double modelled = static_cast<double>(booked.cost) / makespan;
  report.metric("audit.engine.booked_us_per_cycle", static_cast<double>(booked.cost), "us");
  report.metric("audit.engine.makespan_us", makespan, "us");
  report.metric("audit.engine.parallel_efficiency", measured / static_cast<double>(threads),
                "ratio");
  report.metric("audit.engine.modelled_over_measured", modelled / measured, "ratio");
  report.note("audit.engine.speedup_measured", measured, "x");
  report.note("audit.engine.speedup_modelled", modelled, "x");

  // CRC32 throughput over the static spans the static check covers.
  std::size_t bytes = 0;
  for (const auto& [offset, length] : database.static_spans()) {
    bytes += length;
  }
  std::vector<double> mb_per_s;
  std::uint32_t digest = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t t0 = now_ns();
    for (const auto& [offset, length] : database.static_spans()) {
      digest += wtc::common::crc32(database.region().subspan(offset, length));
    }
    mb_per_s.push_back(static_cast<double>(bytes) / 1e6 /
                       (static_cast<double>(now_ns() - t0) / 1e9));
  }
  report.metric("common.crc32_mb_per_s", median(mb_per_s), "MB/s", mb_per_s.size());
  report.note("crc32_digest", static_cast<double>(digest & 0xFFFFu), "value");
}

}  // namespace perfbench
