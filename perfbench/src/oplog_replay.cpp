// oplog_replay: replay verdicts over a long recorded op log.
//
// Set-up records a seeded log through an instrumented DbApi with a RunOpLog
// tee: high-repetition handoff lifecycles (a small value alphabet and
// reused record slots, as in workloads/handoff_storm.oplog) interleaved
// with low-repetition subscriber registrations that hold their records
// (as in workloads/registration_avalanche.oplog). Its op shares and
// duplicate-chain ratio are checked to lie between those of the two
// shipped logs. One verdict is decode_op_log over the serialized bytes
// plus ReplayAuditor::run against the live region; it must find nothing.
// Every few verdicts apply_op_log replays the log onto a database reset to
// a new database's region, which must reproduce the live region byte for
// byte. Verdicts replay on
// one thread: at nproc threads the verdict time follows the host's
// scheduling of the shared vCPUs. The traced run compares the two.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>

#include "audit/replay.hpp"
#include "db/controller_schema.hpp"
#include "experiments/replay_workload.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Records per Table-5 part: the call_setup region (0.79 MB).
constexpr db::RecordIndex kUnit = 1024;
constexpr std::uint64_t kLogEvents = 100'000;
constexpr std::size_t kMaxRegistered = 512;
constexpr int kVerdictsPerApply = 4;

/// Per-op shares and duplicate-chain ratio of one log.
struct Mix {
  std::array<double, 11> share{};  // indexed by db::ApiOp
  double duplicate_ratio = 0.0;
};

constexpr std::array<std::pair<db::ApiOp, const char*>, 4> kMixOps = {{
    {db::ApiOp::Alloc, "alloc"},
    {db::ApiOp::WriteFld, "write_fld"},
    {db::ApiOp::Move, "move"},
    {db::ApiOp::Free, "free"},
}};

Mix mix_of(std::span<const db::ApiEvent> events, double duplicate_ratio) {
  Mix mix;
  for (const db::ApiEvent& e : events) {
    mix.share[static_cast<std::size_t>(e.op)] += 1.0;
  }
  for (double& s : mix.share) {
    s /= static_cast<double>(std::max<std::size_t>(1, events.size()));
  }
  mix.duplicate_ratio = duplicate_ratio;
  return mix;
}

class Recording {
 public:
  explicit Recording(std::uint64_t seed)
      : database_(db::make_controller_database(table5_schema(kUnit))),
        ids_(db::resolve_controller_ids(database_->schema())),
        api_(*database_, [this]() { return now_; }) {
    InputRng rng(seed);
    api_.set_audit_hooks(&log_);
    api_.init(1);
    std::vector<db::RecordIndex> registered;
    while (log_.recorded() < kLogEvents) {
      if (rng.uniform(3) == 0) {
        handoff_call(rng);
      } else if (registered.size() < kMaxRegistered && rng.uniform(4) != 0) {
        db::RecordIndex p = 0;
        op(api_.alloc_rec(ids_.process, db::kGroupActiveCalls, p));
        op(api_.write_fld(ids_.process, p, ids_.p_process_id, db::key_of(p)));
        op(api_.write_fld(ids_.process, p, ids_.p_status, 1));
        op(api_.write_fld(ids_.process, p, ids_.p_task_token,
                          static_cast<std::int32_t>(rng.uniform(1u << 30))));
        registered.push_back(p);
      } else if (!registered.empty()) {
        const std::size_t i = rng.uniform(registered.size());
        op(api_.free_rec(ids_.process, registered[i]));
        registered[i] = registered.back();
        registered.pop_back();
      }
      now_ += static_cast<sim::Time>(sim::kMillisecond);
    }
    api_.close();
    registered_ = std::move(registered);
    bytes_ = log_.serialize();
  }

  Recording(const Recording&) = delete;
  Recording& operator=(const Recording&) = delete;

  [[nodiscard]] db::Database& database() noexcept { return *database_; }
  [[nodiscard]] const db::ControllerIds& ids() const noexcept { return ids_; }
  [[nodiscard]] const db::RunOpLog& log() const noexcept { return log_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] const std::vector<db::RecordIndex>& registered() const noexcept {
    return registered_;
  }
  [[nodiscard]] std::uint64_t failed_ops() const noexcept { return failed_ops_; }

 private:
  void op(db::Status status) { failed_ops_ += status == db::Status::Ok ? 0 : 1; }

  /// One handoff lifecycle: allocate the call triple, close its loop, hand
  /// off one to three times, release. Values come from a small alphabet.
  void handoff_call(InputRng& rng) {
    db::RecordIndex p = 0, c = 0, r = 0;
    op(api_.alloc_rec(ids_.process, db::kGroupActiveCalls, p));
    op(api_.alloc_rec(ids_.connection, db::kGroupActiveCalls, c));
    op(api_.alloc_rec(ids_.resource, db::kGroupActiveCalls, r));
    op(api_.write_fld(ids_.process, p, ids_.p_process_id, db::key_of(p)));
    op(api_.write_fld(ids_.process, p, ids_.p_connection_id, db::key_of(c)));
    op(api_.write_fld(ids_.process, p, ids_.p_location_area,
                      static_cast<std::int32_t>(rng.uniform(3))));
    op(api_.write_fld(ids_.connection, c, ids_.c_connection_id, db::key_of(c)));
    op(api_.write_fld(ids_.connection, c, ids_.c_channel_id, db::key_of(r)));
    op(api_.write_fld(ids_.connection, c, ids_.c_codec,
                      static_cast<std::int32_t>(rng.uniform(4))));
    op(api_.write_fld(ids_.resource, r, ids_.r_channel_id, db::key_of(r)));
    op(api_.write_fld(ids_.resource, r, ids_.r_process_id, db::key_of(p)));
    const auto handoffs = 1 + rng.uniform(3);
    for (std::uint64_t h = 0; h < handoffs; ++h) {
      op(api_.write_fld(ids_.process, p, ids_.p_handoff_count,
                        static_cast<std::int32_t>(h + 1)));
      op(api_.move_rec(ids_.process, p, db::kGroupStableCalls));
      op(api_.move_rec(ids_.process, p, db::kGroupActiveCalls));
    }
    op(api_.free_rec(ids_.resource, r));
    op(api_.free_rec(ids_.connection, c));
    op(api_.free_rec(ids_.process, p));
  }

  std::unique_ptr<db::Database> database_;
  db::ControllerIds ids_;
  sim::Time now_ = 1;
  db::RunOpLog log_;
  db::DbApi api_;
  std::vector<std::uint8_t> bytes_;
  std::vector<db::RecordIndex> registered_;
  std::uint64_t failed_ops_ = 0;
};

struct Samples {
  std::vector<double> verdict_ns, decode_ns, run_ns, apply_ns;
  std::uint64_t applied = 0;
  std::uint64_t divergences = 0;
  std::uint64_t wall_ns = 0;
  audit::ReplayStats stats;
  HostSpeed speed;
};

class Replayer {
 public:
  Replayer(Recording& recording, Tracer& tracer, Report& report)
      : recording_(recording),
        tracer_(tracer),
        report_(report),
        auditor_(std::make_unique<audit::ReplayAuditor>(recording.database(), config(1))),
        target_(db::make_controller_database(table5_schema(kUnit))) {
    const auto region = target_->region();
    empty_image_.assign(region.begin(), region.end());
  }

  static audit::ReplayConfig config(std::size_t threads) {
    audit::ReplayConfig c;
    c.replay_threads = threads;
    return c;
  }

  /// decode_op_log + ReplayAuditor::run; returns the result of the run.
  audit::ReplayResult verdict(Samples& s) {
    const std::uint64_t t0 = now_ns();
    db::OpLogReadResult log;
    {
      ScopedSpan span(tracer_, "db.run_op_log.decode", "db.run_op_log");
      log = db::decode_op_log(recording_.bytes());
    }
    const std::uint64_t t1 = now_ns();
    audit::ReplayResult result;
    {
      ScopedSpan span(tracer_, "audit.replay.run", "audit.replay");
      result = auditor_->run(log.events);
    }
    const std::uint64_t t2 = now_ns();
    s.decode_ns.push_back(static_cast<double>(t1 - t0));
    s.run_ns.push_back(static_cast<double>(t2 - t1));
    s.verdict_ns.push_back(static_cast<double>(t2 - t0));
    report_.check(log.ok() && log.events.size() == recording_.log().recorded(),
                  "decode_op_log failed on the recorded bytes");
    s.stats = result.stats;
    return result;
  }

  void apply(Samples& s) {
    // The same database each time, reset to a new database's region, so
    // the timed apply does not also fault in a newly allocated region.
    bool installed = false;
    {
      ScopedSpan span(tracer_, "bench.fresh_database", "bench.harness");
      installed = target_->install_image(empty_image_);
    }
    const std::uint64_t t0 = now_ns();
    experiments::ReplayWorkloadStats stats;
    {
      ScopedSpan span(tracer_, "experiments.replay_workload.apply",
                      "experiments.replay_workload");
      stats = experiments::apply_op_log(*target_, recording_.log().events());
    }
    s.apply_ns.push_back(static_cast<double>(now_ns() - t0));
    s.applied += stats.applied;
    s.divergences += stats.divergences;
    ScopedSpan span(tracer_, "bench.compare_region", "bench.harness");
    const auto a = target_->region();
    const auto b = recording_.database().region();
    report_.check(installed && stats.divergences == 0 && a.size() == b.size() &&
                      std::memcmp(a.data(), b.data(), a.size()) == 0,
                  "apply_op_log did not reproduce the recorded region (" +
                      std::to_string(stats.divergences) + " divergences)");
  }

  Samples measure(double seconds) {
    Samples s;
    const std::uint64_t start = now_ns();
    const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < end) {
      for (int i = 0; i < kVerdictsPerApply; ++i) {
        const audit::ReplayResult result = verdict(s);
        report_.check(result.stats.mismatched_words == 0 && result.findings.empty(),
                      "replay verdict flagged " +
                          std::to_string(result.stats.mismatched_words) +
                          " words of the clean region");
      }
      apply(s);
      ScopedSpan span(tracer_, "bench.calibration", "bench.harness");
      s.speed.sample();
    }
    s.wall_ns = now_ns() - start;
    return s;
  }

  audit::ReplayAuditor& auditor() noexcept { return *auditor_; }

 private:
  Recording& recording_;
  Tracer& tracer_;
  Report& report_;
  std::unique_ptr<audit::ReplayAuditor> auditor_;
  std::unique_ptr<db::Database> target_;
  std::vector<std::byte> empty_image_;
};

/// Op shares and duplicate ratio of a shipped log, replayed onto the
/// default controller database it was recorded on.
bool shipped_mix(const std::string& path, Mix& mix) {
  const db::OpLogReadResult log = db::load_op_log(path);
  if (!log.ok()) {
    return false;
  }
  auto database = db::make_controller_database();
  experiments::apply_op_log(*database, log.events);
  audit::ReplayAuditor auditor(*database, audit::ReplayConfig{});
  mix = mix_of(log.events, auditor.run(log.events).stats.duplicate_ratio());
  return true;
}

void check_mix(Report& report, const Mix& generated) {
  Mix storm, registration;
  const bool loaded = shipped_mix("workloads/handoff_storm.oplog", storm) &&
                      shipped_mix("workloads/registration_avalanche.oplog", registration);
  report.check(loaded, "cannot load the shipped workloads/*.oplog logs");
  if (!loaded) {
    return;
  }
  const auto between = [](double x, double a, double b) {
    return x >= std::min(a, b) && x <= std::max(a, b);
  };
  for (const auto& [op, name] : kMixOps) {
    const auto i = static_cast<std::size_t>(op);
    std::printf("mix    %-10s share  generated %6.3f  handoff_storm %6.3f  "
                "registration_avalanche %6.3f\n",
                name, generated.share[i], storm.share[i], registration.share[i]);
    report.check(between(generated.share[i], storm.share[i], registration.share[i]),
                 std::string("generated ") + name +
                     " share lies outside the shipped logs' range");
  }
  std::printf("mix    duplicate_ratio    generated %6.3f  handoff_storm %6.3f  "
              "registration_avalanche %6.3f\n",
              generated.duplicate_ratio, storm.duplicate_ratio,
              registration.duplicate_ratio);
  report.check(between(generated.duplicate_ratio, storm.duplicate_ratio,
                       registration.duplicate_ratio),
               "generated duplicate ratio lies outside the shipped logs' range");
}

/// Seeded in-range corruptions of an unruled field of live registrations:
/// each one must show as exactly one mismatched word at its offset.
void check_detection(Report& report, Recording& recording, Replayer& replayer,
                     std::uint64_t seed) {
  InputRng rng(seed ^ 0x5EEDu);
  db::Database& database = recording.database();
  const auto& registered = recording.registered();
  Samples samples;
  for (int i = 0; i < 8 && !registered.empty(); ++i) {
    const db::RecordIndex p = registered[rng.uniform(registered.size())];
    const std::size_t at =
        database.layout().field_offset(recording.ids().process, p, recording.ids().p_task_token);
    const std::int32_t original = db::load_i32(database.region(), at);
    db::store_i32(database.region(), at, original + 1);
    const audit::ReplayResult result = replayer.verdict(samples);
    db::store_i32(database.region(), at, original);
    const bool located =
        result.findings.size() == 1 && result.findings[0].offset <= at &&
        at < result.findings[0].offset + result.findings[0].length;
    report.check(result.stats.mismatched_words == 1 && located,
                 "seeded corruption at offset " + std::to_string(at) + " gave " +
                     std::to_string(result.stats.mismatched_words) +
                     " mismatched words");
  }
}

}  // namespace

void run_oplog_replay(const Options& options, Report& report) {
  std::unique_ptr<Recording> recording;
  HostSpeed setup_speed;
  const double setup_s = median_setup_seconds(5, setup_speed, [&]() {
    recording.reset();
    recording = std::make_unique<Recording>(options.seed);
  });
  report.metric("setup_s", setup_s * setup_speed.wall_factor(), "s", 5);
  report.note("setup_wall_s", setup_s, "s", 5);
  setup_speed.print(report, "setup");
  report.check(recording->failed_ops() == 0,
               std::to_string(recording->failed_ops()) + " API calls failed while recording");

  Tracer tracer(false);
  Replayer replayer(*recording, tracer, report);
  const Samples untraced =
      replayer.measure(options.trace ? options.seconds / 2 : options.seconds);
  report.add_attempted(untraced.verdict_ns.size() + untraced.applied);
  const double factor = untraced.speed.wall_factor();
  untraced.speed.print(report, "run");
  report.metric("op_ms.p50", percentile(untraced.verdict_ns, 50) * factor / 1e6, "ms",
                untraced.verdict_ns.size());
  report.note("op_ms.within_run_spread", spread(untraced.verdict_ns), "ratio", untraced.verdict_ns.size());
  report.note("op_ms.tail", block_tail_ms(report, untraced.verdict_ns, 90, "replay verdict"),
                "ms", untraced.verdict_ns.size());
  report.metric("second_op_ms.p50", percentile(untraced.apply_ns, 50) * factor / 1e6, "ms",
                untraced.apply_ns.size());
  report.note("replay_verdict_ms.p50", percentile(untraced.verdict_ns, 50) / 1e6, "ms",
              untraced.verdict_ns.size());
  report.note("replay_verdict_ms.p90", percentile(untraced.verdict_ns, 90) / 1e6, "ms",
              untraced.verdict_ns.size());
  double apply_s = 0.0;
  for (const double ns : untraced.apply_ns) {
    apply_s += ns / 1e9;
  }
  report.note("replay_apply_ops_per_s", static_cast<double>(untraced.applied) / apply_s, "1/s",
              untraced.apply_ns.size());
  report.note("log_events", static_cast<double>(recording->log().recorded()), "count");
  report.note("log_bytes", static_cast<double>(recording->bytes().size()), "B");

  check_mix(report, mix_of(recording->log().events(), untraced.stats.duplicate_ratio()));
  check_detection(report, *recording, replayer, options.seed);

  if (options.trace) {
    obs::Recorder recorder;
    obs::ScopedRecorder scope(recorder);
    tracer.set_enabled(true);
    const std::uint32_t root = tracer.open("bench.oplog_replay", "bench");
    const Samples traced = replayer.measure(options.seconds / 2);
    tracer.close(root);
    tracer.set_enabled(false);
    report.add_attempted(traced.verdict_ns.size() + traced.applied);
    const auto per_work = [](const Samples& s) {
      return static_cast<double>(s.wall_ns) * s.speed.wall_factor() /
             static_cast<double>(s.verdict_ns.size());
    };
    report.metric("bench.trace_overhead_pct",
                  100.0 * (per_work(traced) / per_work(untraced) - 1.0), "%");
    finish_trace(report, options, tracer, root);

    const double bytes = static_cast<double>(recording->bytes().size());
    report.metric("db.run_op_log.decode_mb_per_s", bytes / 1e6 / (median(traced.decode_ns) / 1e9),
                  "MB/s", traced.decode_ns.size());
    report.metric("db.run_op_log.bytes_per_event",
                  bytes / static_cast<double>(recording->log().recorded()), "B");
    std::vector<double> encode_ns;
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t t0 = now_ns();
      const auto encoded = recording->log().serialize();
      encode_ns.push_back(static_cast<double>(now_ns() - t0));
      report.check(encoded == recording->bytes(), "serialize is not deterministic");
    }
    report.metric("db.run_op_log.encode_mb_per_s", bytes / 1e6 / (median(encode_ns) / 1e9),
                  "MB/s", encode_ns.size());
    report.metric("audit.replay.run_ms", median(traced.run_ns) / 1e6, "ms", traced.run_ns.size());
    report.metric("audit.replay.duplicate_ratio", traced.stats.duplicate_ratio(), "ratio");
    report.metric("audit.replay.unique_chains", static_cast<double>(traced.stats.unique_chains),
                  "count");
    report.metric("audit.replay.executed_ops", static_cast<double>(traced.stats.executed_ops),
                  "count");
    report.metric("experiments.replay_workload.apply_ns_per_op",
                  median(traced.apply_ns) /
                      (static_cast<double>(traced.applied) /
                       static_cast<double>(traced.apply_ns.size())),
                  "ns", traced.apply_ns.size());
    report.metric("experiments.replay_workload.divergences",
                  static_cast<double>(traced.divergences), "count");
    report_index_counters(report, recorder.snapshot(), traced.applied);

    // Measured against modelled parallelism of the replay audit.
    const auto log = db::decode_op_log(recording->bytes());
    audit::ReplayAuditor parallel(recording->database(), Replayer::config(options.threads));
    std::vector<double> one_ns, many_ns;
    audit::ReplayStats stats;
    for (int i = 0; i < 5; ++i) {
      std::uint64_t t0 = now_ns();
      (void)replayer.auditor().run(log.events);
      one_ns.push_back(static_cast<double>(now_ns() - t0));
      t0 = now_ns();
      stats = parallel.run(log.events).stats;
      many_ns.push_back(static_cast<double>(now_ns() - t0));
    }
    const double measured = median(one_ns) / median(many_ns);
    const double modelled =
        static_cast<double>(stats.dedup_cost) / static_cast<double>(stats.makespan);
    report.metric("audit.replay.parallel_efficiency",
                  measured / static_cast<double>(options.threads), "ratio");
    report.metric("audit.replay.modelled_over_measured", modelled / measured, "ratio");
    report.note("audit.replay.speedup_measured", measured, "x");
    report.note("audit.replay.speedup_modelled", modelled, "x");
  }
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
