// call_setup: open-loop call processing with the audit sharing the CPU.
//
// Seeded Poisson call arrivals at fixed absolute rates drive full call
// lifecycles through an instrumented DbApi whose notifications feed a
// RunOpLog tee. A setup is three allocations, the six key/foreign-key
// field writes that close the Process -> Connection -> Resource loop, and a
// move to the stable-call group; halfway through the hold the call reads
// its codec; the teardown reads the process record and frees all three.
// Hold times and the audit period are Table 2's, compressed in time (see
// table2_traffic). An incremental audit pass runs inline every audit
// period, on the same thread, so a pass that runs long delays the calls
// queued behind it, which is the paper's Table-3 effect. Latency is timed
// from each call's due time, so that delay counts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <queue>
#include <utility>

#include "audit/engine.hpp"
#include "db/controller_schema.hpp"
#include "experiments/replay_workload.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Records per Table-5 part: a 0.79 MB region, small enough to stay in one
/// core's 2 MiB L2 next to the database's side tables.
constexpr db::RecordIndex kUnit = 1024;
constexpr double kProcessRecords = 4.0 * kUnit;
constexpr double kNominalRate = 10000.0;  // calls/s
/// Table 2's client: each of its threads idles an exponential 10 s between
/// calls and holds a call U[20, 30] s; the audit runs every 10 s.
constexpr double kTable2HoldMinS = 20.0;
constexpr double kTable2HoldMaxS = 30.0;
constexpr double kTable2IdleS = 10.0;
constexpr double kTable2AuditPeriodS = 10.0;
/// The measured mean occupancy may differ from Table 2's by this share.
constexpr double kOccupancyTolerance = 0.05;
/// Events per tee segment. When a segment fills, the loop pauses (its
/// schedule shifts by the pause, so no call is timed across it), replays
/// the segment onto the region it started from, compares the result with
/// the live region and starts the next segment from a copy of it. The cut
/// comes kSegmentSlack events early, so the events of the call handled
/// last never grow the log's vector past its power-of-two capacity.
constexpr std::uint64_t kSegmentEvents = 1u << 15;
constexpr std::uint64_t kSegmentSlack = 64;
/// The p99 setup-latency limit the rate grid is judged against.
constexpr double kSloMs = 10.0;
constexpr double kRateGrid[] = {10000, 20000, 40000, 60000, 80000, 100000, 120000};
constexpr double kGridStepSeconds = 0.3;
/// The tail is the median of p99s over blocks of this many calls, half a
/// second at the nominal rate.
constexpr std::size_t kTailBlock = 5000;

/// Table 2's traffic compressed in time so that `rate` calls/s arrive at
/// the benchmark's Process table. A Table-2 thread keeps its Process record
/// busy for hold / (hold + idle) = 25 / 35 of the time; the benchmark holds
/// the same share of its kProcessRecords busy, which fixes the mean hold at
/// rate, and scales Table 2's hold range and audit period by the same
/// factor. At 10k calls/s: holds of 234-351 ms, an audit every 117 ms.
struct Traffic {
  double rate = 0.0;
  double occupancy = 0.0;  ///< expected live calls / Process records
  double scale = 0.0;      ///< benchmark seconds per Table-2 second
  std::uint64_t hold_min_ns = 0;
  std::uint64_t hold_max_ns = 0;
  std::uint64_t audit_period_ns = 0;
};

Traffic table2_traffic(double rate) {
  Traffic t;
  const double hold_s = (kTable2HoldMinS + kTable2HoldMaxS) / 2.0;
  t.rate = rate;
  t.occupancy = hold_s / (hold_s + kTable2IdleS);
  t.scale = t.occupancy * kProcessRecords / rate / hold_s;
  t.hold_min_ns = static_cast<std::uint64_t>(kTable2HoldMinS * t.scale * 1e9);
  t.hold_max_ns = static_cast<std::uint64_t>(kTable2HoldMaxS * t.scale * 1e9);
  t.audit_period_ns = static_cast<std::uint64_t>(kTable2AuditPeriodS * t.scale * 1e9);
  return t;
}

/// Forwards API events to a RunOpLog inside a "db.run_op_log.record" span:
/// the timing sink of the traced run (untraced runs hook the log itself).
class TimedTee final : public db::NotificationSink {
 public:
  TimedTee(Tracer& tracer, db::RunOpLog* log) : tracer_(tracer), log_(log) {}
  void set_log(db::RunOpLog* log) noexcept { log_ = log; }
  void on_api_event(const db::ApiEvent& event) override {
    ScopedSpan span(tracer_, "db.run_op_log.record", "db.run_op_log");
    log_->on_api_event(event);
  }

 private:
  Tracer& tracer_;
  db::RunOpLog* log_;
};

enum class Kind : std::uint8_t { Arrival, Hold, Teardown, Audit };

struct Event {
  std::uint64_t due = 0;
  Kind kind = Kind::Arrival;
  db::RecordIndex p = 0, c = 0, r = 0;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const { return a.due > b.due; }
};

struct PhaseSamples {
  std::vector<double> setup_ns;
  std::vector<double> late_ns;
  std::vector<double> audit_ns;
  /// Live calls over Process records, sampled at each audit tick.
  std::vector<double> occupancy;
  std::uint64_t wall_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t api_ops = 0;
  std::uint64_t last_late_ns = 0;
  /// Sampled at each audit tick, with the schedule paused.
  HostSpeed speed;
};

class Controller {
 public:
  Controller(std::uint64_t seed, Tracer& tracer, Report& report)
      : tracer_(tracer),
        report_(report),
        rng_(seed),
        epoch_ns_(now_ns()),
        database_(db::make_controller_database(table5_schema(kUnit))),
        ids_(db::resolve_controller_ids(database_->schema())),
        api_(*database_, [this]() { return clock(); }),
        engine_(*database_, engine_config(), [this]() { return clock(); }),
        tee_(tracer, nullptr) {
    for (db::TableId t = 0; t < database_->table_count(); ++t) {
      order_.push_back(t);
    }
    new_segment();
    api_.init(1);
  }

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Brings the region to the steady state of `traffic`: the calls it
  /// holds on average are set up back to back, each with the remaining
  /// hold of a call found in progress (a length-biased hold, uniformly
  /// far through). Ends with a full audit pass so the first timed pass
  /// starts from current watermarks.
  void prefill(const Traffic& traffic) {
    traffic_ = traffic;
    const auto calls = static_cast<std::size_t>(traffic.occupancy * kProcessRecords);
    const std::uint64_t base = sched_now();
    for (std::size_t i = 0; i < calls; ++i) {
      Event call;
      if (setup(call)) {
        std::uint64_t hold = 0;
        do {
          hold = draw_hold();
        } while (rng_.uniform(traffic.hold_max_ns) >= hold);
        call.kind = Kind::Teardown;
        call.due = base + static_cast<std::uint64_t>(rng_.unit() * static_cast<double>(hold));
        queue_.push(call);
      }
      cut_full_segment();
    }
    check_pass(engine_.full_pass(order_), "prefill audit pass");
    queue_.push(Event{base + traffic.audit_period_ns, Kind::Audit});
  }

  /// Tears down every call in flight and drops the pending events, untimed.
  void drain() {
    while (!queue_.empty()) {
      if (queue_.top().kind == Kind::Teardown) {
        teardown(queue_.top());
      }
      queue_.pop();
      cut_full_segment();
    }
  }

  /// Runs the open loop at the prefilled traffic for `seconds`; events
  /// due after the window stay queued for the next phase.
  PhaseSamples run(double seconds) {
    resume();
    PhaseSamples out;
    // Room for every call the phase can bring, so the samples' memory does
    // not depend on where the Poisson count falls against a doubling.
    const auto room = static_cast<std::size_t>(traffic_.rate * seconds * 1.2) + 1024;
    out.setup_ns.reserve(room);
    out.late_ns.reserve(room);
    Pacer pacer([this]() { return sched_now(); });
    const std::uint64_t start = sched_now();
    const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
    const double mean_gap_ns = 1e9 / traffic_.rate;
    const auto gap = [&]() {
      return static_cast<std::uint64_t>(-std::log1p(-rng_.unit()) * mean_gap_ns);
    };
    queue_.push(Event{start + gap(), Kind::Arrival});
    while (!queue_.empty() && queue_.top().due < end) {
      Event ev = queue_.top();
      queue_.pop();
      std::uint64_t late = 0;
      if (sched_now() < ev.due) {
        ScopedSpan idle(tracer_, "bench.idle", "bench.idle");
        late = pacer.wait_until(ev.due);
      } else {
        late = sched_now() - ev.due;
      }
      switch (ev.kind) {
        case Kind::Arrival: {
          tracer_.set_request(++call_id_);
          const std::uint64_t next = ev.due + gap();
          if (next < end) {
            queue_.push(Event{next, Kind::Arrival});
          }
          Event call = ev;
          if (setup(call)) {
            out.setup_ns.push_back(static_cast<double>(sched_now() - ev.due));
            const std::uint64_t hold = draw_hold();
            call.kind = Kind::Hold;
            call.due = ev.due + hold / 2;
            queue_.push(call);
            call.kind = Kind::Teardown;
            call.due = ev.due + hold;
            queue_.push(call);
          }
          out.late_ns.push_back(static_cast<double>(late));
          out.last_late_ns = late;
          ++out.calls;
          break;
        }
        case Kind::Hold: {
          std::int32_t codec = 0;
          ScopedSpan span(tracer_, "db.api.read_fld", "db.api");
          op("db.api.read_fld", api_.read_fld(ids_.connection, ev.c, ids_.c_codec, codec));
          break;
        }
        case Kind::Teardown:
          teardown(ev);
          break;
        case Kind::Audit: {
          out.occupancy.push_back(static_cast<double>(live_calls_) / kProcessRecords);
          {
            ScopedSpan span(tracer_, "audit.engine.incremental_pass", "audit.engine");
            const std::uint64_t t0 = now_ns();
            check_pass(engine_.incremental_pass(order_), "inline audit pass");
            out.audit_ns.push_back(static_cast<double>(now_ns() - t0));
          }
          // Fixed-rate schedule; periods the loop fell behind on are
          // skipped, not run back to back.
          const std::uint64_t period = traffic_.audit_period_ns;
          const std::uint64_t done = sched_now();
          std::uint64_t next = ev.due + period;
          if (next <= done) {
            next += ((done - next) / period + 1) * period;
          }
          queue_.push(Event{next, Kind::Audit});
          ScopedSpan calibration(tracer_, "bench.calibration", "bench.harness");
          pause();
          out.speed.sample();
          resume();
          break;
        }
      }
      cut_full_segment();
    }
    out.wall_ns = sched_now() - start;
    out.idle_ns = pacer.idle_ns();
    out.api_ops = api_ops_ - std::exchange(phase_ops_base_, api_ops_);
    pause();
    return out;
  }

  /// Routes API notifications through the timing sink while tracing.
  void set_tracing(bool on) {
    tracer_.set_enabled(on);
    api_.set_audit_hooks(on ? static_cast<db::NotificationSink*>(&tee_) : log_);
  }

  /// The outputs check: the current tee segment, replayed by apply_op_log
  /// onto the region it started from, reproduces the live region. The
  /// next segment starts from a copy of it, so memory holds one segment.
  void verify_segment() {
    // The check's own database work stays out of the traced obs counters.
    obs::Recorder discard;
    obs::ScopedRecorder quiet(discard);
    if (!check_db_) {
      check_db_ = db::make_controller_database(table5_schema(kUnit));
    }
    const bool installed = check_db_->install_image(start_image_);
    const auto stats = experiments::apply_op_log(*check_db_, log_->events());
    const auto region = check_db_->region();
    const auto expected = database_->region();
    report_.check(installed && stats.divergences == 0 && region.size() == expected.size() &&
                      std::memcmp(region.data(), expected.data(), region.size()) == 0,
                  "tee segment " + std::to_string(segments_) +
                      " does not replay to the recorded region (" +
                      std::to_string(stats.divergences) + " divergences)");
    verified_events_ += log_->recorded();
    ++segments_;
    new_segment();
  }

  /// A closing exhaustive pass over the clean region finds nothing.
  void closing_pass() { check_pass(engine_.full_pass(order_), "closing exhaustive pass"); }

  [[nodiscard]] std::uint64_t api_ops() const noexcept { return api_ops_; }
  /// Findings of every audit pass so far (0 on a clean run).
  [[nodiscard]] std::uint64_t findings() const noexcept { return findings_; }
  [[nodiscard]] std::uint64_t verified_events() const noexcept { return verified_events_; }
  [[nodiscard]] const db::RunOpLog& current_log() const noexcept { return *log_; }
  [[nodiscard]] db::Database& database() noexcept { return *database_; }

 private:
  static audit::EngineConfig engine_config() {
    audit::EngineConfig config;
    config.incremental = true;
    // The pass runs between call events on the calling thread, so no
    // record is ever mid-transaction when it looks.
    config.recent_write_grace = 0;
    return config;
  }

  sim::Time clock() const { return (now_ns() - epoch_ns_) / 1000; }

  /// The schedule's clock: wall time less the time the loop was paused.
  /// It stands still outside run().
  std::uint64_t sched_now() const { return (paused_ ? paused_at_ : now_ns()) - paused_ns_; }
  void pause() {
    paused_at_ = now_ns();
    paused_ = true;
  }
  void resume() {
    paused_ns_ += now_ns() - paused_at_;
    paused_ = false;
  }

  /// Verifies the tee segment and starts the next once it is full; the
  /// schedule stands still meanwhile.
  void cut_full_segment() {
    if (log_->recorded() < kSegmentEvents - kSegmentSlack) {
      return;
    }
    ScopedSpan span(tracer_, "bench.checkpoint", "bench.harness");
    const bool running = !paused_;
    if (running) {
      pause();
    }
    verify_segment();
    if (running) {
      resume();
    }
  }

  std::uint64_t draw_hold() {
    return traffic_.hold_min_ns + rng_.uniform(traffic_.hold_max_ns - traffic_.hold_min_ns);
  }

  void op(const char* name, db::Status status) {
    ++api_ops_;
    if (status != db::Status::Ok) {
      report_.check(false, std::string(name) + " returned " +
                               std::string(db::to_string(status)), 0);
    }
  }

  void check_pass(const audit::CheckResult& result, const char* what) {
    findings_ += result.findings;
    report_.check(result.findings == 0,
                  std::string(what) + " reported " + std::to_string(result.findings) +
                      " findings on a clean region");
  }

  bool setup(Event& call) {
    auto alloc = [&](db::TableId t, db::RecordIndex& out) {
      ScopedSpan span(tracer_, "db.api.alloc_rec", "db.api");
      const db::Status status = api_.alloc_rec(t, db::kGroupActiveCalls, out);
      op("db.api.alloc_rec", status);
      return status == db::Status::Ok;
    };
    if (!alloc(ids_.process, call.p) || !alloc(ids_.connection, call.c) ||
        !alloc(ids_.resource, call.r)) {
      return false;
    }
    ++live_calls_;
    auto write = [&](db::TableId t, db::RecordIndex rec, db::FieldId f,
                     db::RecordIndex key_rec) {
      ScopedSpan span(tracer_, "db.api.write_fld", "db.api");
      op("db.api.write_fld", api_.write_fld(t, rec, f, db::key_of(key_rec)));
    };
    write(ids_.process, call.p, ids_.p_process_id, call.p);
    write(ids_.process, call.p, ids_.p_connection_id, call.c);
    write(ids_.connection, call.c, ids_.c_connection_id, call.c);
    write(ids_.connection, call.c, ids_.c_channel_id, call.r);
    write(ids_.resource, call.r, ids_.r_channel_id, call.r);
    write(ids_.resource, call.r, ids_.r_process_id, call.p);
    ScopedSpan span(tracer_, "db.api.move_rec", "db.api");
    op("db.api.move_rec", api_.move_rec(ids_.process, call.p, db::kGroupStableCalls));
    return true;
  }

  void teardown(const Event& call) {
    std::array<std::int32_t, 8> fields{};
    {
      ScopedSpan span(tracer_, "db.api.read_rec", "db.api");
      op("db.api.read_rec",
         api_.read_rec(ids_.process, call.p,
                       std::span<std::int32_t>(fields.data(), 7)));
    }
    for (const auto& [t, rec] : {std::pair{ids_.resource, call.r},
                                 std::pair{ids_.connection, call.c},
                                 std::pair{ids_.process, call.p}}) {
      ScopedSpan span(tracer_, "db.api.free_rec", "db.api");
      op("db.api.free_rec", api_.free_rec(t, rec));
    }
    --live_calls_;
  }

  void new_segment() {
    const auto region = database_->region();
    start_image_.assign(region.begin(), region.end());
    log_owner_ = std::make_unique<db::RunOpLog>();
    log_ = log_owner_.get();
    tee_.set_log(log_);
    api_.set_audit_hooks(tracer_.enabled() ? static_cast<db::NotificationSink*>(&tee_)
                                           : log_);
  }

  Tracer& tracer_;
  Report& report_;
  InputRng rng_;
  std::uint64_t epoch_ns_;
  std::unique_ptr<db::Database> database_;
  db::ControllerIds ids_;
  db::DbApi api_;
  audit::AuditEngine engine_;
  TimedTee tee_;
  Traffic traffic_;
  std::vector<db::TableId> order_;
  std::vector<std::byte> start_image_;
  /// The database each segment is replayed onto, from its start image.
  std::unique_ptr<db::Database> check_db_;
  std::unique_ptr<db::RunOpLog> log_owner_;
  db::RunOpLog* log_ = nullptr;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::uint64_t paused_ns_ = 0;
  std::uint64_t paused_at_ = now_ns();
  bool paused_ = true;
  std::uint64_t live_calls_ = 0;
  std::uint64_t call_id_ = 0;
  std::uint64_t api_ops_ = 0;
  std::uint64_t phase_ops_base_ = 0;
  std::uint64_t verified_events_ = 0;
  std::uint64_t segments_ = 0;
  std::uint64_t findings_ = 0;
};

double busy_ns_per_call(const PhaseSamples& s) {
  return static_cast<double>(s.wall_ns - s.idle_ns) /
         static_cast<double>(std::max<std::uint64_t>(1, s.calls));
}

}  // namespace

/// Prints the traffic's derivation from Table 2 and checks that the
/// phase held Table 2's occupancy.
void check_traffic(Report& report, const Traffic& traffic, const PhaseSamples& phase) {
  const double measured = median(phase.occupancy);
  std::printf("traffic rate %.0f calls/s on %.0f Process records; Table 2 time x %.5f: "
              "hold %.0f-%.0f ms, audit every %.0f ms\n",
              traffic.rate, kProcessRecords, traffic.scale,
              static_cast<double>(traffic.hold_min_ns) / 1e6,
              static_cast<double>(traffic.hold_max_ns) / 1e6,
              static_cast<double>(traffic.audit_period_ns) / 1e6);
  std::printf("traffic occupancy  measured %.3f (median of %zu audit ticks)  Table 2 %.3f\n",
              measured, phase.occupancy.size(), traffic.occupancy);
  report.check(!phase.occupancy.empty() &&
                   std::abs(measured / traffic.occupancy - 1.0) <= kOccupancyTolerance,
               "call_setup occupancy " + std::to_string(measured) + " is not Table 2's " +
                   std::to_string(traffic.occupancy));
}

void run_call_setup(const Options& options, Report& report) {
  Tracer tracer(false);
  const Traffic nominal_traffic = table2_traffic(kNominalRate);
  std::unique_ptr<Controller> controller;
  HostSpeed setup_speed;
  const double setup_s = median_setup_seconds(15, setup_speed, [&]() {
    controller.reset();
    controller = std::make_unique<Controller>(options.seed, tracer, report);
    controller->prefill(nominal_traffic);
  });
  report.metric("setup_s", setup_s * setup_speed.wall_factor(), "s", 15);
  report.note("setup_wall_s", setup_s, "s", 15);
  setup_speed.print(report, "setup");

  const double measured = options.trace ? options.seconds / 2 : options.seconds * 0.75;
  const PhaseSamples nominal = controller->run(measured);
  report.add_attempted(nominal.calls);
  check_traffic(report, nominal_traffic, nominal);

  const double factor = nominal.speed.wall_factor();
  nominal.speed.print(report, "run");
  report.metric("op_ms.p50", percentile(nominal.setup_ns, 50) * factor / 1e6, "ms",
                nominal.setup_ns.size());
  report.note("op_ms.within_run_spread", spread(nominal.setup_ns), "ratio", nominal.setup_ns.size());
  report.note("op_ms.tail",
                block_tail_ms(report, nominal.setup_ns, 99, "call setup", kTailBlock), "ms",
                nominal.setup_ns.size());
  report.metric("second_op_ms.p50", percentile(nominal.audit_ns, 50) * factor / 1e6,
                "ms", nominal.audit_ns.size());
  report.note("call_setup_us.p50", percentile(nominal.setup_ns, 50) / 1e3, "us",
              nominal.setup_ns.size());
  report.note("call_setup_us.p99", percentile(nominal.setup_ns, 99) / 1e3, "us",
              nominal.setup_ns.size());
  report.note("incremental_pass_ms.p50", percentile(nominal.audit_ns, 50) / 1e6, "ms",
              nominal.audit_ns.size());
  report.note("busy_us_per_call", busy_ns_per_call(nominal) / 1e3, "us", nominal.calls);
  report.note("nominal_rate_calls_per_s", kNominalRate, "1/s");
  controller->verify_segment();

  if (!options.trace) {
    // Fixed absolute rates, ascending, each with Table 2's traffic
    // compressed to it and started from its steady state; the highest
    // whose p99 meets the limit with the generator not falling behind.
    // Every step runs, so the work (and memory) of a run does not depend
    // on where the limit falls.
    double best = 0.0;
    bool met = true;
    for (const double rate : kRateGrid) {
      controller->drain();
      controller->prefill(table2_traffic(rate));
      const PhaseSamples step = controller->run(kGridStepSeconds);
      report.add_attempted(step.calls);
      const double p99_ms = percentile(step.setup_ns, 99) / 1e6;
      const double backlog_ms = static_cast<double>(step.last_late_ns) / 1e6;
      std::printf("grid   rate %6.0f/s  p99 %.3f ms  last arrival late %.3f ms\n",
                  rate, p99_ms, backlog_ms);
      met = met && p99_ms <= kSloMs && backlog_ms <= kSloMs;
      if (met) {
        best = rate;
      }
    }
    report.note("calls_per_s_at_slo", best, "1/s");
  } else {
    // Traced half: the same open loop with a span around every call into
    // a layer and the program's obs counters recorded.
    obs::Recorder recorder;
    obs::ScopedRecorder scope(recorder);
    controller->set_tracing(true);
    const std::uint32_t root = tracer.open("bench.call_setup", "bench");
    const PhaseSamples traced = controller->run(options.seconds / 2);
    tracer.close(root);
    controller->set_tracing(false);
    report.add_attempted(traced.calls);
    report.metric("audit.engine.findings", static_cast<double>(controller->findings()), "count");
    const auto& spans = tracer.spans();
    for (const char* opname : {"alloc_rec", "free_rec", "move_rec", "write_fld", "read_rec"}) {
      const std::string name = std::string("db.api.") + opname;
      const auto d = durations_of(spans, name.c_str());
      report.metric(name + "_ns.p50", percentile(d, 50), "ns", d.size());
      report.metric(name + "_ns.p99", percentile(d, 99), "ns", d.size());
    }
    const auto record = durations_of(spans, "db.run_op_log.record");
    report.metric("db.run_op_log.record_ns.p50", percentile(record, 50), "ns",
                  record.size());
    report_index_counters(report, recorder.snapshot(), traced.api_ops);
    const auto bytes = controller->current_log().serialize();
    report.metric("db.run_op_log.bytes_per_event",
                  static_cast<double>(bytes.size()) /
                      static_cast<double>(std::max<std::uint64_t>(1, controller->current_log().recorded())),
                  "B");
    report.metric("bench.generator_late_ms.p99", percentile(traced.late_ns, 99) / 1e6, "ms",
                  traced.late_ns.size());
    report.metric("bench.trace_overhead_pct",
                  100.0 * (busy_ns_per_call(traced) / busy_ns_per_call(nominal) - 1.0), "%");
    finish_trace(report, options, tracer, root);
    measure_audit_layers(report, controller->database(), options.threads);
  }

  controller->verify_segment();
  controller->closing_pass();
  report.add_attempted(controller->api_ops());
  report.note("tee_events_verified", static_cast<double>(controller->verified_events()), "count");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
