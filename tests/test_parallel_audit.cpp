// Modelled parallel detection and the per-cycle CPU budget: the modelled
// audit thread count may move only the makespan — findings, repairs,
// booked CPU, and every other obs output are bit-identical at any count —
// and the budgeted engine must book only what it scanned, carry the
// rest, and never starve a table.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "audit/engine.hpp"
#include "common/rng.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {
namespace {

class CollectingSink : public ReportSink {
 public:
  void on_finding(const Finding& finding) override { findings.push_back(finding); }
  std::vector<Finding> findings;
};

class RecordingControl : public ClientControl {
 public:
  void terminate_client_thread(sim::ProcessId, std::uint32_t) override {}
  void kill_client_process(sim::ProcessId) override {}
};

class NullSink : public db::NotificationSink {
 public:
  void on_api_event(const db::ApiEvent&) override {}
};

void expect_same_findings(const std::vector<Finding>& a,
                          const std::vector<Finding>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].technique, b[i].technique) << "finding " << i;
    EXPECT_EQ(a[i].recovery, b[i].recovery) << "finding " << i;
    EXPECT_EQ(a[i].table, b[i].table) << "finding " << i;
    EXPECT_EQ(a[i].record, b[i].record) << "finding " << i;
    EXPECT_EQ(a[i].field, b[i].field) << "finding " << i;
    EXPECT_EQ(a[i].offset, b[i].offset) << "finding " << i;
    EXPECT_EQ(a[i].length, b[i].length) << "finding " << i;
    EXPECT_EQ(a[i].time, b[i].time) << "finding " << i;
  }
}

/// One deterministic environment: controller database + API + engine,
/// rebuilt identically for every configuration under comparison.
struct Env {
  explicit Env(const EngineConfig& config)
      : db(db::make_controller_database()),
        ids(db::resolve_controller_ids(db->schema())),
        api(*db, [this]() { return now; }) {
    engine = std::make_unique<AuditEngine>(*db, config,
                                           [this]() { return now; });
    engine->set_report_sink(&sink);
    engine->set_client_control(&control);
    api.init(77);
    api.set_audit_hooks(&null_sink);
  }

  void make_call(common::Rng& rng) {
    api.set_thread_id(static_cast<std::uint32_t>(rng.uniform(4)));
    db::RecordIndex p = 0, c = 0, r = 0;
    if (api.alloc_rec(ids.process, db::kGroupActiveCalls, p) != db::Status::Ok ||
        api.alloc_rec(ids.connection, db::kGroupActiveCalls, c) != db::Status::Ok ||
        api.alloc_rec(ids.resource, db::kGroupActiveCalls, r) != db::Status::Ok) {
      return;
    }
    api.write_fld(ids.process, p, ids.p_process_id, db::key_of(p));
    api.write_fld(ids.process, p, ids.p_connection_id, db::key_of(c));
    api.write_fld(ids.process, p, ids.p_status, 1);
    api.write_fld(ids.connection, c, ids.c_connection_id, db::key_of(c));
    api.write_fld(ids.connection, c, ids.c_channel_id, db::key_of(r));
    api.write_fld(ids.connection, c, ids.c_state,
                  static_cast<std::int32_t>(rng.uniform(5)));
    api.write_fld(ids.resource, r, ids.r_channel_id, db::key_of(r));
    api.write_fld(ids.resource, r, ids.r_process_id, db::key_of(p));
    api.write_fld(ids.resource, r, ids.r_status, 1);
    procs.push_back(p);
    conns.push_back(c);
  }

  /// Through-store corruption (stamps dirty generations, like a faulty
  /// client): out-of-range state values and dangling FKs.
  void corrupt(common::Rng& rng, bool dangling_fk) {
    if (!conns.empty()) {
      const db::RecordIndex victim =
          conns[rng.uniform(conns.size())];
      db::direct::write_field(*db, ids.connection, victim, ids.c_state, 99);
    }
    if (dangling_fk && !procs.empty()) {
      const db::RecordIndex victim =
          procs[rng.uniform(procs.size())];
      db::direct::write_field(*db, ids.process, victim, ids.p_connection_id,
                              0x7FFF);
    }
  }

  [[nodiscard]] std::vector<db::TableId> all_tables() const {
    std::vector<db::TableId> order;
    for (std::size_t t = 0; t < db->table_count(); ++t) {
      order.push_back(static_cast<db::TableId>(t));
    }
    return order;
  }

  std::unique_ptr<db::Database> db;
  db::ControllerIds ids;
  CollectingSink sink;
  RecordingControl control;
  NullSink null_sink;
  db::DbApi api;
  std::unique_ptr<AuditEngine> engine;
  sim::Time now = 0;
  std::vector<db::RecordIndex> procs;
  std::vector<db::RecordIndex> conns;
};

/// Outcome of one randomized corruption campaign under a fixed config.
struct Outcome {
  std::vector<Finding> findings;
  std::vector<sim::Duration> cycle_costs;
  sim::Duration total_cost = 0;
  sim::Duration total_makespan = 0;
  std::vector<std::byte> region;
  obs::MetricsSnapshot metrics;
};

/// Six incremental cycles (sweeps every third) over a growing call
/// population with through-store corruption every cycle and one raw
/// static-area flip mid-campaign. Everything is derived from `seed`, so
/// two runs with different audit_threads see byte-identical inputs.
Outcome run_campaign(const EngineConfig& config, std::uint64_t seed) {
  Env env(config);
  common::Rng rng(seed);
  obs::Recorder recorder;
  Outcome out;
  {
    obs::ScopedRecorder scope(recorder);
    for (int cycle = 0; cycle < 6; ++cycle) {
      for (int i = 0; i < 3; ++i) {
        env.make_call(rng);
      }
      env.corrupt(rng, cycle % 2 == 0);
      if (cycle == 2) {
        env.db->region()[4] ^= std::byte{0x20};  // raw catalog flip
      }
      env.now += 10'000;  // step past the write-grace window
      const CheckResult result = env.engine->incremental_pass(env.all_tables());
      out.cycle_costs.push_back(result.cost);
      out.total_cost += result.cost;
      out.total_makespan += env.engine->last_cycle_makespan();
    }
  }
  out.findings = env.sink.findings;
  out.region.assign(env.db->region().begin(), env.db->region().end());
  out.metrics = recorder.snapshot();
  return out;
}

EngineConfig base_config() {
  EngineConfig config;
  config.recent_write_grace = 1000;
  config.incremental = true;
  config.full_sweep_interval = 3;
  config.selective_monitoring = true;
  return config;
}

TEST(ParallelAudit, FindingsRepairsAndCostIdenticalAcrossThreadCounts) {
  const Outcome sequential = run_campaign(base_config(), 2001);
  ASSERT_FALSE(sequential.findings.empty());
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EngineConfig config = base_config();
    config.audit_threads = threads;
    const Outcome parallel = run_campaign(config, 2001);
    expect_same_findings(sequential.findings, parallel.findings);
    EXPECT_EQ(sequential.cycle_costs, parallel.cycle_costs) << threads;
    EXPECT_EQ(sequential.region, parallel.region) << threads;
    // obs output must not depend on the worker count either — except the
    // cycle-latency histogram, which records the modelled makespan and
    // therefore shrinks with audit_threads by design.
    obs::MetricsSnapshot masked_seq = sequential.metrics;
    obs::MetricsSnapshot masked_par = parallel.metrics;
    masked_seq.histograms[static_cast<std::size_t>(
        obs::Histogram::audit_cycle_latency_us)] = {};
    masked_par.histograms[static_cast<std::size_t>(
        obs::Histogram::audit_cycle_latency_us)] = {};
    EXPECT_EQ(masked_seq, masked_par) << threads;
    EXPECT_GT(sequential.metrics.counter(obs::Counter::audit_parallel_tasks), 0u);
    // The modelled critical path shrinks (or holds, for serial scans);
    // the booked CPU does not move at all.
    EXPECT_LE(parallel.total_makespan, sequential.total_makespan) << threads;
    EXPECT_EQ(sequential.total_cost, parallel.total_cost) << threads;
  }
}

TEST(ParallelAudit, SequentialMakespanEqualsBookedCost) {
  const Outcome sequential = run_campaign(base_config(), 7);
  EXPECT_EQ(sequential.total_makespan, sequential.total_cost);
}

TEST(ParallelAudit, MakespanActuallyShrinksOnParallelizableWork) {
  // An exhaustive pass over the whole (mostly static) database is
  // dominated by chunk/record detection — exactly the parallel phase.
  EngineConfig config = base_config();
  Env seq(config);
  seq.now = 10'000;
  const CheckResult seq_result = seq.engine->full_pass(seq.all_tables());

  config.audit_threads = 4;
  Env par(config);
  par.now = 10'000;
  const CheckResult par_result = par.engine->full_pass(par.all_tables());

  EXPECT_EQ(seq_result.cost, par_result.cost);
  EXPECT_LT(par.engine->last_cycle_makespan(),
            seq.engine->last_cycle_makespan());
}

TEST(BudgetedAudit, TruncatedCyclesBookOnlyScannedWorkAndDrainToSameResult) {
  // Arm A: unbudgeted reference — one incremental pass detects everything.
  EngineConfig config = base_config();
  config.full_sweep_interval = 0;  // no sweeps: pure incremental drain
  Env ref(config);
  common::Rng ref_rng(42);
  for (int i = 0; i < 8; ++i) {
    ref.make_call(ref_rng);
  }
  ref.corrupt(ref_rng, true);
  ref.corrupt(ref_rng, false);
  ref.now += 10'000;
  const CheckResult ref_result = ref.engine->incremental_pass(ref.all_tables());
  ASSERT_FALSE(ref.sink.findings.empty());

  // Arm B: identical inputs, budget a fraction of the reference cost.
  EngineConfig budgeted = config;
  budgeted.cycle_budget = ref_result.cost / 5 + 1;
  Env arm(budgeted);
  common::Rng arm_rng(42);
  for (int i = 0; i < 8; ++i) {
    arm.make_call(arm_rng);
  }
  arm.corrupt(arm_rng, true);
  arm.corrupt(arm_rng, false);
  arm.now += 10'000;

  sim::Duration drained_cost = 0;
  int cycles = 0;
  do {
    const CheckResult result = arm.engine->incremental_pass(arm.all_tables());
    drained_cost += result.cost;
    ++cycles;
    // A truncated installment books at most the budget plus one atomic
    // piece (a single item or an orphan-table sweep).
    EXPECT_LE(result.cost, 2 * budgeted.cycle_budget) << "cycle " << cycles;
    ASSERT_LT(cycles, 200);
  } while (arm.engine->carry_depth() > 0);

  EXPECT_GT(arm.engine->budget_exhausted_cycles(), 0u);
  EXPECT_GT(arm.engine->deferred_units_total(), 0u);
  EXPECT_GT(cycles, 1);
  // The budget changes *when* work runs, not *what* is detected or
  // repaired. Total booked CPU is bounded below by the reference (the
  // later drain cycles additionally re-verify records the first cycle's
  // own repairs dirtied — work the reference would do in its next cycle).
  expect_same_findings(ref.sink.findings, arm.sink.findings);
  EXPECT_GE(drained_cost, ref_result.cost);
  EXPECT_LE(drained_cost, 2 * ref_result.cost);
  EXPECT_EQ(std::vector<std::byte>(ref.db->region().begin(),
                                   ref.db->region().end()),
            std::vector<std::byte>(arm.db->region().begin(),
                                   arm.db->region().end()));
}

/// Per-cycle modelled outcome of a budgeted campaign whose every cycle
/// also holds fresh, mid-grace-window calls.
struct PinnedOutcome {
  std::vector<sim::Duration> cycle_costs;
  std::vector<sim::Duration> cycle_makespans;
  sim::Duration total_makespan = 0;
  std::uint64_t exhausted_cycles = 0;
  std::uint64_t parallel_tasks = 0;
  std::size_t findings = 0;
  std::uint64_t findings_digest = 0;
};

PinnedOutcome run_budgeted_grace_campaign(std::size_t threads) {
  EngineConfig config = base_config();
  config.cycle_budget = 40'000;
  config.parallel_grain = 8;
  config.audit_threads = threads;
  Env env(config);
  common::Rng rng(1601);
  obs::Recorder recorder;
  PinnedOutcome out;
  {
    obs::ScopedRecorder scope(recorder);
    for (int cycle = 0; cycle < 8; ++cycle) {
      for (int i = 0; i < 3; ++i) {
        env.make_call(rng);
      }
      env.corrupt(rng, cycle % 2 == 0);
      env.now += 10'000;  // the calls above age past the grace window...
      env.make_call(rng);  // ...these two are written at `now`: in it
      env.make_call(rng);
      // So is an early process record, ahead of the aged dirty ones in
      // record order: its skip must keep its slot or later tasks shift.
      env.api.write_fld(env.ids.process, env.procs[static_cast<std::size_t>(cycle)],
                        env.ids.p_handoff_count, cycle);
      out.cycle_costs.push_back(env.engine->incremental_pass(env.all_tables()).cost);
      out.cycle_makespans.push_back(env.engine->last_cycle_makespan());
    }
  }
  out.total_makespan = env.engine->total_makespan();
  out.exhausted_cycles = env.engine->budget_exhausted_cycles();
  out.parallel_tasks =
      recorder.snapshot().counter(obs::Counter::audit_parallel_tasks);
  out.findings = env.sink.findings.size();
  for (const Finding& finding : env.sink.findings) {
    out.findings_digest =
        out.findings_digest * 1'000'003 +
        (static_cast<std::uint64_t>(finding.technique) << 56 |
         static_cast<std::uint64_t>(finding.recovery) << 48 |
         static_cast<std::uint64_t>(finding.table) << 40 |
         static_cast<std::uint64_t>(finding.field) << 32 | finding.record);
  }
  return out;
}

TEST(BudgetedAudit, PinnedModelUnderBudgetAndGraceWindow) {
  // Detection runs on the calling thread; `audit_threads` is only the
  // worker count of the makespan model. These values pin that model —
  // booked cost, task count and findings at any count, makespan per
  // count — across budget truncations and grace-window skips, which still
  // occupy their slot in their task (at 2 workers, cycle 6's makespan
  // reads 22750 if the early record's skip gives up its slot).
  const std::vector<sim::Duration> costs = {28050, 41100, 40400, 40200,
                                            40800, 40250, 41750, 40150};
  struct Pinned {
    std::size_t threads;
    std::vector<sim::Duration> makespans;
    sim::Duration total_makespan;
  };
  for (const Pinned& pinned :
       {Pinned{1, costs, 312'700},
        Pinned{2, {28050, 41100, 28400, 22200, 22400, 21000, 27750, 20950}, 211'850},
        Pinned{4, {28050, 41100, 27200, 14400, 17600, 14000, 20750, 11350}, 174'450}}) {
    SCOPED_TRACE(pinned.threads);
    const PinnedOutcome out = run_budgeted_grace_campaign(pinned.threads);
    EXPECT_EQ(out.cycle_costs, costs);
    EXPECT_EQ(out.cycle_makespans, pinned.makespans);
    EXPECT_EQ(out.total_makespan, pinned.total_makespan);
    EXPECT_EQ(out.exhausted_cycles, 6u);
    EXPECT_EQ(out.parallel_tasks, 79u);
    EXPECT_EQ(out.findings, 25u);
    EXPECT_EQ(out.findings_digest, 14796135357903361547u);
  }
}

TEST(BudgetedAudit, NoTableStarvesUnderSustainedOverload) {
  EngineConfig config = base_config();
  config.full_sweep_interval = 0;
  Env env(config);
  common::Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    env.make_call(rng);
  }
  env.now += 10'000;
  // Size the budget from one real cycle, then rebuild the engine budgeted
  // (watermarks reset, so the backlog is re-detected under budget).
  const CheckResult probe = env.engine->incremental_pass(env.all_tables());
  EngineConfig budgeted = config;
  budgeted.cycle_budget = probe.cost / 4 + 1;
  env.engine = std::make_unique<AuditEngine>(*env.db, budgeted,
                                             [&env]() { return env.now; });
  env.engine->set_report_sink(&env.sink);
  env.engine->set_client_control(&env.control);
  env.sink.findings.clear();

  // One corruption in the resource table, then sustained high-churn load
  // on the process/connection tables every cycle. The pressure ranking
  // would keep resource last forever; the carry queue must still get its
  // ranges unit to the front within a bounded number of cycles.
  db::direct::write_field(*env.db, env.ids.resource, 0, env.ids.r_status, 99);
  env.now += 10'000;
  int detected_at = -1;
  for (int cycle = 0; cycle < 40 && detected_at < 0; ++cycle) {
    for (const db::RecordIndex p : env.procs) {
      env.api.write_fld(env.ids.process, p, env.ids.p_handoff_count,
                        static_cast<std::int32_t>(cycle));
    }
    env.now += 10'000;
    (void)env.engine->incremental_pass(env.all_tables());
    for (const Finding& finding : env.sink.findings) {
      if (finding.table == env.ids.resource) {
        detected_at = cycle;
        break;
      }
    }
  }
  EXPECT_GE(detected_at, 0) << "resource-table corruption never audited";
  EXPECT_GT(env.engine->budget_exhausted_cycles(), 0u);
}

}  // namespace
}  // namespace wtc::audit
