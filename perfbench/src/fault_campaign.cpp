// fault_campaign: the paper's injection experiments, run serially.
//
// A seeded list of entries, each a Table-2 audit experiment (database
// bit-flip injection, the audit process with its replay-audit arm on, the
// manager pair, the call-processing client, all on the discrete-event
// simulator) followed by PECOS runs of the MiniVM client under directed
// control-flow injection, with CF-log attestation and healing on, rotating
// the four Table-6 error models. The list is run again and again for the
// measured time; every pass must produce the outcome digest of the first.
// Set-up runs a fixed reference list, the same for every seed, which must
// reproduce the outcomes pinned below, so a change that alters what the
// experiments detect fails the run.
//
// Runs are timed in process CPU time: the campaign is serial and never
// waits, so CPU time counts the same work without the time the host gave
// to other guests. The gated figures are also scaled by HostSpeed.
#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

#include "experiments/audit_runner.hpp"
#include "experiments/pecos_runner.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kListLength = 24;
constexpr std::size_t kPecosPerEntry = 8;
/// The reference list: the first kReferenceLength entries of the list of
/// seed kReferenceSeed.
constexpr std::uint64_t kReferenceSeed = 0;
constexpr std::size_t kReferenceLength = 8;
/// Simulated horizon of one audit experiment: half of Table 2's 2000 s, so
/// a run of the benchmark holds a few hundred of them.
constexpr sim::Duration kAuditHorizon = 1000 * static_cast<sim::Duration>(sim::kSecond);

constexpr wtc::inject::ErrorModel kModels[] = {
    wtc::inject::ErrorModel::ADDIF, wtc::inject::ErrorModel::DATAIF,
    wtc::inject::ErrorModel::DATAOF, wtc::inject::ErrorModel::DATAInF};

/// Table 2's configuration (the bench/ tables use the same values).
experiments::AuditRunParams audit_params(std::uint64_t seed) {
  experiments::AuditRunParams params;
  params.duration = kAuditHorizon;
  params.client.threads = 16;
  params.client.call_duration_min = 20 * static_cast<sim::Duration>(sim::kSecond);
  params.client.call_duration_max = 30 * static_cast<sim::Duration>(sim::kSecond);
  params.client.inter_arrival_mean = 10 * static_cast<sim::Duration>(sim::kSecond);
  params.client.phase_work = 40 * static_cast<sim::Duration>(sim::kMillisecond);
  params.client.supervision_period = 0;
  params.injector.inter_arrival = 20 * static_cast<sim::Duration>(sim::kSecond);
  params.injector.arrival = wtc::inject::ArrivalModel::Fixed;
  params.audit.period = 10 * static_cast<sim::Duration>(sim::kSecond);
  params.audit.engine.cost_scale = 80.0;
  params.audit.replay_audit = true;
  params.schema.process_records = 16;
  params.schema.connection_records = 16;
  params.schema.resource_records = 20;
  params.schema.config_records = 8;
  params.schema.subscriber_records = 16;
  params.seed = seed;
  return params;
}

experiments::PecosRunParams pecos_params(std::uint64_t seed, std::size_t index) {
  experiments::PecosRunParams params;
  params.cfc = experiments::CfcMode::Pecos;
  params.audit = true;
  params.cf_attest = true;
  params.heal = true;
  params.injector.target = wtc::inject::InjectTarget::DirectedCFI;
  params.injector.model = kModels[index % std::size(kModels)];
  params.seed = seed;
  return params;
}

/// One entry of the list: an audit experiment and kPecosPerEntry PECOS
/// runs. The PECOS runs are short and their cost depends on where the
/// injection lands, so a list holds many to keep their median steady from
/// seed to seed.
struct Entry {
  std::uint64_t audit_seed = 0;
  std::array<std::uint64_t, kPecosPerEntry> pecos_seeds{};
};

struct PassResult {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::size_t injected = 0;
  std::size_t escaped = 0;
  std::size_t caught = 0;
  experiments::CampaignCounts pecos;
};

/// What the reference list must give: audit injections, escapes and
/// catches, PECOS runs by outcome (in inject::Outcome order: not
/// activated, not manifested, PECOS, audit, system detection, hang,
/// fail-silence violation), and the digest of every outcome field.
struct PinnedOutcomes {
  std::size_t injected, escaped, caught;
  std::array<std::size_t, wtc::inject::kOutcomeCount> by_outcome;
  std::uint64_t digest;
};
constexpr PinnedOutcomes kReference = {
    400, 32, 304, {28, 14, 18, 0, 1, 0, 3}, 0xf45c354d7a8b9a59ull};

/// FNV-1a step over one value's bytes.
void mix(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xFFu;
    digest *= 0x100000001b3ull;
  }
}

struct Samples {
  /// CPU time of each run, and wall time of each run.
  std::vector<double> audit_ns, pecos_ns;
  std::vector<double> audit_wall_ns, pecos_wall_ns;
  std::vector<PassResult> passes;
  std::uint64_t wall_ns = 0;
  HostSpeed speed;
};

PassResult run_pass(const std::vector<Entry>& list, Tracer& tracer, Samples& s) {
  PassResult pass;
  for (std::size_t i = 0; i < list.size(); ++i) {
    {
      ScopedSpan span(tracer, "bench.calibration", "bench.harness");
      s.speed.sample();
    }
    std::uint64_t c0 = cpu_ns();
    std::uint64_t t0 = now_ns();
    experiments::AuditRunResult audit;
    {
      ScopedSpan span(tracer, "experiments.audit_runner.run", "experiments.audit_runner");
      audit = experiments::run_audit_experiment(audit_params(list[i].audit_seed));
    }
    s.audit_ns.push_back(static_cast<double>(cpu_ns() - c0));
    s.audit_wall_ns.push_back(static_cast<double>(now_ns() - t0));
    pass.injected += audit.oracle.injected;
    pass.escaped += audit.oracle.escaped;
    pass.caught += audit.oracle.caught;
    for (const std::uint64_t v :
         {std::uint64_t{audit.oracle.injected}, std::uint64_t{audit.oracle.escaped},
          std::uint64_t{audit.oracle.caught}, std::uint64_t{audit.oracle.overwritten},
          std::uint64_t{audit.oracle.latent}, audit.audit_findings, audit.audit_cycles,
          audit.replay_runs, audit.replay.mismatched_words, audit.client.calls_completed}) {
      mix(pass.digest, v);
    }

    for (std::size_t k = 0; k < kPecosPerEntry; ++k) {
      c0 = cpu_ns();
      t0 = now_ns();
      experiments::PecosRunResult pecos;
      {
        ScopedSpan span(tracer, "experiments.pecos_runner.run", "experiments.pecos_runner");
        pecos = experiments::run_pecos_single(pecos_params(list[i].pecos_seeds[k], k));
      }
      s.pecos_ns.push_back(static_cast<double>(cpu_ns() - c0));
      s.pecos_wall_ns.push_back(static_cast<double>(now_ns() - t0));
      pass.pecos.add(pecos.outcome);
      for (const std::uint64_t v :
           {std::uint64_t{static_cast<std::uint8_t>(pecos.outcome)}, pecos.activations,
            std::uint64_t{pecos.pecos_detections}, pecos.attest_detections,
            std::uint64_t{pecos.heals}, std::uint64_t{pecos.heal_escalations},
            pecos.cf_transitions_logged}) {
        mix(pass.digest, v);
      }
    }
  }
  return pass;
}

Samples measure(const std::vector<Entry>& list, double seconds, Tracer& tracer) {
  Samples s;
  const std::uint64_t start = now_ns();
  const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < end) {
    s.passes.push_back(run_pass(list, tracer, s));
  }
  s.wall_ns = now_ns() - start;
  return s;
}

/// Every pass over the list must reproduce the first pass's outcomes.
void check_digests(Report& report, const Samples& s, std::uint64_t reference) {
  for (const PassResult& pass : s.passes) {
    report.check(pass.digest == reference,
                 "campaign outcome digest differs between passes over the same list");
  }
}

std::vector<Entry> make_list(std::uint64_t seed, std::size_t length) {
  InputRng rng(seed);
  std::vector<Entry> list(length);
  for (Entry& e : list) {
    e.audit_seed = rng.next();
    for (std::uint64_t& pecos_seed : e.pecos_seeds) {
      pecos_seed = rng.next();
    }
  }
  return list;
}

/// The reference list must reproduce the pinned outcomes.
void check_reference(Report& report, const PassResult& got) {
  std::printf("reference  audit injected %zu escaped %zu caught %zu  pecos by outcome",
              got.injected, got.escaped, got.caught);
  for (const std::size_t n : got.pecos.by_outcome) {
    std::printf(" %zu", n);
  }
  std::printf("  digest 0x%016" PRIx64 "\n", got.digest);
  report.check(got.injected == kReference.injected && got.escaped == kReference.escaped &&
                   got.caught == kReference.caught &&
                   got.pecos.by_outcome == kReference.by_outcome &&
                   got.digest == kReference.digest,
               "the reference list's outcomes differ from the pinned ones");
}

}  // namespace

void run_fault_campaign(const Options& options, Report& report) {
  Tracer tracer(false);
  // Set-up: the reference list, run three times, must reproduce the
  // pinned outcomes each time. Timed in CPU time, as the runs are.
  const std::vector<Entry> reference_list = make_list(kReferenceSeed, kReferenceLength);
  Samples setup;
  std::vector<double> setup_seconds;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t c0 = cpu_ns();
    const PassResult pass = run_pass(reference_list, tracer, setup);
    setup_seconds.push_back(static_cast<double>(cpu_ns() - c0) / 1e9);
    check_reference(report, pass);
  }
  report.metric("setup_s", median(setup_seconds) * setup.speed.cpu_factor(), "s",
                setup_seconds.size());
  report.note("setup_cpu_s", median(setup_seconds), "s", setup_seconds.size());
  setup.speed.print(report, "setup");

  // The seed's list; its first pass fixes the outcomes every later pass
  // must repeat.
  const std::vector<Entry> list = make_list(options.seed, kListLength);
  const Samples untraced = measure(list, options.trace ? options.seconds / 2 : options.seconds,
                                   tracer);
  const PassResult& first = untraced.passes.front();
  check_digests(report, untraced, first.digest);
  const double factor = untraced.speed.cpu_factor();
  untraced.speed.print(report, "run");
  report.metric("op_ms.p50", percentile(untraced.audit_ns, 50) * factor / 1e6, "ms",
                untraced.audit_ns.size());
  report.note("op_ms.within_run_spread", spread(untraced.audit_ns), "ratio",
              untraced.audit_ns.size());
  report.note("op_ms.tail", block_tail_ms(report, untraced.audit_ns, 90, "audit experiment"),
              "ms", untraced.audit_ns.size());
  report.metric("second_op_ms.p50", percentile(untraced.pecos_ns, 50) * factor / 1e6, "ms",
                untraced.pecos_ns.size());
  report.note("op_cpu_ms.p50", percentile(untraced.audit_ns, 50) / 1e6, "ms",
              untraced.audit_ns.size());
  report.note("second_op_cpu_ms.p50", percentile(untraced.pecos_ns, 50) / 1e6, "ms",
              untraced.pecos_ns.size());
  report.note("op_wall_ms.p50", percentile(untraced.audit_wall_ns, 50) / 1e6, "ms",
              untraced.audit_wall_ns.size());
  report.note("second_op_wall_ms.p50", percentile(untraced.pecos_wall_ns, 50) / 1e6, "ms",
              untraced.pecos_wall_ns.size());
  const auto runs = static_cast<double>(untraced.audit_ns.size() + untraced.pecos_ns.size());
  report.note("campaign_runs_per_s", runs / (static_cast<double>(untraced.wall_ns) / 1e9),
              "1/s", untraced.passes.size());
  report.note("escaped_pct",
              100.0 * static_cast<double>(first.escaped) /
                  static_cast<double>(std::max<std::size_t>(1, first.injected)),
              "%", first.injected);
  report.note("pecos_coverage_pct", first.pecos.coverage_percent(), "%", first.pecos.runs);
  report.note("outcome_digest", static_cast<double>(first.digest & 0xFFFFFFu), "value");

  if (options.trace) {
    obs::Recorder recorder;
    obs::ScopedRecorder scope(recorder);
    tracer.set_enabled(true);
    const std::uint32_t root = tracer.open("bench.fault_campaign", "bench");
    const Samples traced = measure(list, options.seconds / 2, tracer);
    tracer.close(root);
    tracer.set_enabled(false);
    check_digests(report, traced, first.digest);
    const auto per_pass = [](const Samples& s) {
      return static_cast<double>(s.wall_ns) * s.speed.wall_factor() /
             static_cast<double>(s.passes.size());
    };
    report.metric("bench.trace_overhead_pct",
                  100.0 * (per_pass(traced) / per_pass(untraced) - 1.0), "%");
    finish_trace(report, options, tracer, root);
    report.metric("experiments.audit_runner.run_ms", median(traced.audit_ns) / 1e6, "ms",
                  traced.audit_ns.size());
    report.metric("experiments.pecos_runner.run_ms", median(traced.pecos_ns) / 1e6, "ms",
                  traced.pecos_ns.size());
    const auto& snap = recorder.snapshot();
    double run_s = 0.0;
    for (const double ns : traced.audit_wall_ns) {
      run_s += ns / 1e9;
    }
    for (const double ns : traced.pecos_wall_ns) {
      run_s += ns / 1e9;
    }
    const auto per_run = [&](obs::Counter c, const std::vector<double>& runs_of) {
      return static_cast<double>(snap.counter(c)) / static_cast<double>(runs_of.size());
    };
    report.metric("sim.sched.events_per_wall_s",
                  static_cast<double>(snap.counter(obs::Counter::sched_events_fired)) / run_s,
                  "1/s");
    report.metric("sim.reliable.retries",
                  per_run(obs::Counter::reliable_retries, traced.audit_ns), "1/run");
    report.metric("pecos.checks_per_run", per_run(obs::Counter::pecos_checks, traced.pecos_ns),
                  "1/run");
    report.metric("pecos.cf_log.overflow_slices",
                  per_run(obs::Counter::pecos_cf_log_overflow_slices, traced.pecos_ns), "1/run");
    report.metric("audit.cf_attest.transitions_attested",
                  per_run(obs::Counter::audit_cf_transitions_attested, traced.pecos_ns), "1/run");
    report.metric("manager.heal_replayed_ops",
                  per_run(obs::Counter::manager_heal_replayed_ops, traced.pecos_ns), "1/run");
  }
  report.add_attempted(untraced.audit_ns.size() + untraced.pecos_ns.size());
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
