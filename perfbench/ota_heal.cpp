// ota_heal -- why: the write path. OTA serialize / chunk / MAC /
// reassemble (ota) and HealthMonitor remediation (heal) take a larger
// share here than in any other workload (about a third of the traced
// wall time, next to the per-round boot and provisioning), and the
// crypto runs for package and chunk writes where the other two
// workloads spend it on report reads.
//
// Closed loop, one fresh fleet per round: set up (builds + deploys,
// timed as set-up), boot every device with fire_sensor and judge the
// kCfaBaseline cohort, then one release cycle: a seeded diverged and
// offline sprinkle, a bulk UpdateCampaign::roll_out(pool) over a lossy
// transport (drop / corrupt / duplicate / reorder), a gated
// CampaignScheduler::run(pool) wave plan probed with
// apps::wave_workload, and a HealthMonitor that heals both sprinkles
// onto the target. The cohort starts on two releases, so the campaign's
// per-from-build diff cache holds two entries. A small kCasu + kEilidHw
// cohort is held on the first release (no OTA) and gives the simulated
// EILID overhead of the app. Every round is the same scenario, so every
// round's outcome digest must equal the first one's.

#include "bench.h"

namespace perfbench {

namespace {

using eilid::apps::AppSpec;
using eilid::apps::FleetWorkload;

struct OtaFleet {
  std::unique_ptr<Fleet> fleet;
  BuildPtr target;
  std::vector<DeviceSession*> cohort;
  std::vector<DeviceSession*> all;
};

BuildPtr build_for(Run& run, Fleet& fleet, const std::string& source,
                   const std::string& name, bool eilid) {
  Scope span(run.tracer, Layer::kPipeline, "Fleet::build");
  const size_t runs = fleet.pipeline_runs();
  eilid::core::BuildOptions options;
  options.eilid = eilid;
  BuildPtr build = fleet.build(source, name, options);
  span.set_work(fleet.pipeline_runs() - runs);
  return build;
}

OtaFleet set_up(Run& run, const AppSpec& app, size_t cohort_size,
                size_t held_per_policy) {
  Scope root(run.tracer, Layer::kRoot, "setup");
  OtaFleet f;
  f.fleet = std::make_unique<Fleet>();
  Fleet& fleet = *f.fleet;
  BuildPtr releases[2];
  for (int gen = 0; gen < 2; ++gen) {
    releases[gen] = build_for(run, fleet, release_source(app.source, gen),
                              app.name, false);
  }
  f.target =
      build_for(run, fleet, release_source(app.source, 2), app.name, false);
  const BuildPtr instrumented =
      build_for(run, fleet, app.source, app.name, true);

  eilid::common::SeededRng rng(run.cfg.seed ^ 0x07AE);
  Scope span(run.tracer, Layer::kFleet, "Fleet::deploy");
  for (size_t i = 0; i < cohort_size; ++i) {
    f.cohort.push_back(&fleet.deploy(device_name("ota", i),
                                     releases[rng.below(2)],
                                     EnforcementPolicy::kCfaBaseline,
                                     {.cfa = {.log_capacity = 8192}}));
  }
  f.all = f.cohort;
  for (size_t i = 0; i < held_per_policy; ++i) {
    f.all.push_back(&fleet.deploy(device_name("held-casu", i), releases[0],
                                  EnforcementPolicy::kCasu));
    f.all.push_back(&fleet.deploy(device_name("held-eilid", i), instrumented,
                                  EnforcementPolicy::kEilidHw));
  }
  span.set_work(f.all.size());
  return f;
}

}  // namespace

void run_ota_heal(Run& run) {
  const bool tiny = run.cfg.tiny;
  const size_t cohort_size = tiny ? 24 : 240;
  const size_t held = tiny ? 2 : 8;
  const size_t min_rounds = tiny ? 2 : 3;
  const AppSpec& app = eilid::apps::app_by_name("fire_sensor");
  Tracer& tracer = run.tracer;
  Checker& check = run.check;

  uint64_t first_digest = 0;
  const auto deadline =
      steady::now() + std::chrono::duration<double>(run.cfg.seconds);
  for (size_t round = 0; round < min_rounds || steady::now() < deadline;
       ++round) {
    // Rounds after the first recompute the digest and counts into
    // throwaway copies, which must match the first round's.
    const Digest window_digest = run.digest;
    const auto window_counts = run.counts;
    run.digest = Digest();

    tracer.set_active(run.cfg.traced);
    const auto setup_t0 = steady::now();
    OtaFleet f = set_up(run, app, cohort_size, held);
    run.setup_s.push_back(seconds_since(setup_t0));
    Fleet& fleet = *f.fleet;
    if (round == 0) {
      run.count("pipeline.runs", fleet.pipeline_runs());
      run.count("pipeline.cache_hits", fleet.build_cache_hits());
    }

    tracer.set_active(run.cfg.traced && round % 2 == 0);
    const auto t0 = steady::now();
    uint64_t judged = 0;
    {
      Scope root(tracer, Layer::kRoot, "round");
      std::vector<FleetWorkload> items;
      for (DeviceSession* dev : f.all) items.push_back({dev, &app, 0});
      std::vector<eilid::apps::WorkloadOutcome> outcomes;
      const auto verdicts =
          boot_and_judge(run, fleet, items, f.cohort, outcomes);
      for (size_t i = 0; i < items.size(); ++i) {
        DeviceSession& dev = *f.all[i];
        const auto& out = outcomes[i];
        run.digest.add(dev.id());
        run.digest.add(out.cycles);
        check.expect(out.reached_halt && out.violations == 0 &&
                         out.check_failure.empty(),
                     "boot", dev.id() + " " + out.check_failure);
        if (round == 0) {
          run.add_overhead_sample(app.name, dev.policy(), out.cycles);
        }
      }
      uint64_t edges = 0;
      for (const auto& verdict : verdicts) {
        run.digest.add(verdict);
        edges += verdict.edges;
        run.count("cfa.dropped", verdict.dropped);
        check.expect(verdict.ok(), "boot-clean", verdict.device_id);
      }
      run.count("attest.reports", verdicts.size());
      run.count("attest.edges", edges);
      const uint64_t release_verdicts = release_cycle(
          run, fleet, f.cohort, f.target, app, run.cfg.seed * 31 + 7);
      // The fleet is fresh, so its counters hold the whole round's work:
      // boot, probes and reboots.
      DeviceCounters counters;
      for (DeviceSession* dev : f.all) counters += DeviceCounters::of(*dev);
      judged = verdicts.size() + release_verdicts;
      if (round == 0) {
        run.count(counters);
        record_memory(run, f.all);
      }
    }
    run.end_round(seconds_since(t0) * 1e3, judged);

    if (round == 0) {
      first_digest = run.digest.value();
    } else {
      check.expect(run.digest.value() == first_digest, "round-determinism",
                   "round " + std::to_string(round));
      run.digest = window_digest;
      run.counts = window_counts;
    }
  }
}

}  // namespace perfbench
