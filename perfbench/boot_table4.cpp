// boot_table4 -- why: a mixed-policy fleet boots the seven Table IV apps
// to `halt`, so simulator dispatch and the monitor callouts (sim +
// monitor) do most of the work, with the barrier CFA sweep (attest)
// judging full boot evidence after each round.
//
// Closed loop, one round at a time: deploy a fresh batch (every
// (app, policy) pair of the 7 Table IV apps x 4 policies, eight times,
// plus two vuln_gateways per policy), boot it through
// apps::run_workload_all, judge its kCfaBaseline devices with one
// pooled barrier verify_all, check every outcome, decommission. The
// seed shuffles each batch and picks which kEilidHw / kCfaBaseline
// gateways receive the overflow_ret_payload exploit: kEilidHw must
// reset in real time, kCfaBaseline must be convicted at the sweep.
// Every 25 rounds a persistent gateway cohort takes a release cycle
// (lossy rollout, gated waves, healing).
#include <algorithm>

#include "bench.h"
#include "src/attacks/attack.h"

namespace perfbench {

namespace {

using eilid::apps::AppSpec;
using eilid::apps::FleetWorkload;

constexpr EnforcementPolicy kPolicies[] = {
    EnforcementPolicy::kNone, EnforcementPolicy::kCasu,
    EnforcementPolicy::kCfaBaseline, EnforcementPolicy::kEilidHw};

// Evidence of the longest Table IV boot (charlieplexing, ~21.5k edges)
// must fit on-device, so no report drops edges.
constexpr size_t kLogCapacity = 32768;
constexpr size_t kCycleEvery = 25;  // boot rounds per gateway release cycle

struct Member {
  const AppSpec* app = nullptr;
  EnforcementPolicy policy = EnforcementPolicy::kNone;
  bool attacked = false;
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

struct BootFleet {
  std::unique_ptr<Fleet> fleet;
  std::map<std::pair<std::string, bool>, BuildPtr> builds;  // (app, eilid)
  BuildPtr gateway_releases[3];
  std::vector<DeviceSession*> cohort;
};

BootFleet set_up(Run& run, size_t cohort_size) {
  Scope root(run.tracer, Layer::kRoot, "setup");
  BootFleet f;
  f.fleet = std::make_unique<Fleet>();
  std::vector<const AppSpec*> apps;
  for (const AppSpec& app : eilid::apps::table4_apps()) apps.push_back(&app);
  apps.push_back(&eilid::apps::vuln_gateway());
  for (const AppSpec* app : apps) {
    for (bool eilid : {false, true}) {
      f.builds[{app->name, eilid}] =
          build_for(run, *f.fleet, app->source, app->name, eilid);
    }
  }
  const AppSpec& gateway = eilid::apps::vuln_gateway();
  for (int gen = 0; gen < 3; ++gen) {
    f.gateway_releases[gen] =
        build_for(run, *f.fleet, release_source(gateway.source, gen),
                  gateway.name, false);
  }
  // The cohort starts on two releases, so a release cycle's diff cache
  // holds more than one from-build.
  eilid::common::SeededRng rng(run.cfg.seed ^ 0xC0407);
  for (size_t i = 0; i < cohort_size; ++i) {
    const int gen = static_cast<int>(rng.below(2));
    Scope span(run.tracer, Layer::kFleet, "Fleet::deploy");
    f.cohort.push_back(&f.fleet->deploy(
        device_name("gw", i), f.gateway_releases[gen],
        EnforcementPolicy::kCfaBaseline,
        {.cfa = {.log_capacity = kLogCapacity}}));
    span.set_work(1);
  }
  return f;
}

// One round: deploy a fresh batch, boot it, judge its kCfaBaseline
// devices, check every outcome, decommission. Returns the verdicts.
uint64_t boot_round(Run& run, BootFleet& f, const std::vector<Member>& batch,
                    size_t round, size_t& serial) {
  Tracer& tracer = run.tracer;
  Checker& check = run.check;
  Fleet& fleet = *f.fleet;
  std::vector<FleetWorkload> items;
  std::vector<DeviceSession*> sweep;
  {
    Scope span(tracer, Layer::kFleet, "Fleet::deploy");
    for (const Member& m : batch) {
      const bool eilid = m.policy == EnforcementPolicy::kEilidHw;
      DeviceSession& dev = fleet.deploy(
          device_name("boot", serial++), f.builds.at({m.app->name, eilid}),
          m.policy, {.cfa = {.log_capacity = kLogCapacity}});
      items.push_back({&dev, m.app, 0});
      if (dev.cfa_monitor() != nullptr) sweep.push_back(&dev);
    }
    span.set_work(batch.size());
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].app != &eilid::apps::vuln_gateway()) continue;
    DeviceSession& dev = *items[i].session;
    dev.machine().uart().feed(
        batch[i].attacked
            ? eilid::attacks::overflow_ret_payload(dev.symbol("unlock"))
            : eilid::attacks::benign_payload());
  }

  std::vector<eilid::apps::WorkloadOutcome> outcomes;
  const auto verdicts = boot_and_judge(run, fleet, items, sweep, outcomes);

  // --- expectations ---
  std::map<std::string, const Member*> member_of;
  DeviceCounters counters;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Member& m = batch[i];
    const auto& out = outcomes[i];
    DeviceSession& dev = *items[i].session;
    member_of[dev.id()] = &m;
    run.digest.add(dev.id());
    run.digest.add(out.cycles);
    run.digest.add(out.violations);
    run.digest.add(out.last_reset);
    // An exploited kCfaBaseline gateway may also trip a CASU invariant;
    // what it must do is convict at the sweep (below).
    check.expect(out.reached_halt, "reached-halt", dev.id());
    if (m.attacked && m.policy == EnforcementPolicy::kEilidHw) {
      check.expect(out.violations >= 1 &&
                       out.last_reset == "cfi-return-mismatch",
                   "eilid-prevented", dev.id() + " " + out.last_reset);
      run.count("eilid.violations", out.violations);
    } else if (!m.attacked) {
      check.expect(out.violations == 0 && out.check_failure.empty(),
                   "benign-boot",
                   dev.id() + " " + out.last_reset + out.check_failure);
    }
    if (round == 0 && m.app != &eilid::apps::vuln_gateway()) {
      run.add_overhead_sample(m.app->name, m.policy, out.cycles);
    }
    counters += DeviceCounters::of(dev);
  }
  run.count(counters);
  // The mis-stated expectation: the first benign CFA device of round 0
  // is expected to be convicted.
  std::string misstated;
  for (const auto& verdict : verdicts) {
    if (!member_of.at(verdict.device_id)->attacked) {
      if (run.cfg.misstate && round == 0) misstated = verdict.device_id;
      break;
    }
  }
  uint64_t edges = 0;
  for (const auto& verdict : verdicts) {
    const Member& m = *member_of.at(verdict.device_id);
    const bool expect_convicted = m.attacked || verdict.device_id == misstated;
    run.digest.add(verdict);
    edges += verdict.edges;
    run.count("cfa.dropped", verdict.dropped);
    if (expect_convicted) {
      check.expect(verdict.attested && verdict.mac_ok && !verdict.path_ok,
                   "cfa-convicted", verdict.device_id);
    } else {
      check.expect(verdict.ok(), "cfa-clean", verdict.device_id);
    }
    if (!verdict.path_ok) run.count("attest.convicted", 1);
  }
  run.count("attest.reports", verdicts.size());
  run.count("attest.edges", edges);

  if (round == 0) {
    std::vector<DeviceSession*> devices;
    for (const FleetWorkload& item : items) devices.push_back(item.session);
    record_memory(run, devices);
  }
  {
    Scope span(tracer, Layer::kFleet, "Fleet::decommission");
    for (const FleetWorkload& item : items) {
      fleet.decommission(item.session->id());
    }
  }
  return verdicts.size();
}

}  // namespace

void run_boot_table4(Run& run) {
  const bool tiny = run.cfg.tiny;
  const size_t per_cell = tiny ? 1 : 8;
  const size_t cohort_size = tiny ? 16 : 1024;
  const size_t setups = tiny ? 2 : 15;
  const size_t window = tiny ? 3 : 100;  // rounds in the digest window
  Tracer& tracer = run.tracer;
  Checker& check = run.check;

  tracer.set_active(run.cfg.traced);
  BootFleet f;
  for (size_t s = 0; s < setups; ++s) {
    f = BootFleet();  // release the previous fleet before timing the next
    const auto t0 = steady::now();
    f = set_up(run, cohort_size);
    run.setup_s.push_back(seconds_since(t0));
  }
  Fleet& fleet = *f.fleet;
  run.count("pipeline.runs", fleet.pipeline_runs());
  run.count("pipeline.cache_hits", fleet.build_cache_hits());

  // The batch composition is the same every round; the seed orders it
  // and picks the attacked gateways.
  std::vector<Member> batch;
  for (const AppSpec& app : eilid::apps::table4_apps()) {
    for (EnforcementPolicy policy : kPolicies) {
      for (size_t k = 0; k < per_cell; ++k) batch.push_back({&app, policy});
    }
  }
  for (EnforcementPolicy policy : kPolicies) {
    for (size_t k = 0; k < (tiny ? 1 : 2); ++k) {
      batch.push_back({&eilid::apps::vuln_gateway(), policy});
    }
  }
  // The gateway cohort boots once, before the timed rounds.
  const AppSpec& gateway = eilid::apps::vuln_gateway();
  {
    Scope root(tracer, Layer::kRoot, "cohort-boot");
    std::vector<FleetWorkload> items;
    for (DeviceSession* dev : f.cohort) items.push_back({dev, &gateway, 0});
    std::vector<eilid::apps::WorkloadOutcome> outcomes;
    for (const auto& verdict :
         boot_and_judge(run, fleet, items, f.cohort, outcomes)) {
      run.digest.add(verdict);
      check.expect(verdict.ok(), "cohort-boot-clean", verdict.device_id);
    }
    run.sim_mips.clear();  // the cohort boot is not a round
    run.boot_rate.clear();
  }

  eilid::common::SeededRng rng(run.cfg.seed);
  const auto deadline =
      steady::now() + std::chrono::duration<double>(run.cfg.seconds);
  size_t serial = 0;
  for (size_t round = 0; round < window || steady::now() < deadline; ++round) {
    run.digest.on = round < window;
    tracer.set_active(run.cfg.traced && round % 2 == 0);
    for (size_t i = batch.size(); i > 1; --i) {
      std::swap(batch[i - 1], batch[rng.below(i)]);
    }
    for (Member& m : batch) {
      m.attacked = m.app == &eilid::apps::vuln_gateway() &&
                   (m.policy == EnforcementPolicy::kEilidHw ||
                    m.policy == EnforcementPolicy::kCfaBaseline) &&
                   rng.below(2) == 0;
    }

    const auto t0 = steady::now();
    uint64_t judged = 0;
    {
      Scope root(tracer, Layer::kRoot, "round");
      judged = boot_round(run, f, batch, round, serial);
    }
    run.end_round(seconds_since(t0) * 1e3, judged);

    // Every kCycleEvery rounds the gateway cohort takes the next release,
    // alternating between two targets.
    if ((round + 1) % kCycleEvery == 0) {
      const size_t cycle = round / kCycleEvery;
      Scope cycle_root(tracer, Layer::kRoot, "release-cycle");
      release_cycle(run, fleet, f.cohort,
                    f.gateway_releases[cycle % 2 == 0 ? 2 : 0], gateway,
                    run.cfg.seed * 31 + cycle);
    }
  }
}

}  // namespace perfbench
