// heartbeat_10k -- why: a 10k-device fleet on two shared builds runs
// short slices between verdicts, so fleet scheduling and the fixed
// per-report cost of attestation (sched: heartbeat beats, windowed
// slices, registry snapshots) dominate; near-total build sharing and
// copy-on-write pages make it the memory workload.
//
// The fleet is mostly kCfaBaseline (with kNone, kCasu and kEilidHw
// sprinkled in). Timed: fresh fleets each boot and are judged once,
// before and after the rounds; the last one before them runs the
// closed-loop rounds: every online device runs a short bounded run()
// slice (reports stay at tens of edges), then the clock advances one
// tick through IncrementalVerifier::run_until(pool) and a jittered
// HeartbeatScheduler::run_until(pool). A seeded sprinkle is diverged by
// a rogue, validly MAC'd patch and must be convicted; another is
// offline and must only miss beats. Between the boot and the rounds a
// 1024-device cohort takes five release cycles.
#include <algorithm>
#include <mutex>
#include <set>

#include "bench.h"
#include "src/eilid/health.h"
#include "src/eilid/incremental.h"

namespace perfbench {

namespace {

using eilid::apps::AppSpec;
using eilid::apps::FleetWorkload;

// Boots through four calls of a short sampling loop to `halt`, then
// idles there in a twelve-cycle loop: one logged edge per loop.
const char* kIdleFirmware = R"(.org 0xE000
main:
    mov #0x1000, r1
    mov #4, r10
boot_loop:
    call #sample
    dec r10
    jnz boot_loop
halt:
    add r5, r6
    xor r6, r7
    rla r7
    add r7, r8
    xor r8, r5
    add r6, r9
    rra r9
    add r9, r5
    xor r5, r6
    add r6, r7
    jmp halt
sample:
    mov #32, r11
sample_loop:
    add r5, r6
    xor r6, r7
    dec r11
    jnz sample_loop
    ret
.vector 15, main
.end
)";

constexpr uint64_t kSliceCycles = 32;
constexpr size_t kChunk = 128;                // devices per slice task

struct HeartbeatFleet {
  std::unique_ptr<Fleet> fleet;
  BuildPtr releases[2];
  std::vector<DeviceSession*> devices;  // deployment order
};

BuildPtr build_for(Run& run, Fleet& fleet, const std::string& source,
                   bool eilid) {
  Scope span(run.tracer, Layer::kPipeline, "Fleet::build");
  const size_t runs = fleet.pipeline_runs();
  eilid::core::BuildOptions options;
  options.eilid = eilid;
  BuildPtr build = fleet.build(source, "idle_fw", options);
  span.set_work(fleet.pipeline_runs() - runs);
  return build;
}

HeartbeatFleet set_up(Run& run,
                      const std::vector<EnforcementPolicy>& policies) {
  Scope root(run.tracer, Layer::kRoot, "setup");
  HeartbeatFleet f;
  f.fleet = std::make_unique<Fleet>();
  f.releases[0] = build_for(run, *f.fleet, kIdleFirmware, false);
  f.releases[1] =
      build_for(run, *f.fleet, release_source(kIdleFirmware, 1), false);
  const BuildPtr instrumented = build_for(run, *f.fleet, kIdleFirmware, true);
  Scope span(run.tracer, Layer::kFleet, "Fleet::deploy");
  for (size_t i = 0; i < policies.size(); ++i) {
    f.devices.push_back(&f.fleet->deploy(
        device_name("hb", i),
        policies[i] == EnforcementPolicy::kEilidHw ? instrumented
                                                   : f.releases[0],
        policies[i]));
  }
  span.set_work(policies.size());
  return f;
}

}  // namespace

void run_heartbeat_10k(Run& run) {
  const bool tiny = run.cfg.tiny;
  const size_t devices = tiny ? 240 : 10000;
  const size_t samples = tiny ? 1 : 4;  // set-up + boot, twice over
  const size_t window = tiny ? 40 : 1000;  // rounds in the digest window
  const size_t cohort_size = tiny ? 24 : 1024;
  const size_t cycles = tiny ? 2 : 5;
  const uint64_t sprinkle = tiny ? 20 : 100;  // 1 in N CFA devices each
  Tracer& tracer = run.tracer;
  Checker& check = run.check;

  // --- inputs, all drawn from the seed ---
  eilid::common::SeededRng rng(run.cfg.seed);
  std::vector<EnforcementPolicy> policies(devices);
  std::vector<bool> diverged(devices), offline(devices);
  for (size_t i = 0; i < devices; ++i) {
    const uint64_t roll = rng.below(20);
    policies[i] = roll == 0   ? EnforcementPolicy::kNone
                  : roll == 1 ? EnforcementPolicy::kCasu
                  : roll == 2 ? EnforcementPolicy::kEilidHw
                              : EnforcementPolicy::kCfaBaseline;
    if (policies[i] != EnforcementPolicy::kCfaBaseline) continue;
    const uint64_t fault = rng.below(sprinkle);
    diverged[i] = fault == 0;
    offline[i] = fault == 1;
  }
  // The first six devices pin one of each kind, so even a tiny fleet
  // has every policy and both sprinkles; device 5 stays benign.
  const EnforcementPolicy pinned[] = {
      EnforcementPolicy::kNone,        EnforcementPolicy::kCasu,
      EnforcementPolicy::kEilidHw,     EnforcementPolicy::kCfaBaseline,
      EnforcementPolicy::kCfaBaseline, EnforcementPolicy::kCfaBaseline};
  for (size_t i = 0; i < 6; ++i) {
    policies[i] = pinned[i];
    diverged[i] = i == 3;
    offline[i] = i == 4;
  }

  tracer.set_active(run.cfg.traced);
  const AppSpec firmware = plain_app("idle_fw", kIdleFirmware, 100000);
  auto boot = [&](HeartbeatFleet& f, std::vector<DeviceSession*>& cfa) {
    Scope root(tracer, Layer::kRoot, "boot");
    std::vector<FleetWorkload> items;
    for (DeviceSession* dev : f.devices) {
      items.push_back({dev, &firmware, 0});
      if (dev->cfa_monitor() != nullptr) cfa.push_back(dev);
    }
    std::vector<eilid::apps::WorkloadOutcome> outcomes;
    const auto verdicts = boot_and_judge(run, *f.fleet, items, cfa, outcomes);
    for (size_t i = 0; i < items.size(); ++i) {
      check.expect(outcomes[i].reached_halt && outcomes[i].violations == 0,
                   "boot", f.devices[i]->id());
      if (run.digest.on) {
        run.add_overhead_sample(firmware.name, policies[i], outcomes[i].cycles);
      }
    }
    for (const auto& verdict : verdicts) {
      run.digest.add(verdict);
      run.count("attest.edges", verdict.edges);
      check.expect(verdict.ok(), "boot-clean", verdict.device_id);
    }
    run.count("attest.reports", verdicts.size());
  };

  // --- timed: each sample is a fresh fleet, set up, booted and judged
  // once; setup_s and boot_devices_per_s are medians over the samples,
  // half taken before the rounds and half after them so they span the
  // run. The last fleet before the rounds goes on: a cohort takes five
  // release cycles, then the rounds run ---
  const auto timed_t0 = steady::now();
  HeartbeatFleet f;
  std::vector<DeviceSession*> cfa;
  auto sample = [&](bool digested) {
    f = HeartbeatFleet();  // release the previous fleet first
    cfa.clear();
    const auto t0 = steady::now();
    f = set_up(run, policies);
    run.setup_s.push_back(seconds_since(t0));
    run.digest.on = digested;
    boot(f, cfa);
    run.digest.on = true;
  };
  // The digest, counts and overhead samples take the last boot before
  // the rounds only.
  for (size_t s = 0; s < samples; ++s) sample(s + 1 == samples);
  {
    Fleet& fleet = *f.fleet;
    run.count("pipeline.runs", fleet.pipeline_runs());
    run.count("pipeline.cache_hits", fleet.build_cache_hits());

    // The release-cycle cohort: healthy kCfaBaseline devices.
    std::vector<DeviceSession*> cohort;
    for (size_t i = 0; i < devices && cohort.size() < cohort_size; ++i) {
      if (policies[i] == EnforcementPolicy::kCfaBaseline && !diverged[i] &&
          !offline[i]) {
        cohort.push_back(f.devices[i]);
      }
    }
    for (size_t c = 0; c < cycles; ++c) {
      Scope root(tracer, Layer::kRoot, "release-cycle");
      release_cycle(run, fleet, cohort, f.releases[c % 2 == 0 ? 1 : 0],
                    firmware, run.cfg.seed * 31 + c);
    }
    // Updated and healed devices were rebooted: bring them back to `halt`,
    // so every round slices the same idle loop.
    {
      Scope root(tracer, Layer::kRoot, "cohort-settle");
      Scope span(tracer, Layer::kSim, "apps::run_workload_all");
      std::vector<FleetWorkload> items;
      for (DeviceSession* dev : cohort) items.push_back({dev, &firmware, 0});
      const auto outcomes = eilid::apps::run_workload_all(items, run.pool);
      for (size_t i = 0; i < outcomes.size(); ++i) {
        check.expect(outcomes[i].reached_halt && outcomes[i].violations == 0,
                     "cohort-settled", cohort[i]->id());
      }
    }

    // Scenario faults land after the boot sweep and the release cycles,
    // so the rounds catch them.
    std::set<std::string> want_convicted, offline_ids;
    for (size_t i = 0; i < devices; ++i) {
      DeviceSession& dev = *f.devices[i];
      if (offline[i]) {
        dev.set_online(false);
        offline_ids.insert(dev.id());
      }
      if (!diverged[i]) continue;
      want_convicted.insert(dev.id());
      apply_rogue_patch(run, fleet, dev);
    }
    if (run.cfg.misstate) want_convicted.insert(f.devices[5]->id());

    // Slice tasks: online devices, one policy per task.
    struct Chunk {
      int8_t policy;
      std::vector<DeviceSession*> devices;
    };
    std::vector<Chunk> chunks;
    for (EnforcementPolicy p :
         {EnforcementPolicy::kNone, EnforcementPolicy::kCasu,
          EnforcementPolicy::kCfaBaseline, EnforcementPolicy::kEilidHw}) {
      std::vector<DeviceSession*> group;
      for (size_t i = 0; i < devices; ++i) {
        if (policies[i] == p && !offline[i]) group.push_back(f.devices[i]);
      }
      for (size_t at = 0; at < group.size(); at += kChunk) {
        const size_t end = std::min(group.size(), at + kChunk);
        chunks.push_back(
            {policy_code(p), {group.begin() + at, group.begin() + end}});
      }
    }

    eilid::IncrementalVerifier windowed(
        fleet, {.period = 1,
                .max_devices_per_tick = cfa.size() / 20 + 1,
                .max_bytes_per_slice =
                    64 * eilid::cfa::LoggedEdge::kWireBytes});
    eilid::HeartbeatScheduler heartbeats(
        fleet, {.period = 20, .jitter = 19, .jitter_seed = run.cfg.seed,
                .max_backoff_exponent = 3});

    auto fleet_counters = [&] {
      DeviceCounters sum;
      for (DeviceSession* dev : f.devices) sum += DeviceCounters::of(*dev);
      return sum;
    };
    const DeviceCounters window_start = fleet_counters();
    std::set<std::string> convicted;
    std::vector<uint64_t> chunk_instructions(chunks.size());
    const auto deadline =
        timed_t0 + std::chrono::duration<double>(run.cfg.seconds);
    for (size_t round = 0; round < window || steady::now() < deadline;
         ++round) {
      tracer.set_active(run.cfg.traced && round % 2 == 0);
      const auto t0 = steady::now();
      uint64_t verdicts = 0;
      {
        Scope root(tracer, Layer::kRoot, "round");
        {
          Scope span(tracer, Layer::kSim, "slices");
          const uint32_t parent = tracer.current();
          run.pool.parallel_for(chunks.size(), [&](size_t c) {
            Scope task(tracer, Layer::kSim, "DeviceSession::run", -1,
                       chunks[c].policy, parent);
            uint64_t instructions = 0;
            for (DeviceSession* dev : chunks[c].devices) {
              std::lock_guard<std::mutex> lock(dev->mutex());
              const eilid::sim::Cpu& cpu = dev->machine().cpu();
              const uint64_t before = cpu.instructions_retired();
              dev->run(kSliceCycles);
              instructions += cpu.instructions_retired() - before;
            }
            chunk_instructions[c] = instructions;
            task.set_work(instructions);
          });
        }
        const double sim_s = seconds_since(t0);
        uint64_t instructions = 0;
        for (uint64_t n : chunk_instructions) instructions += n;
        run.sim_mips.push_back(static_cast<double>(instructions) / sim_s / 1e6);

        const eilid::Tick tick = fleet.clock().now() + 1;
        eilid::IncrementalVerifier::WindowReport slices;
        {
          Scope span(tracer, Layer::kSched, "IncrementalVerifier::run_until");
          slices = windowed.run_until(tick, run.pool);
          uint64_t n = 0, edges = 0;
          for (const auto& r : slices.rounds) {
            n += r.slices.size();
            for (const auto& s : r.slices) edges += s.edges;
          }
          span.set_work(n, edges);
        }
        eilid::HeartbeatReport beats;
        {
          Scope span(tracer, Layer::kSched, "HeartbeatScheduler::run_until");
          beats = heartbeats.run_until(tick, run.pool);
          uint64_t beat_verdicts = 0, misses = 0;
          for (const auto& beat : beats.beats) {
            beat_verdicts += beat.verdicts.size();
            misses += beat.missed.size();
          }
          span.set_work(beat_verdicts, misses);
        }

        // --- expectations ---
        run.digest.on = round < window;
        auto judge = [&](const eilid::VerifierService::AttestResult& v,
                         const char* counter, const char* edge_counter) {
          ++verdicts;
          run.digest.add(v);
          run.count(counter, 1);
          run.count(edge_counter, v.edges);
          run.count("cfa.dropped", v.dropped);
          check.expect(offline_ids.count(v.device_id) == 0, "offline-silent",
                       v.device_id);
          if (!v.ok()) {
            convicted.insert(v.device_id);
            run.count("attest.convicted", 1);
          }
          if (want_convicted.count(v.device_id) == 0) {
            check.expect(v.ok(), "verdict-clean", v.device_id);
          }
        };
        for (const auto& r : slices.rounds) {
          for (const auto& s : r.slices) {
            judge(s, "incremental.slices", "incremental.edges");
          }
        }
        for (const auto& beat : beats.beats) {
          for (const auto& v : beat.verdicts) {
            judge(v, "heartbeat.verdicts", "heartbeat.edges");
          }
          for (const auto& id : beat.missed) {
            run.digest.add(id);
            check.expect(offline_ids.count(id) == 1, "miss-only-offline", id);
          }
          run.count("heartbeat.misses", beat.missed.size());
        }
      }
      run.end_round(seconds_since(t0) * 1e3, verdicts);

      if (round + 1 == window) {
        run.count(fleet_counters() - window_start);
        for (const auto& id : want_convicted) {
          check.expect(convicted.count(id) == 1, "diverged-convicted", id);
        }
        for (const auto& record : heartbeats.records()) {
          if (offline_ids.count(record.device_id) != 0) {
            check.expect(record.misses > 0 && record.heartbeats == 0,
                         "offline-missed", record.device_id);
          } else {
            check.expect(record.heartbeats > 0, "online-beat",
                         record.device_id);
          }
        }
        record_memory(run, f.devices);
      }
    }
  }
  // The windowed verifier and the scheduler went with the block, so the
  // fleet can be released: the second half of the samples.
  tracer.set_active(run.cfg.traced);
  for (size_t s = 0; s < samples; ++s) sample(false);
}

}  // namespace perfbench
