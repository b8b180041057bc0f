#include <algorithm>
#include <cstdio>
#include <mutex>
#include <set>
#include <span>

#include "bench.h"
#include "src/casu/update.h"
#include "src/eilid/health.h"
#include "src/eilid/rollout.h"

namespace perfbench {

using eilid::HealthReport;
using eilid::UpdateOutcome;
using eilid::VerifierService;

double seconds_since(steady::time_point start) {
  return std::chrono::duration<double>(steady::now() - start).count();
}

bool Checker::expect(bool ok, const char* check, const std::string& detail) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  if (failures_.size() < 16) {
    failures_.push_back(std::string(check) + ": " + detail);
  }
  return false;
}

void Digest::add(std::string_view text) {
  if (!on) return;
  for (char c : text) {
    h_ ^= static_cast<uint8_t>(c);
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 0x100000001b3ULL;
}

void Digest::add(uint64_t value) { add(std::to_string(value)); }

void Digest::add(const VerifierService::AttestResult& v) {
  add(v.device_id);
  add((uint64_t{v.attested} << 3) | (uint64_t{v.mac_ok} << 2) |
      (uint64_t{v.seq_ok} << 1) | uint64_t{v.path_ok});
  add(v.seq);
  add(v.cycle);
  add(v.tick);
  add(v.edges);
  add(v.dropped);
  add(v.remaining);
  add(v.first_bad ? (uint64_t{v.first_bad->from} << 16) | v.first_bad->to
                  : uint64_t{0});
}

void Digest::add(const UpdateOutcome& o) {
  add(o.device_id);
  add(static_cast<uint64_t>(o.result));
  add(o.version_before);
  add(o.version_after);
  add(o.regions);
  add(o.payload_bytes);
  add((uint64_t{o.build_swapped} << 2) | (uint64_t{o.cfg_staged} << 1) |
      uint64_t{o.resumed});
  add(o.attempts);
  add(o.bytes_retransmitted);
}

DeviceCounters DeviceCounters::of(DeviceSession& session) {
  DeviceCounters c;
  eilid::sim::Machine& machine = session.machine();
  c.instructions = machine.cpu().instructions_retired();
  c.cycles = machine.cycles();
  c.blocks = machine.blocks_executed();
  c.decode_misses = machine.cpu().decode_cache_misses();
  if (session.cfa_monitor() != nullptr) {
    c.edges_logged = session.cfa_monitor()->total_edges();
  }
  return c;
}

DeviceCounters& DeviceCounters::operator+=(const DeviceCounters& o) {
  instructions += o.instructions;
  cycles += o.cycles;
  blocks += o.blocks;
  decode_misses += o.decode_misses;
  edges_logged += o.edges_logged;
  return *this;
}

DeviceCounters DeviceCounters::operator-(const DeviceCounters& o) const {
  DeviceCounters d;
  d.instructions = instructions - o.instructions;
  d.cycles = cycles - o.cycles;
  d.blocks = blocks - o.blocks;
  d.decode_misses = decode_misses - o.decode_misses;
  d.edges_logged = edges_logged - o.edges_logged;
  return d;
}

Run::Run(Config config)
    : cfg(std::move(config)),
      pool(std::min(4u, std::max(1u, std::thread::hardware_concurrency()))) {}

void Run::end_round(double ms, uint64_t verdicts) {
  round_ms.push_back(ms);
  (tracer.active() ? traced_round_ms : untraced_round_ms).push_back(ms);
  block_ms += ms;
  block_verdicts += verdicts;
  if (++block_rounds < kRateBlock) return;
  verdict_rate.push_back(static_cast<double>(block_verdicts) /
                         (block_ms / 1e3));
  block_ms = 0;
  block_verdicts = 0;
  block_rounds = 0;
}

std::vector<double> Run::verdict_rates() const {
  if (!verdict_rate.empty() || block_ms == 0) return verdict_rate;
  return {static_cast<double>(block_verdicts) / (block_ms / 1e3)};
}

void Run::add_overhead_sample(const std::string& app, EnforcementPolicy policy,
                              uint64_t cycles) {
  OverheadCycles& o = overhead_cycles[app];
  if (policy == EnforcementPolicy::kCasu) {
    o.casu += static_cast<double>(cycles);
    ++o.casu_devices;
  } else if (policy == EnforcementPolicy::kEilidHw) {
    o.eilid += static_cast<double>(cycles);
    ++o.eilid_devices;
  }
}

void Run::count(const DeviceCounters& c) {
  count("sim.instructions", c.instructions);
  count("sim.cycles", c.cycles);
  count("sim.blocks", c.blocks);
  count("sim.decode_misses", c.decode_misses);
  count("cfa.edges_logged", c.edges_logged);
}

std::string device_name(const char* prefix, size_t index) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s-%06zu", prefix, index);
  return buf;
}

int8_t policy_code(EnforcementPolicy policy) {
  return static_cast<int8_t>(policy);
}

std::string release_source(const std::string& source, int generation) {
  const std::string anchor = ".org 0xE000\n";
  const size_t at = source.find(anchor);
  if (at == std::string::npos || generation == 0) return source;
  std::string dead;
  for (int g = 0; g < generation; ++g) {
    dead += "release_pad_" + std::to_string(g) + ":\n    ret\n";
  }
  std::string out = source;
  out.insert(at + anchor.size(), dead);
  return out;
}

eilid::apps::AppSpec plain_app(std::string name, std::string source,
                               uint64_t cycle_budget) {
  return {std::move(name), std::move(source),
          [](eilid::sim::Machine&) {}, cycle_budget,
          [](eilid::sim::Machine&) { return std::string(); }};
}

std::vector<VerifierService::AttestResult> boot_and_judge(
    Run& run, Fleet& fleet,
    const std::vector<eilid::apps::FleetWorkload>& items,
    const std::vector<DeviceSession*>& sweep,
    std::vector<eilid::apps::WorkloadOutcome>& outcomes) {
  Tracer& tracer = run.tracer;
  std::vector<uint64_t> before(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    before[i] = items[i].session->machine().cpu().instructions_retired();
  }
  const auto t0 = steady::now();
  {
    Scope sim(tracer, Layer::kSim, "apps::run_workload_all");
    if (tracer.active()) {
      // One span per device, so busy time splits by policy. The same
      // per-session lock run_workload_all takes.
      outcomes.assign(items.size(), {});
      const uint32_t parent = tracer.current();
      run.pool.parallel_for(items.size(), [&](size_t i) {
        const eilid::apps::FleetWorkload& item = items[i];
        std::lock_guard<std::mutex> lock(item.session->mutex());
        eilid::sim::Cpu& cpu = item.session->machine().cpu();
        Scope device(tracer, Layer::kSim, "apps::run_workload",
                     static_cast<int32_t>(i),
                     policy_code(item.session->policy()), parent);
        outcomes[i] = eilid::apps::run_workload(*item.session, *item.app,
                                                item.cycle_budget);
        device.set_work(cpu.instructions_retired() - before[i]);
      });
    } else {
      outcomes = eilid::apps::run_workload_all(items, run.pool);
    }
  }
  const double sim_s = seconds_since(t0);
  uint64_t instructions = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    instructions +=
        items[i].session->machine().cpu().instructions_retired() - before[i];
  }

  std::vector<VerifierService::AttestResult> verdicts;
  {
    Scope attest(tracer, Layer::kAttest, "VerifierService::verify_all");
    verdicts = fleet.verifier().verify_all(sweep, run.pool);
    uint64_t edges = 0;
    for (const auto& v : verdicts) edges += v.edges;
    attest.set_work(edges, verdicts.size());
  }
  const double total_s = seconds_since(t0);
  run.sim_mips.push_back(static_cast<double>(instructions) / sim_s / 1e6);
  run.boot_rate.push_back(static_cast<double>(items.size()) / total_s);
  return verdicts;
}

void record_memory(Run& run, const std::vector<DeviceSession*>& devices) {
  double resident = 0, log_bytes = 0;
  size_t cfa = 0;
  for (DeviceSession* dev : devices) {
    resident += static_cast<double>(dev->resident_memory_bytes());
    if (dev->cfa_monitor() == nullptr) continue;
    log_bytes += static_cast<double>(dev->cfa_monitor()->total_log_bytes());
    ++cfa;
  }
  run.resident_bytes_per_device =
      resident / static_cast<double>(devices.size());
  run.cfa_log_bytes_per_device = cfa == 0 ? 0 : log_bytes / cfa;
}

void apply_rogue_patch(Run& run, Fleet& fleet, DeviceSession& device) {
  constexpr uint16_t kPatchAddr = 0xFF00;  // PMEM past every app's code
  std::lock_guard<std::mutex> lock(device.mutex());
  const eilid::crypto::Digest key = fleet.update_key(device.id());
  eilid::casu::UpdateAuthority authority(
      std::span<const uint8_t>(key.data(), key.size()));
  run.check.expect(device.apply_update(authority.make_package(
                       kPatchAddr, device.firmware_version() + 1,
                       {0x03, 0x43})) == eilid::casu::UpdateStatus::kApplied,
                   "rogue-patch", device.id());
}

namespace {

std::set<std::string> ids_of(
    const std::vector<eilid::QuarantineEntry>& entries) {
  std::set<std::string> ids;
  for (const auto& entry : entries) ids.insert(entry.device_id);
  return ids;
}

std::string describe(const std::set<std::string>& got,
                     const std::set<std::string>& want) {
  std::string text = "got {";
  for (const auto& id : got) text += id + " ";
  text += "} want {";
  for (const auto& id : want) text += id + " ";
  return text + "}";
}

}  // namespace

uint64_t release_cycle(Run& run, Fleet& fleet,
                       const std::vector<DeviceSession*>& cohort,
                       const BuildPtr& target,
                       const eilid::apps::AppSpec& probe, uint64_t cycle_seed) {
  Tracer& tracer = run.tracer;
  Checker& check = run.check;
  eilid::common::SeededRng rng(cycle_seed);

  // Roles, drawn from the cycle seed: ~1/32 diverged, ~1/32 offline,
  // the rest split between the bulk rollout and the wave plan.
  std::vector<DeviceSession*> bulk, waves, diverged, offline;
  for (DeviceSession* dev : cohort) {
    const uint64_t roll = rng.below(32);
    if (roll == 0) {
      diverged.push_back(dev);
    } else if (roll == 1) {
      offline.push_back(dev);
    } else if (rng.below(2) == 0) {
      bulk.push_back(dev);
    } else {
      waves.push_back(dev);
    }
  }
  // Every cycle exercises both sprinkles and a three-wave plan.
  auto take = [](std::vector<DeviceSession*>& from,
                 std::vector<DeviceSession*>& to) {
    if (from.empty()) return;
    to.push_back(from.back());
    from.pop_back();
  };
  auto larger = [&]() -> std::vector<DeviceSession*>& {
    return bulk.size() > waves.size() ? bulk : waves;
  };
  if (diverged.empty()) take(larger(), diverged);
  if (offline.empty()) take(larger(), offline);
  while (waves.size() < 3 && !bulk.empty()) take(bulk, waves);

  for (DeviceSession* dev : diverged) apply_rogue_patch(run, fleet, *dev);

  // --- OTA: bulk rollout over a lossy pipe, then a gated wave plan ---
  eilid::TransportOptions transport;
  transport.chunk_size = 16;
  transport.seed = cycle_seed ^ 0x07A0;
  transport.max_rounds = 64;
  transport.faults.drop_per_mille = 40;
  transport.faults.corrupt_per_mille = 20;
  transport.faults.duplicate_per_mille = 20;
  transport.faults.reorder_per_mille = 30;
  eilid::CampaignOptions lossy;
  lossy.transport = transport;
  eilid::UpdateCampaign campaign = fleet.stage_update(target, lossy);

  uint64_t moved = 0;
  auto judge_update = [&](const UpdateOutcome& outcome) {
    run.digest.add(outcome);
    run.count("ota.package_bytes", outcome.payload_bytes);
    run.count("ota.attempts", outcome.attempts);
    run.count("ota.resumed", outcome.resumed ? 1 : 0);
    run.count("ota.bytes_retransmitted", outcome.bytes_retransmitted);
    if (outcome.build_swapped) ++moved;
    check.expect(outcome.result == eilid::UpdateResult::kApplied &&
                     outcome.build_swapped,
                 "update-applied",
                 outcome.device_id + " " +
                     std::string(eilid::update_result_name(outcome.result)));
  };

  const auto ota_t0 = steady::now();
  std::vector<UpdateOutcome> bulk_outcomes;
  {
    Scope span(tracer, Layer::kOta, "UpdateCampaign::roll_out");
    bulk_outcomes = campaign.roll_out(bulk, run.pool);
    span.set_work(bulk.size());
  }
  const double bulk_s = seconds_since(ota_t0);
  for (const UpdateOutcome& outcome : bulk_outcomes) judge_update(outcome);

  eilid::RolloutPlan plan;
  {
    std::vector<std::string> ids;
    for (DeviceSession* dev : waves) ids.push_back(dev->id());
    const auto canary = ids.begin() + 2;
    const auto half = canary + (ids.end() - canary) / 2;
    plan.waves = {{.name = "canary", .device_ids = {ids.begin(), canary}},
                  {.name = "wave-1", .device_ids = {canary, half}},
                  {.name = "wave-2", .device_ids = {half, ids.end()}}};
  }
  plan.probe = [&tracer, inner = eilid::apps::wave_workload(probe)](
                   const std::vector<DeviceSession*>& wave,
                   eilid::common::ThreadPool* pool) {
    Scope span(tracer, Layer::kSim, "apps::wave_workload");
    inner(wave, pool);
  };
  eilid::CampaignScheduler scheduler = fleet.plan_rollout(campaign, plan);
  const auto plan_t0 = steady::now();
  eilid::RolloutReport report;
  {
    Scope span(tracer, Layer::kOta, "CampaignScheduler::run");
    report = scheduler.run(run.pool);
    span.set_work(waves.size());
  }
  const double plan_s = seconds_since(plan_t0);
  check.expect(!report.halted && report.waves_applied == plan.waves.size(),
               "rollout-completed", report.halt_reason);
  uint64_t verdicts = 0;
  for (const eilid::WaveOutcome& wave : report.waves) {
    for (const UpdateOutcome& outcome : wave.updates) judge_update(outcome);
    for (const auto& verdict : wave.gate) {
      run.digest.add(verdict);
      ++verdicts;
      check.expect(verdict.ok(), "gate-verdict-ok", verdict.device_id);
    }
  }
  run.ota_rate.push_back(static_cast<double>(moved) / (bulk_s + plan_s));
  run.count("ota.moved", moved);

  // --- Healing: the diverged sprinkle convicts, the offline one goes
  // stale, comes back, and both end up healed onto the target. ---
  for (DeviceSession* dev : offline) dev->set_online(false);
  // No jitter: every device beats exactly once per period, so the first
  // pass sees each diverged device's conviction as its last verdict (the
  // monitor assesses only a pass's last verdict; a second, empty report
  // in the same pass would clear the conviction).
  eilid::HealthMonitor health(
      fleet, {.heartbeat = {.period = 100, .jitter = 0},
              .policy = {.staleness_threshold = 250}});
  health.stage_remediation(fleet.stage_update(target));

  std::set<std::string> want_convicted, want_stale;
  for (DeviceSession* dev : diverged) want_convicted.insert(dev->id());
  for (DeviceSession* dev : offline) want_stale.insert(dev->id());
  if (run.cfg.misstate && !bulk.empty()) {
    want_convicted.insert(bulk.front()->id());
  }

  auto pass = [&](eilid::Tick deadline) {
    Scope span(tracer, Layer::kHeal, "HealthMonitor::run_until");
    HealthReport r = health.run_until(deadline, run.pool);
    span.set_work(r.remediations.size());
    for (const auto& beat : r.heartbeats.beats) {
      run.count("heartbeat.verdicts", beat.verdicts.size());
      for (const auto& verdict : beat.verdicts) {
        ++verdicts;
        run.digest.add(verdict);
        if (want_convicted.count(verdict.device_id) == 0) {
          check.expect(verdict.ok(), "heartbeat-verdict-ok", verdict.device_id);
        }
      }
      run.count("heartbeat.misses", beat.missed.size());
    }
    for (const auto& entry : r.newly_quarantined) {
      run.digest.add(entry.device_id);
      run.digest.add(static_cast<uint64_t>(entry.reason));
    }
    for (const auto& heal : r.remediations) {
      run.digest.add(heal.device_id);
      run.digest.add(heal.update);
      run.digest.add(heal.verdict);
      run.digest.add(heal.healed ? 1 : 0);
    }
    run.count("health.quarantined", r.newly_quarantined.size());
    run.count("health.remediations", r.remediations.size());
    return r;
  };
  const eilid::Tick t0 = fleet.clock().now();
  const auto heal_t0 = steady::now();
  const HealthReport first = pass(t0 + 150);
  check.expect(ids_of(first.newly_quarantined) == want_convicted,
               "quarantine-set",
               describe(ids_of(first.newly_quarantined), want_convicted));
  for (const auto& heal : first.remediations) {
    check.expect(heal.healed, "convicted-healed", heal.device_id);
  }
  check.expect(first.quarantined_after == 0, "quarantine-drained",
               std::to_string(first.quarantined_after) + " after first pass");

  const HealthReport stale = pass(t0 + 400);
  check.expect(ids_of(stale.newly_quarantined) == want_stale, "stale-set",
               describe(ids_of(stale.newly_quarantined), want_stale));
  for (const auto& heal : stale.remediations) {
    check.expect(!heal.reachable && !heal.healed, "offline-untouched",
                 heal.device_id);
  }
  for (DeviceSession* dev : offline) dev->set_online(true);
  const HealthReport back = pass(t0 + 550);
  std::set<std::string> healed;
  for (const auto& heal : back.remediations) {
    if (heal.healed) healed.insert(heal.device_id);
  }
  check.expect(healed == want_stale, "offline-healed",
               describe(healed, want_stale));
  check.expect(back.quarantined_after == 0, "quarantine-empty",
               std::to_string(back.quarantined_after) + " left");
  run.heal_s.push_back(seconds_since(heal_t0));

  for (DeviceSession* dev : cohort) {
    check.expect(dev->shared_build() == target, "final-build", dev->id());
  }
  return verdicts;
}

}  // namespace perfbench
