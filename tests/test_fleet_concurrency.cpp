// The parallel fleet engine under contention (run these under
// ThreadSanitizer -- the CI tsan job does): single-flight build cache,
// the one-mutex device registry, concurrent attestation with
// per-device locking, and the determinism contract of the pooled
// verify_all() sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "eilid/fleet.h"
#include "eilid/health.h"
#include "eilid/incremental.h"

namespace eilid {
namespace {

const char* kTinyApp = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    call #emit
    call #emit
halt:
    jmp halt
emit:
    mov.b #'x', &UART_TX
    ret
.vector 15, main
.end
)";

// ------------------------------------------------------------- pool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  common::ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstError) {
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](size_t i) {
                                   if (i == 7) {
                                     throw FleetError("boom");
                                   }
                                 }),
               FleetError);
  // The pool survives a failed sweep.
  std::atomic<size_t> ran{0};
  pool.parallel_for(64, [&](size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 64u);
}

// The serial pool has no workers: every index runs once, in index
// order, on the calling thread.
TEST(ThreadPoolTest, SerialPoolRunsInIndexOrderOnCaller) {
  common::ThreadPool& serial = common::ThreadPool::serial();
  EXPECT_EQ(serial.worker_count(), 0u);
  EXPECT_EQ(&serial, &common::ThreadPool::serial());
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  serial.parallel_for(1000, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 1000u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// The serial pool stops at the first exception and rethrows it: no
// later index runs, and the pool stays usable.
TEST(ThreadPoolTest, SerialPoolStopsAtFirstError) {
  common::ThreadPool& serial = common::ThreadPool::serial();
  std::vector<size_t> ran;
  EXPECT_THROW(serial.parallel_for(64,
                                   [&](size_t i) {
                                     if (i == 7) throw FleetError("boom");
                                     ran.push_back(i);
                                   }),
               FleetError);
  ASSERT_EQ(ran.size(), 7u);
  for (size_t i = 0; i < ran.size(); ++i) EXPECT_EQ(ran[i], i);
  size_t after = 0;
  serial.parallel_for(64, [&](size_t) { ++after; });
  EXPECT_EQ(after, 64u);
}

// One process-wide serial pool, many concurrent callers: each sweep
// runs on its own thread, in its own index order, sharing nothing.
TEST(ThreadPoolTest, SerialPoolServesConcurrentCallers) {
  constexpr size_t kThreads = 8;
  constexpr size_t kN = 500;
  std::vector<std::vector<size_t>> orders(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&orders, t] {
      const std::thread::id self = std::this_thread::get_id();
      common::ThreadPool::serial().parallel_for(kN, [&](size_t i) {
        if (std::this_thread::get_id() == self) orders[t].push_back(i);
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(orders[t].size(), kN) << t;
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ(orders[t][i], i) << t;
  }
}

// ------------------------------------------------- single-flight cache

// Many threads race provision() of the same source: exactly one
// pipeline run, every session flashed from the one shared result.
TEST(FleetConcurrency, ConcurrentProvisionIsSingleFlight) {
  Fleet fleet;
  constexpr size_t kDevices = 16;
  common::ThreadPool pool(8);
  std::vector<DeviceSession*> devices(kDevices);
  pool.parallel_for(kDevices, [&](size_t i) {
    devices[i] =
        &fleet.provision("node-" + std::to_string(i), kTinyApp, "tiny",
                         EnforcementPolicy::kEilidHw);
  });

  EXPECT_EQ(fleet.pipeline_runs(), 1u);
  EXPECT_EQ(fleet.build_cache_hits(), kDevices - 1);
  EXPECT_EQ(fleet.build_cache_size(), 1u);
  EXPECT_EQ(fleet.size(), kDevices);
  EXPECT_EQ(fleet.sessions().size(), kDevices);
  for (size_t i = 0; i < kDevices; ++i) {
    EXPECT_EQ(devices[i]->shared_build().get(),
              devices[0]->shared_build().get());
    EXPECT_EQ(fleet.find("node-" + std::to_string(i)), devices[i]);
  }
}

// A racing duplicate id is rejected exactly once and leaves the one
// winner deployed.
TEST(FleetConcurrency, ConcurrentDuplicateDeployOneWinner) {
  Fleet fleet;
  auto build = fleet.build(kTinyApp, "tiny", {.eilid = false});
  std::atomic<size_t> rejected{0};
  common::ThreadPool pool(8);
  pool.parallel_for(8, [&](size_t) {
    try {
      fleet.deploy("contested", build, EnforcementPolicy::kCfaBaseline);
    } catch (const FleetError&) {
      ++rejected;
    }
  });
  EXPECT_EQ(rejected.load(), 7u);
  EXPECT_EQ(fleet.size(), 1u);
  HeartbeatScheduler scheduler(fleet);
  scheduler.run_until(0);
  EXPECT_EQ(scheduler.records().size(), 1u);
}

// --------------------------------------------------------- attestation

// Disjoint devices attest concurrently; every verdict is clean and
// per-device sequence tracking never cross-talks.
TEST(FleetConcurrency, ConcurrentAttestDisjointDevices) {
  Fleet fleet;
  constexpr size_t kDevices = 12;
  std::vector<DeviceSession*> devices;
  for (size_t i = 0; i < kDevices; ++i) {
    DeviceSession& dev =
        fleet.provision("cfa-" + std::to_string(i), kTinyApp, "tiny",
                        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
    devices.push_back(&dev);
  }

  common::ThreadPool pool(8);
  constexpr int kRounds = 4;
  std::vector<VerifierService::AttestResult> verdicts(kDevices);
  for (int round = 0; round < kRounds; ++round) {
    pool.parallel_for(kDevices, [&](size_t i) {
      verdicts[i] = fleet.verifier().attest(*devices[i]);
    });
    for (size_t i = 0; i < kDevices; ++i) {
      EXPECT_TRUE(verdicts[i].ok()) << verdicts[i].device_id;
      EXPECT_EQ(verdicts[i].seq, static_cast<uint32_t>(round))
          << verdicts[i].device_id;
    }
  }
}

// Simulation and attestation race on the same devices: per-device
// locking keeps both sides coherent (this is the TSan-interesting
// case; verdict contents depend on interleaving, so only invariants
// are checked).
TEST(FleetConcurrency, WorkloadsRaceAttestationSweeps) {
  const auto& app = apps::app_by_name("temp_sensor");
  Fleet fleet;
  constexpr size_t kDevices = 8;
  std::vector<apps::FleetWorkload> work;
  for (size_t i = 0; i < kDevices; ++i) {
    DeviceSession& dev = fleet.provision(
        "racer-" + std::to_string(i), app.source, app.name,
        EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 65536}});
    work.push_back({&dev, &app, 0});
  }

  common::ThreadPool workers(4);
  common::ThreadPool sweeper(2);
  std::atomic<bool> done{false};
  std::atomic<size_t> sweeps{0};
  std::thread attestor([&] {
    while (!done.load()) {
      for (const auto& verdict : fleet.verifier().verify_all(sweeper)) {
        EXPECT_TRUE(verdict.attested) << verdict.device_id;
        EXPECT_TRUE(verdict.mac_ok) << verdict.device_id;
        EXPECT_TRUE(verdict.seq_ok) << verdict.device_id;
      }
      ++sweeps;
    }
  });
  auto outcomes = apps::run_workload_all(work, workers);
  // Under heavy parallel test load the workloads can win the race
  // outright; hold the attestor open until it has finished at least
  // one full sweep so the >= 1 assertion below is load-independent.
  while (sweeps.load() == 0) std::this_thread::yield();
  done.store(true);
  attestor.join();

  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.reached_halt);
    EXPECT_TRUE(outcome.check_failure.empty()) << outcome.check_failure;
  }
  EXPECT_GE(sweeps.load(), 1u);
}

// ------------------------------------------------------- verify_all()

// The pooled sweep is a drop-in for the serial one: identical verdict
// tuples in identical enrollment-id order, for any worker count.
TEST(FleetConcurrency, VerifyAllMatchesSerialSweep) {
  const auto& app = apps::app_by_name("light_sensor");

  auto build_fleet = [&](Fleet& fleet) {
    std::vector<DeviceSession*> devices;
    for (int i = 0; i < 10; ++i) {
      DeviceSession& dev = fleet.provision(
          "dev-" + std::to_string(i), app.source, app.name,
          EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 65536}});
      apps::run_workload(dev, app);
      devices.push_back(&dev);
    }
    return devices;
  };

  Fleet serial_fleet;
  Fleet pooled_fleet;
  build_fleet(serial_fleet);
  build_fleet(pooled_fleet);

  common::ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    auto serial = serial_fleet.verifier().verify_all();
    auto pooled = pooled_fleet.verifier().verify_all(pool);
    ASSERT_EQ(serial.size(), pooled.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].device_id, pooled[i].device_id) << i;
      EXPECT_EQ(serial[i].attested, pooled[i].attested) << i;
      EXPECT_EQ(serial[i].seq, pooled[i].seq) << i;
      EXPECT_EQ(serial[i].cycle, pooled[i].cycle) << i;
      EXPECT_EQ(serial[i].mac_ok, pooled[i].mac_ok) << i;
      EXPECT_EQ(serial[i].seq_ok, pooled[i].seq_ok) << i;
      EXPECT_EQ(serial[i].path_ok, pooled[i].path_ok) << i;
      EXPECT_EQ(serial[i].edges, pooled[i].edges) << i;
      EXPECT_EQ(serial[i].dropped, pooled[i].dropped) << i;
      EXPECT_TRUE(pooled[i].ok()) << pooled[i].device_id;
    }
    // Enrollment-id order, regardless of worker interleaving.
    for (size_t i = 1; i < pooled.size(); ++i) {
      EXPECT_LT(pooled[i - 1].device_id, pooled[i].device_id);
    }
  }
}

// The subset sweep (a rollout wave gate) keeps the whole-fleet sweep's
// contract: enrollment-id ordering regardless of input order, pooled
// results identical to serial, and coverage of exactly the subset --
// devices outside it are not drained.
TEST(FleetConcurrency, SubsetSweepMatchesSerialAndKeepsOrder) {
  const auto& app = apps::app_by_name("light_sensor");

  auto build_fleet = [&](Fleet& fleet) {
    for (int i = 0; i < 10; ++i) {
      DeviceSession& dev = fleet.provision(
          "dev-" + std::to_string(i), app.source, app.name,
          EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 65536}});
      apps::run_workload(dev, app);
    }
  };
  Fleet serial_fleet;
  Fleet pooled_fleet;
  build_fleet(serial_fleet);
  build_fleet(pooled_fleet);

  // Every other device, deliberately in reverse deployment order.
  auto pick = [](Fleet& fleet) {
    std::vector<DeviceSession*> subset;
    for (int i = 8; i >= 0; i -= 2) {
      subset.push_back(&fleet.at("dev-" + std::to_string(i)));
    }
    return subset;
  };

  common::ThreadPool pool(4);
  auto serial = serial_fleet.verifier().verify_all(pick(serial_fleet));
  auto pooled = pooled_fleet.verifier().verify_all(pick(pooled_fleet), pool);
  ASSERT_EQ(serial.size(), 5u);
  ASSERT_EQ(pooled.size(), 5u);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == pooled[i]) << serial[i].device_id;
    EXPECT_TRUE(pooled[i].ok()) << pooled[i].device_id;
    EXPECT_EQ(pooled[i].device_id, "dev-" + std::to_string(2 * i));
  }
  for (size_t i = 1; i < pooled.size(); ++i) {
    EXPECT_LT(pooled[i - 1].device_id, pooled[i].device_id);
  }

  // Unswept devices kept their evidence: the next full sweep still
  // sees every device at its own expected sequence number.
  for (const auto& verdict : pooled_fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
    const bool swept_before = (verdict.device_id[4] - '0') % 2 == 0;
    EXPECT_EQ(verdict.seq, swept_before ? 1u : 0u) << verdict.device_id;
  }

  // Malformed subsets are typed errors, not UB.
  DeviceSession& dup = serial_fleet.at("dev-0");
  EXPECT_THROW(serial_fleet.verifier().verify_all(
                   std::vector<DeviceSession*>{&dup, &dup}),
               FleetError);
  EXPECT_THROW(serial_fleet.verifier().verify_all(
                   std::vector<DeviceSession*>{nullptr}),
               FleetError);
}

// A rollout wave gate racing a concurrent whole-fleet sweep (this is
// the TSan-interesting case for the subset overload): both drain the
// same devices' logs and advance the same replay state, so per-device
// locking must serialize them per device while they interleave across
// devices. Devices are parked, so every interleaving yields clean
// verdicts.
TEST(FleetConcurrency, WaveGateRacesFullSweep) {
  Fleet fleet;
  constexpr size_t kDevices = 12;
  for (size_t i = 0; i < kDevices; ++i) {
    DeviceSession& dev =
        fleet.provision("gate-" + std::to_string(i), kTinyApp, "tiny",
                        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
  }
  // The wave: the first half of the fleet.
  std::vector<DeviceSession*> wave;
  for (size_t i = 0; i < kDevices / 2; ++i) {
    wave.push_back(&fleet.at("gate-" + std::to_string(i)));
  }

  common::ThreadPool sweep_pool(2);
  common::ThreadPool gate_pool(2);
  std::atomic<bool> done{false};
  std::atomic<size_t> sweeps{0};
  std::thread attestor([&] {
    while (!done.load()) {
      for (const auto& verdict : fleet.verifier().verify_all(sweep_pool)) {
        EXPECT_TRUE(verdict.ok()) << verdict.device_id;
      }
      ++sweeps;
    }
  });
  for (int round = 0; round < 50; ++round) {
    auto gate = fleet.verifier().verify_all(wave, gate_pool);
    ASSERT_EQ(gate.size(), wave.size());
    for (size_t i = 0; i < gate.size(); ++i) {
      EXPECT_TRUE(gate[i].ok()) << gate[i].device_id;
      if (i > 0) EXPECT_LT(gate[i - 1].device_id, gate[i].device_id);
    }
  }
  // The gates must genuinely have raced at least one full sweep.
  while (sweeps.load() == 0) std::this_thread::yield();
  done.store(true);
  attestor.join();
  EXPECT_GE(sweeps.load(), 1u);
}

// --------------------------------------------------- update campaigns

const char* kTinyAppV2 = R"(.equ UART_TX, 0x0130
.org 0xE000
main:
    mov #0x1000, r1
    call #emit
    call #emit
    call #emit
halt:
    jmp halt
emit:
    mov.b #'y', &UART_TX
    ret
.vector 15, main
.end
)";

// The acceptance-scale campaign: 64 devices complete a staged update
// through Fleet::stage_update(); the pooled rollout's outcomes are
// identical to the serial rollout's, every updated device attests ok()
// against the new CFG, runs predecoded, and refuses a replayed
// old-version package.
TEST(FleetConcurrency, PooledCampaignMatchesSerialRollout) {
  constexpr size_t kDevices = 64;

  auto build_fleet = [&](Fleet& fleet) {
    for (size_t i = 0; i < kDevices; ++i) {
      DeviceSession& dev =
          fleet.provision("node-" + std::to_string(i), kTinyApp, "tiny",
                          EnforcementPolicy::kCfaBaseline);
      dev.run_to_symbol("halt", 100000);
    }
  };
  Fleet serial_fleet;
  Fleet pooled_fleet;
  build_fleet(serial_fleet);
  build_fleet(pooled_fleet);

  UpdateCampaign serial_campaign =
      serial_fleet.stage_update(kTinyAppV2, "tiny", {.eilid = false});
  UpdateCampaign pooled_campaign =
      pooled_fleet.stage_update(kTinyAppV2, "tiny", {.eilid = false});
  // A genuine pre-rollout package, replayed per device after the fact.
  casu::UpdatePackage replayed =
      pooled_campaign.package_for(pooled_fleet.at("node-7"));

  common::ThreadPool pool(8);
  auto serial = serial_campaign.roll_out();
  auto pooled = pooled_campaign.roll_out(pool);

  ASSERT_EQ(serial.size(), kDevices);
  ASSERT_EQ(pooled.size(), kDevices);
  for (size_t i = 0; i < kDevices; ++i) {
    EXPECT_TRUE(serial[i] == pooled[i]) << serial[i].device_id;
    EXPECT_EQ(pooled[i].result, UpdateResult::kApplied) << i;
  }
  // Target built once per fleet; every session swapped onto it.
  EXPECT_EQ(pooled_fleet.pipeline_runs(), 2u);
  for (auto* dev : pooled_fleet.sessions()) {
    EXPECT_EQ(dev->shared_build().get(),
              pooled_campaign.target_build().get());
    dev->machine().uart().clear_tx();
    dev->run_to_symbol("halt", 100000);
    EXPECT_EQ(dev->machine().uart().tx_text(), "yyy") << dev->id();
    EXPECT_TRUE(dev->machine().cpu().decode_cache_valid()) << dev->id();
  }
  for (const auto& verdict : pooled_fleet.verifier().verify_all(pool)) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
  }
  EXPECT_EQ(pooled_fleet.at("node-7").apply_update(replayed),
            casu::UpdateStatus::kRollback);
}

// A pooled campaign racing a continuous attestation sweep: per-device
// locking keeps every verdict clean -- the CFG epoch is staged under
// the same session lock that logs the marker, so no sweep can drain an
// unsanctioned marker (this is the TSan-interesting case).
TEST(FleetConcurrency, CampaignRacesAttestationSweeps) {
  Fleet fleet;
  constexpr size_t kDevices = 12;
  for (size_t i = 0; i < kDevices; ++i) {
    DeviceSession& dev =
        fleet.provision("racer-" + std::to_string(i), kTinyApp, "tiny",
                        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
  }

  UpdateCampaign campaign =
      fleet.stage_update(kTinyAppV2, "tiny", {.eilid = false});
  common::ThreadPool rollout_pool(4);
  common::ThreadPool sweep_pool(2);
  std::atomic<bool> done{false};
  std::atomic<size_t> sweeps{0};
  std::thread attestor([&] {
    while (!done.load()) {
      for (const auto& verdict : fleet.verifier().verify_all(sweep_pool)) {
        EXPECT_TRUE(verdict.attested) << verdict.device_id;
        EXPECT_TRUE(verdict.mac_ok) << verdict.device_id;
        EXPECT_TRUE(verdict.seq_ok) << verdict.device_id;
        EXPECT_TRUE(verdict.path_ok) << verdict.device_id;
      }
      ++sweeps;
    }
  });
  auto outcomes = campaign.roll_out(rollout_pool);
  // As above: don't let a fast rollout beat the attestor to zero
  // sweeps under load.
  while (sweeps.load() == 0) std::this_thread::yield();
  done.store(true);
  attestor.join();

  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.result, UpdateResult::kApplied) << outcome.device_id;
    EXPECT_TRUE(outcome.cfg_staged) << outcome.device_id;
  }
  EXPECT_GE(sweeps.load(), 1u);
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
  }
}

// Heartbeat sweeps race a pooled campaign rollout (the TSan-interesting
// case for the health layer): the scheduler's beats are subset sweeps
// riding the same per-device locks as the updates, and the campaign
// stages each device's CFG epoch under the very lock that logs the
// marker -- so no beat, whatever the interleaving, can ever drain an
// unsanctioned marker. Every heartbeat verdict during the race must
// therefore be clean, and the freshness records stay coherent.
TEST(FleetConcurrency, HeartbeatSweepsRaceRollout) {
  Fleet fleet;
  constexpr size_t kDevices = 12;
  for (size_t i = 0; i < kDevices; ++i) {
    DeviceSession& dev =
        fleet.provision("beat-" + std::to_string(i), kTinyApp, "tiny",
                        EnforcementPolicy::kCfaBaseline);
    dev.run_to_symbol("halt", 100000);
  }
  UpdateCampaign campaign =
      fleet.stage_update(kTinyAppV2, "tiny", {.eilid = false});

  HeartbeatScheduler heartbeat(fleet,
                               {.period = 5, .jitter = 3, .jitter_seed = 11});
  common::ThreadPool beat_pool(2);
  common::ThreadPool rollout_pool(4);
  std::atomic<bool> done{false};
  std::atomic<size_t> beats{0};
  std::thread driver([&] {
    Tick deadline = 0;
    while (!done.load()) {
      deadline += 100;
      const HeartbeatReport report = heartbeat.run_until(deadline, beat_pool);
      for (const auto& beat : report.beats) {
        for (const auto& verdict : beat.verdicts) {
          EXPECT_TRUE(verdict.attested) << verdict.device_id;
          EXPECT_TRUE(verdict.mac_ok) << verdict.device_id;
          EXPECT_TRUE(verdict.seq_ok) << verdict.device_id;
          EXPECT_TRUE(verdict.path_ok) << verdict.device_id;
        }
      }
      beats += report.beats.size();
    }
  });
  auto outcomes = campaign.roll_out(rollout_pool);
  // Don't let a fast rollout beat the driver to zero beats under load.
  while (beats.load() == 0) std::this_thread::yield();
  done.store(true);
  driver.join();

  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.result, UpdateResult::kApplied) << outcome.device_id;
    EXPECT_TRUE(outcome.cfg_staged) << outcome.device_id;
  }
  EXPECT_GE(beats.load(), 1u);
  for (const FreshnessRecord& record : heartbeat.records()) {
    EXPECT_FALSE(record.convicted) << record.device_id;
    EXPECT_TRUE(record.ever_ok) << record.device_id;
    EXPECT_EQ(record.misses, 0u) << record.device_id;
  }
  for (const auto& verdict : fleet.verifier().verify_all()) {
    EXPECT_TRUE(verdict.ok()) << verdict.device_id;
  }
}

// HealthMonitor keeps each device's quarantine entry and heal count in
// the heartbeat scheduler's slot for it, and the windowed verifier
// folds its summaries into its own books. A reader thread polls all
// three views while pooled passes quarantine, remediate, release and
// re-adopt devices and pooled windows fold slices.
TEST(FleetConcurrency, ReadersRaceRemediationAndWindowRounds) {
  Fleet fleet;
  constexpr size_t kDevices = 8;
  auto id = [](size_t i) { return "heal-" + std::to_string(i); };
  auto deploy = [&](size_t i) {
    fleet.provision(id(i), kTinyApp, "tiny", EnforcementPolicy::kCfaBaseline)
        .run_to_symbol("halt", 100000);
  };
  for (size_t i = 0; i < kDevices; ++i) deploy(i);
  HealthMonitor health(fleet, {.heartbeat = {.period = 5},
                               .policy = {.staleness_threshold = 8}});
  health.stage_remediation(fleet.stage_update(fleet.at(id(0)).shared_build()));
  IncrementalVerifier windowed(fleet, {.period = 5, .max_devices_per_tick = 3});

  auto by_id = [](const auto& a, const auto& b) {
    return a.device_id < b.device_id;
  };
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::thread reader([&] {
    while (!done.load()) {
      const std::vector<QuarantineEntry> quarantined = health.quarantined();
      const std::vector<FreshnessRecord> records = health.records();
      const std::vector<AttestSummary> summaries = windowed.summaries();
      EXPECT_LE(quarantined.size(), kDevices);
      EXPECT_LE(records.size(), kDevices);
      EXPECT_TRUE(std::is_sorted(quarantined.begin(), quarantined.end(), by_id));
      EXPECT_TRUE(std::is_sorted(records.begin(), records.end(), by_id));
      EXPECT_TRUE(std::is_sorted(summaries.begin(), summaries.end(), by_id));
      ++reads;
    }
  });

  // Every other device is offline for two passes in four: it goes
  // stale, fails an unreachable attempt, then comes back and heals.
  common::ThreadPool pool(3);
  size_t quarantines = 0, healed = 0;
  for (size_t pass = 0; pass < 12 || reads.load() == 0; ++pass) {
    if (pass == 6) {  // re-adopted under the readers' eyes
      fleet.decommission(id(7));
      deploy(7);
    }
    for (size_t i = 1; i < kDevices; i += 2) {
      fleet.at(id(i)).set_online(pass % 4 < 2);
    }
    const HealthReport report =
        health.run_until(fleet.clock().now() + 10, pool);
    quarantines += report.newly_quarantined.size();
    for (const RemediationOutcome& outcome : report.remediations) {
      healed += outcome.healed ? 1 : 0;
    }
    windowed.run_until(fleet.clock().now() + 10, pool);
  }
  done.store(true);
  reader.join();

  EXPECT_GT(quarantines, 0u);
  EXPECT_GT(healed, 0u);
  EXPECT_EQ(health.records().size(), kDevices);
  for (const AttestSummary& summary : windowed.summaries()) {
    EXPECT_FALSE(summary.convicted()) << summary.device_id;
  }
}

// Pooled deploys race heartbeat and windowed rounds on one fleet. Both
// schedulers read the registry's id-ordered CFA devices at the start of
// each run_until, so every kCfaBaseline device whose deploy returned
// before a round starts is watched by that round: it has a heartbeat
// record, and the unbounded window slices it.
TEST(FleetConcurrency, DeploysRaceHeartbeatAndWindowRounds) {
  Fleet fleet;
  auto build = fleet.build(kTinyApp, "tiny", {.eilid = false});
  std::vector<std::string> cfa_ids;
  for (size_t i = 0; i < 4; ++i) {
    cfa_ids.push_back("seed-" + std::to_string(i));
    fleet.deploy(cfa_ids.back(), build, EnforcementPolicy::kCfaBaseline);
  }
  HeartbeatScheduler heartbeat(fleet, {.period = 1});
  IncrementalVerifier windowed(
      fleet, {.period = 1, .max_devices_per_tick = 0,
              .max_bytes_per_slice = 0});

  constexpr size_t kDeploys = 48;
  std::mutex joined_mu;
  std::vector<std::string> joined = cfa_ids;  // deploys that returned
  std::atomic<bool> done{false};
  std::thread deployer([&] {
    common::ThreadPool deploy_pool(4);
    deploy_pool.parallel_for(kDeploys, [&](size_t i) {
      const std::string id = "new-" + std::to_string(i);
      // Every fourth device is kCasu: registered, but never watched.
      const bool cfa = i % 4 != 0;
      fleet.deploy(id, build,
                   cfa ? EnforcementPolicy::kCfaBaseline
                       : EnforcementPolicy::kCasu);
      if (cfa) {
        std::lock_guard<std::mutex> lock(joined_mu);
        joined.push_back(id);
      }
    });
    done.store(true);
  });

  common::ThreadPool pool(2);
  auto round = [&] {
    std::vector<std::string> expected;
    {
      std::lock_guard<std::mutex> lock(joined_mu);
      expected = joined;
    }
    std::sort(expected.begin(), expected.end());
    const Tick deadline = fleet.clock().now() + 1;
    const IncrementalVerifier::WindowReport window =
        windowed.run_until(deadline, pool);
    const HeartbeatReport beats = heartbeat.run_until(deadline, pool);

    ASSERT_EQ(window.rounds.size(), 1u);
    std::vector<std::string> sliced;
    for (const auto& slice : window.rounds[0].slices) {
      EXPECT_TRUE(slice.ok()) << slice.device_id;
      sliced.push_back(slice.device_id);
    }
    std::sort(sliced.begin(), sliced.end());  // rotation order -> id order
    std::vector<std::string> watched;
    for (const FreshnessRecord& record : heartbeat.records()) {
      watched.push_back(record.device_id);
    }
    for (const auto& beat : beats.beats) {
      for (const auto& verdict : beat.verdicts) {
        EXPECT_TRUE(verdict.ok()) << verdict.device_id;
      }
    }
    // Each id-ordered list must contain every expected id.
    EXPECT_TRUE(std::includes(sliced.begin(), sliced.end(),
                              expected.begin(), expected.end()));
    EXPECT_TRUE(std::includes(watched.begin(), watched.end(),
                              expected.begin(), expected.end()));
  };
  while (!done.load()) round();
  deployer.join();
  round();

  const size_t cfa_total = 4 + kDeploys - kDeploys / 4;
  EXPECT_EQ(fleet.size(), 4 + kDeploys);
  const std::vector<DeviceSession*> sessions = fleet.sessions();
  EXPECT_EQ(static_cast<size_t>(std::count_if(
                sessions.begin(), sessions.end(),
                [](DeviceSession* s) { return s->cfa_monitor() != nullptr; })),
            cfa_total);
  EXPECT_EQ(heartbeat.records().size(), cfa_total);
  EXPECT_EQ(windowed.summaries().size(), cfa_total);
}

}  // namespace
}  // namespace eilid
