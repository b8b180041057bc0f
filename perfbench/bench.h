// Shared machinery of the repo benchmark: run configuration, the
// expectation checker, the outcome digest, deterministic work counts,
// and the two fleet phases more than one workload runs (boot-and-judge,
// and the release cycle: lossy bulk rollout + gated waves + healing).
#ifndef EILID_PERFBENCH_BENCH_H
#define EILID_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/eilid/fleet.h"
#include "trace.h"

namespace perfbench {

using eilid::DeviceSession;
using eilid::EnforcementPolicy;
using eilid::Fleet;
using BuildPtr = std::shared_ptr<const eilid::core::BuildResult>;
using steady = std::chrono::steady_clock;

double seconds_since(steady::time_point start);

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool traced = false;
  // Small fleets and few rounds: the self-check of the checks.
  bool tiny = false;
  // Deliberately mis-state one expectation (a benign device is put in
  // the set expected to be convicted or quarantined); the run must then
  // fail and name the check.
  bool misstate = false;
  std::string trace_out;  // where the traced run writes its spans
};

// Counts every expected outcome as one attempted operation; a mismatch
// is a failed operation. The first few failures are kept verbatim.
class Checker {
 public:
  bool expect(bool ok, const char* check, const std::string& detail);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// FNV-1a over the canonical text of a workload's outcome stream.
// Outside the digest window (`on` false) it ignores its input.
class Digest {
 public:
  bool on = true;

  void add(std::string_view text);
  void add(uint64_t value);
  void add(const eilid::VerifierService::AttestResult& verdict);
  void add(const eilid::UpdateOutcome& outcome);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Work counters read from public accessors of one device.
struct DeviceCounters {
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t blocks = 0;
  uint64_t decode_misses = 0;
  uint64_t edges_logged = 0;

  static DeviceCounters of(DeviceSession& session);
  DeviceCounters& operator+=(const DeviceCounters& other);
  DeviceCounters operator-(const DeviceCounters& other) const;
};

// Everything one workload run measures.
struct Run {
  explicit Run(Config config);

  Config cfg;
  Tracer tracer;
  eilid::common::ThreadPool pool;
  Checker check;
  Digest digest;
  // Deterministic work counts over the workload's digest window (the
  // same inputs give the same counts, bit for bit).
  std::map<std::string, uint64_t> counts;
  // Both no-ops outside the digest window (digest.on false).
  void count(const std::string& name, uint64_t n) {
    if (digest.on) counts[name] += n;
  }
  void count(const DeviceCounters& c);

  // End-to-end samples (host time unless named otherwise).
  std::vector<double> setup_s;
  std::vector<double> round_ms;           // every round
  std::vector<double> traced_round_ms;    // traced run: active rounds
  std::vector<double> untraced_round_ms;  // traced run: inactive rounds
  // Records one round's host time and verdict count.
  void end_round(double ms, uint64_t verdicts);
  // verdicts_per_s is taken over blocks of this many rounds (one
  // heartbeat period), so a block's verdict count does not depend on
  // how the seeded jitter spreads the beats over single rounds.
  static constexpr size_t kRateBlock = 20;
  double block_ms = 0;
  uint64_t block_verdicts = 0;
  size_t block_rounds = 0;
  // The block rates; a run too short for one whole block gives the
  // rate over its rounds so far.
  std::vector<double> verdict_rates() const;
  std::vector<double> boot_rate;          // devices booted+judged per s
  std::vector<double> sim_mips;           // per sample of sim work
  std::vector<double> verdict_rate;       // verdicts per s, per block
  std::vector<double> ota_rate;           // devices moved per s of
                                          // rollout calls, per cycle
  std::vector<double> heal_s;             // per release cycle
  // Simulated cycles per app under kCasu and kEilidHw, for
  // eilid_overhead_pct (mean device of each policy).
  struct OverheadCycles {
    double casu = 0, eilid = 0;
    size_t casu_devices = 0, eilid_devices = 0;
  };
  std::map<std::string, OverheadCycles> overhead_cycles;
  // Records one device's simulated cycles for `app`; other policies
  // than kCasu and kEilidHw are ignored.
  void add_overhead_sample(const std::string& app, EnforcementPolicy policy,
                           uint64_t cycles);
  double resident_bytes_per_device = 0;
  double cfa_log_bytes_per_device = 0;
};

std::string device_name(const char* prefix, size_t index);
int8_t policy_code(EnforcementPolicy policy);

// A release of `source`: `generation` dead functions inserted at the
// start of the code, so every later address shifts and the OTA package
// carries the whole image.
std::string release_source(const std::string& source, int generation);

// Diverge `device` with a rogue but validly MAC'd patch past the code:
// it keeps running, but its image no longer matches its recorded build
// and the update marker it logs has no sanctioned CFG, so the next
// drain convicts it.
void apply_rogue_patch(Run& run, Fleet& fleet, DeviceSession& device);

// An AppSpec for firmware that needs no stimulus and no host check.
eilid::apps::AppSpec plain_app(std::string name, std::string source,
                               uint64_t cycle_budget);

// Boot `items` through apps::run_workload_all (or, in a traced round,
// one span per device), then judge `sweep` with one pooled barrier
// VerifierService::verify_all. Returns the verdicts; outcomes are
// written to `outcomes`. Adds the boot's sim sample to the run.
std::vector<eilid::VerifierService::AttestResult> boot_and_judge(
    Run& run, Fleet& fleet,
    const std::vector<eilid::apps::FleetWorkload>& items,
    const std::vector<DeviceSession*>& sweep,
    std::vector<eilid::apps::WorkloadOutcome>& outcomes);

// One release cycle over `cohort` (kCfaBaseline devices of one app):
// a seeded sprinkle is diverged by a rogue, validly MAC'd patch and
// another goes offline; the rest take `target` -- half through a bulk
// UpdateCampaign::roll_out over a lossy transport, half through a gated
// CampaignScheduler wave plan probed with `probe` -- and a HealthMonitor
// with `target` as its golden remediation heals both sprinkles. Every
// cohort device must end on `target`. Returns the verdicts produced
// (wave gates and heartbeats).
uint64_t release_cycle(Run& run, Fleet& fleet,
                       const std::vector<DeviceSession*>& cohort,
                       const BuildPtr& target,
                       const eilid::apps::AppSpec& probe, uint64_t cycle_seed);

// Mean private memory per device (all of `devices`) and mean CFA log
// arena per kCfaBaseline device, into the run.
void record_memory(Run& run, const std::vector<DeviceSession*>& devices);

// Workload entry points.
void run_boot_table4(Run& run);
void run_heartbeat_10k(Run& run);
void run_ota_heal(Run& run);

}  // namespace perfbench

#endif  // EILID_PERFBENCH_BENCH_H
