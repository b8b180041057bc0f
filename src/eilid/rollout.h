// Staged-rollout orchestration over update campaigns: the first
// subsystem where attestation verdicts feed back into fleet control
// flow instead of just being reported. A RolloutPlan is an ordered
// list of waves -- explicit device sets or percentage cuts of the
// registry -- plus named A/B cohorts *held* on their current build,
// a per-plan FailureBudget, and an optional rate limit. The
// CampaignScheduler executes the plan wave by wave:
//
//   1. apply the campaign to the wave's devices (under the existing
//      per-device session locks; at most max_in_flight at once),
//   2. run the wave probe, if any (normally a workload driver, so the
//      gate judges evidence from the *new* firmware actually running),
//   3. run the attestation gate: a VerifierService subset sweep over
//      just that wave (devices still on the old build are not swept),
//   4. promote to the next wave only while the number of failed
//      devices stays within the budget; on a breach the scheduler
//      halts, later waves stay on their current build, and the report
//      carries per-wave outcomes plus the halt reason.
//
// A device fails its wave when its update outcome is not ok()
// (forged/tampered package, rollback, image mismatch, incompatible
// transition) or when its gate verdict convicts it (attested but not
// ok() -- e.g. a control-flow hijack the CFA log reveals). Held
// devices are never updated, never swept, and never counted.
//
// Two time-driven extensions ride the fleet's deterministic clock
// (eilid/clock.h):
//
//   - Soak windows (plan.soak_ticks > 0): after a wave applies and
//     passes an immediate post-apply sweep, the scheduler runs the
//     probe, advances fleet time by soak_ticks, and re-sweeps the wave
//     before promoting -- a compromise that only manifests once the
//     new firmware has actually run (the classic time-bomb canary) is
//     caught by the *second* sweep, and both sweeps' verdicts count
//     against the budget. Waves stamp applied/gated ticks either way.
//   - Automatic rollback on halt (plan.rollback_on_halt): when a wave
//     breaches its budget, every device the halted run already moved
//     to the target build is driven *back* to the exact build it ran
//     before its wave -- a genuine reverse campaign per distinct prior
//     build (core::diff_builds is symmetric; see eilid/update.h), with
//     fresh epoch markers and replay-CFG swaps back, so rolled-back
//     devices keep attesting clean. No operator action, no special
//     downgrade path.
//
//   eilid::RolloutPlan plan;
//   plan.holds = {{"ab-cohort", {"unit-f", "unit-g"}}};
//   plan.waves = {{.name = "canary", .device_ids = {"unit-a"}},
//                 {.name = "rest", .fraction = 1.0}};
//   plan.soak_ticks = 50;          // re-sweep 50 ticks after apply
//   plan.rollback_on_halt = true;  // a halt undoes the partial rollout
//   auto report = fleet.plan_rollout(v2, plan).run(pool);
//   if (report.halted) { /* canary burned; the fleet rolled back */ }
//
// Concurrency contract: run() applies updates, probes and gates over
// its pool (the fleet-wide pool contract in eilid/fleet.h) with the
// same per-device locking as UpdateCampaign::roll_out() and
// VerifierService::verify_all(). Wave membership is resolved up front
// from the plan and the registry snapshot, and the halt decision is a
// pure function of the per-wave verdicts, so the pool never changes
// the report.
#ifndef EILID_EILID_ROLLOUT_H
#define EILID_EILID_ROLLOUT_H

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "eilid/fleet.h"
#include "eilid/update.h"

namespace eilid {

// How many failed devices one wave may absorb before the plan halts:
// an absolute count and/or a fraction of the wave, whichever allows
// more. The default tolerates nothing.
struct FailureBudget {
  size_t max_count = 0;
  double max_fraction = 0.0;  // of the wave's size, floor()ed

  size_t allowance(size_t wave_size) const {
    const auto by_fraction =
        static_cast<size_t>(max_fraction * static_cast<double>(wave_size));
    return std::max(max_count, by_fraction);
  }
};

// One wave: either an explicit device set, or a fraction of the
// *eligible remainder* (registered devices not held and not claimed by
// an earlier wave, in deployment order; 1.0 takes everything left).
// Exactly one of the two must be set. Held devices named explicitly
// are skipped, not updated.
struct WaveSpec {
  std::string name;                     // "" -> "wave-<N>" in the report
  std::vector<std::string> device_ids;  // explicit membership ...
  double fraction = 0.0;                // ... or a cut of the remainder
};

// A named A/B cohort pinned to whatever build it currently runs. The
// scheduler must skip its devices: they join no wave, no gate sweeps
// them, and the report lists them so the hold is auditable.
struct HoldSpec {
  std::string name;
  std::vector<std::string> device_ids;
};

// Runs between a wave's apply and its attestation gate -- normally a
// workload driver (see apps::wave_workload) so freshly updated devices
// produce post-update evidence for the gate to judge. `pool` is the
// pool the scheduler runs on and is never null (the serial pool on a
// serial run). The probe must take each session's mutex() while
// driving it (apps::wave_workload does).
using WaveProbe =
    std::function<void(const std::vector<DeviceSession*>&,
                       common::ThreadPool*)>;

struct RolloutPlan {
  std::vector<WaveSpec> waves;
  FailureBudget budget;
  std::vector<HoldSpec> holds;
  // Max devices being updated at once within a wave (0 = no limit
  // beyond the pool's width). The serial pool is 1-in-flight anyway.
  size_t max_in_flight = 0;
  WaveProbe probe;  // optional
  // Soak window: after a wave applies (and passes its immediate
  // post-apply sweep), run the probe, advance the fleet clock by this
  // many ticks, and sweep the wave *again* before promoting. Both
  // sweeps count against the budget. 0 = no soak: one sweep, probe
  // before it (the original flow).
  Tick soak_ticks = 0;
  // On a budget breach, drive every device this run moved to the
  // target back to the exact build it ran before its wave (reverse
  // campaigns; see the header comment). Devices whose update never
  // swapped the build are left alone.
  bool rollback_on_halt = false;
};

// Per-wave slice of the report. Later waves of a halted plan are
// still reported (membership, allowance) with applied = false.
struct WaveOutcome {
  std::string name;
  std::vector<std::string> device_ids;  // resolved membership order
  std::vector<UpdateOutcome> updates;   // one per device, same order
  // Soaking plans only: the immediate post-apply sweep (before the
  // probe and the soak window). Empty when soak_ticks == 0.
  std::vector<VerifierService::AttestResult> soak_gate;
  // The promoting attestation gate over exactly this wave, in
  // device-id order (the subset-sweep contract). With a soak
  // window this is the *re*-sweep after soaked firmware has run.
  std::vector<VerifierService::AttestResult> gate;
  // Fleet-clock stamps (0 on waves a halt left untouched).
  Tick applied_tick = 0;  // when the wave's updates were applied
  Tick gated_tick = 0;    // when the promoting gate swept
  Tick soaked_until = 0;  // clock after the soak window (0: no soak)
  // rollback_on_halt only: the reverse-campaign outcome per device,
  // parallel to device_ids (kAlreadyCurrent for devices whose forward
  // update never swapped the build), and whether that device's build
  // was actually swapped back. Empty on runs that never rolled back.
  std::vector<UpdateOutcome> rollbacks;
  std::vector<bool> rolled_back;
  size_t failures = 0;   // distinct devices failing update and/or gates
  size_t allowance = 0;  // budget.allowance(wave size)
  bool applied = false;  // campaign + gate ran on this wave
  bool within_budget = false;  // failures <= allowance (when applied)

  bool operator==(const WaveOutcome&) const = default;
};

struct RolloutReport {
  std::vector<WaveOutcome> waves;  // one per plan wave, in plan order
  std::vector<std::string> held;   // ids pinned by holds, sorted
  size_t waves_applied = 0;
  bool halted = false;
  std::string halt_reason;  // "" unless halted
  bool rolled_back = false;  // a halt triggered the automatic rollback
  Tick rollback_tick = 0;    // fleet clock when the rollback ran

  bool ok() const { return !halted; }
  bool operator==(const RolloutReport&) const = default;
};

// Executes one RolloutPlan over one UpdateCampaign. Created by
// Fleet::plan_rollout(). run() may be called repeatedly (a re-run
// sees devices already on the target as kAlreadyCurrent); each run
// resolves wave membership afresh against the current registry.
// Throws eilid::FleetError on a malformed plan: a wave with both (or
// neither) of device_ids/fraction, a fraction outside [0, 1], an
// unknown device id, or a device claimed by two waves.
class CampaignScheduler {
 public:
  const RolloutPlan& plan() const { return plan_; }
  const UpdateCampaign& campaign() const { return campaign_; }

  // Execute the plan, fanning wave applies, probes, gates and
  // rollbacks out over `pool` (see the concurrency contract above).
  RolloutReport run(common::ThreadPool& pool = common::ThreadPool::serial());

 private:
  friend class Fleet;
  CampaignScheduler(Fleet& fleet, UpdateCampaign campaign, RolloutPlan plan);

  struct Resolved {
    std::vector<std::vector<DeviceSession*>> waves;
    std::vector<std::string> held;
  };
  Resolved resolve() const;
  // fn(0) .. fn(n-1) over `pool`, in chunks of at most max_in_flight
  // indices: the one fan-out both wave applies and rollbacks ride.
  void for_each_in_flight(size_t n, common::ThreadPool& pool,
                          const std::function<void(size_t)>& fn) const;
  // Reverse every swapped device in `touched` (session -> the build it
  // ran before its wave) back onto that prior build, filling each
  // wave's rollbacks/rolled_back slots.
  void roll_back(
      RolloutReport& report,
      const std::vector<std::vector<DeviceSession*>>& waves,
      const std::map<DeviceSession*,
                     std::shared_ptr<const core::BuildResult>>& prior_builds,
      common::ThreadPool& pool);

  Fleet* fleet_;
  UpdateCampaign campaign_;
  RolloutPlan plan_;
};

}  // namespace eilid

#endif  // EILID_EILID_ROLLOUT_H
