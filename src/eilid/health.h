// Fleet health: periodic attestation heartbeats, per-device freshness,
// quarantine, and automated remediation -- the subsystem that makes the
// fleet *self-healing*. PAISA-style: verifiers judge not just whether a
// device's evidence verifies but *when* it last did; a device that
// silently stops announcing is exactly as suspect as one that convicts.
//
// Three layers, all driven by the fleet's deterministic FleetClock
// (eilid/clock.h) -- no wall clock anywhere, so nothing flakes:
//
//   - HeartbeatScheduler: drives periodic per-device attestation sweeps
//     on a configurable cadence (plus a deterministic per-device jitter
//     phase so a fleet's heartbeats don't all land on one tick),
//     maintaining a FreshnessRecord per CFA-capable device:
//     last_attested_tick, last_ok_tick, misses, convicted. An offline
//     device (DeviceSession::set_online(false) -- the announcement
//     stops arriving) records a miss and its freshness decays.
//   - assess(): the quarantine decision, a *pure function* of one
//     freshness record, the current tick and the policy (property-
//     tested: no hidden state, same inputs -> same verdict). A device
//     is quarantined when its last clean verdict is older than the
//     staleness threshold (stale or missing announcements) or when any
//     evidence since its last remediation convicted it.
//   - HealthMonitor: owns the scheduler -- whose per-device slot also
//     holds the device's latched quarantine entry and lifetime heal
//     count -- and an optional staged remediation campaign. run_until()
//     advances fleet time, fires due heartbeats, quarantines stale/convicted
//     devices, and -- when a remediation campaign is staged --
//     remediates every quarantined device with no operator action:
//     reflash (factory reset to the recorded image, so even a device
//     diverged by a rogue patch becomes updatable again), re-update
//     through the ordinary UpdateCampaign machinery (fresh epoch
//     marker, replay-CFG swap), then an immediate re-attestation.
//     A clean verdict releases the device from quarantine; anything
//     else (still offline, refused update, convicting evidence) keeps
//     it quarantined for the next pass.
//
//   eilid::Fleet fleet;                       // fleet.clock() is time
//   ... provision kCfaBaseline devices ...
//   eilid::HealthMonitor health(fleet, {.heartbeat = {.period = 100},
//                                       .policy = {.staleness_threshold = 300}});
//   health.stage_remediation(fleet.stage_update(golden_build));
//   auto report = health.run_until(fleet.clock().now() + 1000);
//   // stale/convicted devices are already quarantined, reset,
//   // re-updated and re-attested -- report says exactly what healed.
//
// Concurrency contract: run_until fans each beat's verdicts and the
// remediation pass out over its pool (the fleet-wide pool contract in
// eilid/fleet.h) with the same per-device DeviceSession::mutex()
// locking as VerifierService::verify_all and UpdateCampaign::apply_to,
// and repeated runs at the same seed and clock schedule are
// bit-identical to each other. Remediation can never race an in-flight
// campaign on a device: both funnel through the campaign's per-device
// apply, which holds the device's session mutex from package
// verification through CFG-epoch staging, so the two updates
// serialize per device and each one's outcome is decided entirely
// under the lock. A scheduler/monitor object itself is single-driver:
// one run_until at a time.
#ifndef EILID_EILID_HEALTH_H
#define EILID_EILID_HEALTH_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "eilid/clock.h"
#include "eilid/fleet.h"
#include "eilid/update.h"

namespace eilid {

struct HeartbeatOptions {
  // Cadence between one device's heartbeats, in simulated ticks.
  Tick period = 100;
  // Deterministic per-device phase offset in [0, jitter], derived from
  // (jitter_seed, device id) via common::SeededRng::keyed -- the same
  // fleet at the same seed always beats on the same schedule, but the
  // fleet's devices don't all sweep on the same tick.
  Tick jitter = 0;
  uint64_t jitter_seed = 0x48b5a1f2;
  // Exponential backoff for unreachable devices: after k consecutive
  // missed beats the next heartbeat is scheduled period << min(k,
  // max_backoff_exponent) ticks out (first miss doubles the wait), so
  // a dead device costs O(log) due-beats per window instead of one per
  // period -- at 10k devices with a few percent offline, that is the
  // difference between the scheduler's beat loop scaling with the
  // fleet or with its *reachable* fraction. Any evidence (a verdict,
  // or note_remediated) snaps the cadence back to `period`. 0 disables
  // (every miss reschedules one period out, the pre-backoff behavior).
  // Deterministic: backoff is a pure function of the miss run, so the
  // pooled==serial and same-seed reproducibility contracts hold.
  uint32_t max_backoff_exponent = 0;
};

// Everything the quarantine decision may consult, per device. Owned by
// the HeartbeatScheduler: the fleet's one copy of attestation
// freshness (the verifier keeps none).
struct FreshnessRecord {
  std::string device_id;
  Tick enrolled_tick = 0;       // when the scheduler first saw the device
  Tick next_due = 0;            // next scheduled heartbeat
  Tick last_attested_tick = 0;  // evidence last collected (any verdict)
  Tick last_ok_tick = 0;        // verdict last came back ok()
  uint32_t heartbeats = 0;      // beats that produced evidence
  uint32_t misses = 0;          // due beats the device was offline for
  uint32_t consecutive_misses = 0;  // current unbroken miss run (drives
                                    // the backoff exponent; reset by
                                    // any evidence)
  bool ever_attested = false;
  bool ever_ok = false;
  // Evidence convicted the device since it was last remediated.
  // Latched: later clean verdicts do not clear it, note_remediated does.
  bool convicted = false;

  bool operator==(const FreshnessRecord&) const = default;
};

// One due tick's sweep: every device whose heartbeat fell on `tick`.
struct HeartbeatBeat {
  Tick tick = 0;
  // Verdicts for the online due devices, in device-id order (the
  // subset-sweep contract).
  std::vector<VerifierService::AttestResult> verdicts;
  std::vector<std::string> missed;  // offline due devices, sorted

  bool operator==(const HeartbeatBeat&) const = default;
};

struct HeartbeatReport {
  Tick from = 0;   // clock at run_until entry
  Tick until = 0;  // clock at return (== the requested deadline)
  std::vector<HeartbeatBeat> beats;  // in tick order

  bool operator==(const HeartbeatReport&) const = default;
};

// When (and why) a device must be pulled from service.
enum class QuarantineReason : uint8_t {
  kNone,       // healthy: fresh, clean evidence
  kStale,      // announcements stale or missing past the threshold
  kConvicted,  // evidence since the last remediation convicted it
  // Terminal: automated remediation was tried max_heal_attempts times
  // over the device's lifetime (across releases and re-quarantines) and
  // the device still is not healthy. The monitor stops spending
  // remediation passes on it; only operator action clears the state:
  // decommission, or a redeploy -- under the same id or a new one --
  // which is a new device with no quarantine entry and a fresh heal
  // budget. Never returned by assess() -- escalation is a monitor
  // decision, not a freshness one.
  kEscalated,
};

std::string_view quarantine_reason_name(QuarantineReason reason);

struct QuarantineEntry {
  std::string device_id;
  QuarantineReason reason = QuarantineReason::kNone;
  Tick since = 0;  // tick the device entered quarantine
  uint32_t remediation_attempts = 0;

  bool operator==(const QuarantineEntry&) const = default;
};

// Drives periodic attestation sweeps over the fleet's kCfaBaseline
// devices (other devices emit no announcements and are not judged).
// Each run_until syncs its CfaBooks with the registry: devices deployed
// since the last run join with a fresh record, decommissioned devices
// are pruned, and an id that was decommissioned and deployed again
// restarts with a fresh record. A slot's verifier target is valid until
// decommission, which must not race a run (the fleet contract).
class HeartbeatScheduler {
 public:
  explicit HeartbeatScheduler(Fleet& fleet, HeartbeatOptions options = {});

  // Advance fleet time to `deadline`, firing every due heartbeat on the
  // way in deterministic (tick, device-id) order. Each beat judges the
  // online due devices in id order over `pool`, as a verifier subset
  // sweep would (per-device locking), and updates the freshness records.
  HeartbeatReport run_until(
      Tick deadline, common::ThreadPool& pool = common::ThreadPool::serial());

  // Snapshot of every watched device's record, sorted by device id.
  std::vector<FreshnessRecord> records() const;

  const HeartbeatOptions& options() const { return options_; }

 private:
  // Keeps its per-device state in the scheduler's slots.
  friend class HealthMonitor;
  Tick phase_for(const std::string& device_id) const;
  // Fold a successful remediation into the record: the device just
  // produced a clean verdict at `tick`, so its freshness restarts (the
  // next regular beat stays scheduled).
  static void note_remediated(FreshnessRecord& record, Tick tick);

  // One watched device. The quarantine entry and heal count belong to
  // HealthMonitor; a redeployed id gets a new Watched, so neither
  // follows the id to the next device.
  struct Watched {
    FreshnessRecord record;
    std::optional<QuarantineEntry> quarantine;
    // Failed remediations over this device's lifetime: kept when the
    // device heals and leaves quarantine, which is what breaks the
    // heal -> re-convict forever-loop (HealthPolicy::max_heal_attempts).
    uint32_t heal_attempts = 0;
  };
  using Books = CfaBooks<Watched>;

  Fleet* fleet_;
  HeartbeatOptions options_;
  mutable std::mutex mu_;  // guards books_
  Books books_;
};

struct HealthPolicy {
  // A device whose last clean verdict (or enrollment, if it never had
  // one) is more than this many ticks old is quarantined as stale.
  Tick staleness_threshold = 300;
  // Lifetime cap on automated remediation attempts per device; once a
  // device has burned this many failed attempts it escalates to the
  // terminal kEscalated state instead of being remediated again. The
  // count survives a successful heal, so a device stuck in a
  // heal -> re-convict cycle cannot consume remediation passes forever;
  // a redeploy of the id is a new device and starts from zero.
  // 0 means unbounded (the pre-escalation behavior).
  uint32_t max_heal_attempts = 0;
};

// THE quarantine decision: a pure function of one freshness record, the
// current tick and the policy. No other state may influence it -- the
// property suite re-invokes it on copied records and on randomly
// generated ones and demands identical answers. Conviction always
// outranks staleness; a frozen clock (now == enrolled_tick, nothing
// ever swept) quarantines nothing.
QuarantineReason assess(const FreshnessRecord& record, Tick now,
                        const HealthPolicy& policy);

// One automated remediation attempt: reflash -> re-update -> re-attest.
struct RemediationOutcome {
  std::string device_id;
  QuarantineReason reason = QuarantineReason::kNone;
  Tick tick = 0;
  bool reachable = false;  // offline devices cannot be remediated
  UpdateOutcome update;    // the re-update (kAlreadyCurrent is fine)
  VerifierService::AttestResult verdict;  // the post-remediation sweep
  bool healed = false;     // update ok() and verdict ok(): released

  bool operator==(const RemediationOutcome&) const = default;
};

struct HealthReport {
  HeartbeatReport heartbeats;
  // Devices quarantined by this pass, sorted by id (devices already in
  // quarantine are not re-reported).
  std::vector<QuarantineEntry> newly_quarantined;
  // One attempt per quarantined device this pass (remediation staged
  // only; escalated devices get none), sorted by id.
  std::vector<RemediationOutcome> remediations;
  // Devices that crossed max_heal_attempts this pass and became
  // terminal (entries carry reason == kEscalated), sorted by id.
  std::vector<QuarantineEntry> escalated;
  size_t quarantined_after = 0;  // quarantine population at return
                                 // (escalated devices included)

  bool operator==(const HealthReport&) const = default;
};

struct HealthOptions {
  HeartbeatOptions heartbeat;
  HealthPolicy policy;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(Fleet& fleet, HealthOptions options = {});

  // Advance fleet time to `deadline`: heartbeats fire on cadence,
  // stale/convicted devices enter quarantine, and every quarantined
  // device gets one remediation attempt (when a campaign is staged).
  // Beats and remediations fan out over `pool`.
  HealthReport run_until(
      Tick deadline, common::ThreadPool& pool = common::ThreadPool::serial());

  // Stage the campaign remediation re-updates devices with (normally
  // Fleet::stage_update onto the fleet's golden build). Until one is
  // staged, quarantined devices stay quarantined. Call between runs.
  void stage_remediation(UpdateCampaign campaign);

  // Sorted by id; safe to call while a run is in flight.
  std::vector<QuarantineEntry> quarantined() const;
  std::vector<FreshnessRecord> records() const { return scheduler_.records(); }
  HeartbeatScheduler& scheduler() { return scheduler_; }
  const HealthOptions& options() const { return options_; }

 private:
  RemediationOutcome remediate_one(const HeartbeatScheduler::Books::Slot& slot,
                                   Tick now);

  Fleet* fleet_;
  HealthOptions options_;
  HeartbeatScheduler scheduler_;  // also holds each device's quarantine
  std::optional<UpdateCampaign> remediation_;
};

}  // namespace eilid

#endif  // EILID_EILID_HEALTH_H
