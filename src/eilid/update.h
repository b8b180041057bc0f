// Fleet-native secure update campaigns: CASU's authenticated update
// modeled as a *build transition*. A device moves from its current
// cached core::BuildResult to a target one via a MAC'd,
// version-monotonic casu::UpdatePackage derived by diffing the two
// builds' PMEM images. On success the session atomically swaps to the
// target build (shared predecoded table, symbols) and the fleet's
// VerifierService is told to swap that device's replay CFG at the
// epoch marker the device just logged -- so pre-update evidence
// replays against the old CFG, post-update evidence against the new,
// and a legitimate update is never convicted as a hijack.
//
//   eilid::Fleet fleet;
//   ... provision devices from build A ...
//   auto campaign = fleet.stage_update(v2_source, "fw", {.eilid = false});
//   for (const auto& outcome : campaign.roll_out(pool)) {
//     if (!outcome.ok()) { /* device kept its old firmware */ }
//   }
//
// Mixed-version fleets are first-class: the campaign diffs each
// device's *own* current build against the target (per-from-build diff
// cache), stamps each package with that device's next version, and
// MACs it with that device's key -- one campaign heals a fleet
// scattered across several firmware generations.
//
// Campaigns are *symmetric*: core::diff_builds(new, old) is as valid a
// transition as diff_builds(old, new), so staging a campaign whose
// target is a build devices previously ran yields a genuine rollback
// -- authenticated, version-monotonic (the reverse package carries the
// device's *next* anti-rollback version; returning to old bytes is not
// a version rollback), with a fresh epoch marker and a replay-CFG swap
// back to the old CFG. CampaignScheduler's rollback_on_halt and
// HealthMonitor remediation are both built on exactly this: no special
// downgrade path exists, or needs to.
#ifndef EILID_EILID_UPDATE_H
#define EILID_EILID_UPDATE_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "casu/update.h"
#include "common/thread_pool.h"
#include "eilid/session.h"
#include "eilid/transport.h"
#include "eilid/verifier.h"

namespace eilid {

class Fleet;

enum class UpdateResult : uint8_t {
  kApplied,         // package verified, PMEM rewritten, build swapped
  kAlreadyCurrent,  // session already runs the target build (no-op)
  kBadMac,          // authentication failed; device latched a violation
  kRollback,        // version not monotonic; device latched a violation
  kBadRegion,       // a region fell outside PMEM
  kIncompatible,    // transition not expressible as a CASU update
                    // (ROM/non-PMEM bytes differ, or policy forbids
                    // the target build)
  kImageMismatch,   // the device's PMEM no longer matches its recorded
                    // build (out-of-band patch, self-modification): a
                    // build-to-build diff would leave memory matching
                    // neither image, so the transition is refused and
                    // nothing is applied
  kInterrupted,     // lossy-transport path only: the delivery's retry
                    // budget ran out (or the device was unreachable)
                    // with the transfer incomplete. The device still
                    // runs its old build, attestable; staged progress
                    // survives on the device, so re-applying the same
                    // campaign resumes instead of restarting
};

std::string_view update_result_name(UpdateResult result);

// Per-device result of one campaign step.
struct UpdateOutcome {
  std::string device_id;
  UpdateResult result = UpdateResult::kIncompatible;
  uint32_t version_before = 0;
  uint32_t version_after = 0;   // == version_before unless applied
  size_t regions = 0;           // diff regions in the package sent
  size_t payload_bytes = 0;     // bytes shipped to the device
  bool build_swapped = false;   // session now runs the target build
  bool cfg_staged = false;      // verifier will swap this device's
                                // replay CFG at the update marker
  // Lossy-transport telemetry (see eilid/transport.h). The atomic
  // in-memory path reports one attempt, nothing resumed, nothing
  // retransmitted.
  uint32_t attempts = 1;          // delivery attempts, power-loss
                                  // recoveries within the call included
  bool resumed = false;           // continued a previously staged
                                  // transfer rather than starting fresh
  size_t bytes_retransmitted = 0; // payload bytes sent beyond each
                                  // chunk's first transmission

  bool ok() const {
    return result == UpdateResult::kApplied ||
           result == UpdateResult::kAlreadyCurrent;
  }

  // Field-wise equality: the determinism gates (pooled rollout ==
  // serial rollout) compare whole outcomes, so a new field is covered
  // automatically.
  bool operator==(const UpdateOutcome&) const = default;
};

struct CampaignOptions {
  // Reboot each device after a successful swap -- the real CASU update
  // routine ends in a reset into the new firmware. The reset marker
  // lands in the CFA log *after* the epoch marker, so replay swaps
  // CFGs first, then restarts clean at the new reset vector.
  bool power_cycle = true;
  // Adversary-in-the-transport hook (scenario tests, chaos drills):
  // invoked with each freshly authority-MAC'd package before the
  // device verifies it; whatever it leaves behind is what the device
  // receives. A tampered package fails device-side authentication
  // (kBadMac) and the device heals by reset -- exactly the forged
  // canary the rollout scenario matrix drives through wave gates.
  // Must be deterministic for the pooled == serial outcome contract,
  // and thread-safe: a pooled rollout invokes it concurrently from
  // worker threads (decide from the device and package arguments
  // alone rather than mutating captured state).
  std::function<void(const DeviceSession&, casu::UpdatePackage&)> tamper;
  // When set, packages ship over the deterministic lossy transport
  // (chunked, per-chunk acks, bounded retry, resume, power-loss-safe
  // two-phase apply) instead of the atomic in-memory handoff; see
  // eilid/transport.h. The tamper hook above still runs first -- a
  // package tampered before chunking fails the MAC after reassembly,
  // so the two adversary hooks compose. Fault streams are keyed
  // (seed, device_id), preserving the pooled == serial contract.
  std::optional<TransportOptions> transport;
};

// One staged rollout of a target build across fleet sessions. Created
// by Fleet::stage_update(); cheap to copy (copies share the diff
// cache). Thread-safe: apply_to() takes the per-device session mutex,
// so a pooled roll_out() and a concurrent attestation sweep interleave
// per device without racing (the pool contract is in eilid/fleet.h).
class UpdateCampaign {
 public:
  const std::shared_ptr<const core::BuildResult>& target_build() const {
    return target_;
  }
  const CampaignOptions& options() const { return options_; }

  // The exact package this campaign would send `session` right now:
  // that device's diff, next version, and key. Exposed so transports
  // and tests can capture, corrupt, or replay real packages. Throws
  // eilid::FleetError when the transition is incompatible.
  casu::UpdatePackage package_for(DeviceSession& session);

  // Update one device through the full lifecycle under its session
  // mutex: diff -> package -> apply -> build swap -> CFG epoch staging
  // -> (optional) reboot. Never throws on a rejected package -- the
  // rejection is the outcome. Throws eilid::FleetError, with nothing
  // applied, when `session` is not the fleet's registry entry for its
  // id (a standalone session, or one aliasing a deployed id).
  UpdateOutcome apply_to(DeviceSession& session);

  // Roll the campaign out across the whole fleet (deployment order) or
  // a chosen subset (input order; an empty subset updates nothing),
  // applying each device over `pool`; outcomes come back in that
  // order. Every session is resolved before any is updated, so a null
  // or foreign session throws eilid::FleetError with nothing applied
  // anywhere.
  std::vector<UpdateOutcome> roll_out(
      common::ThreadPool& pool = common::ThreadPool::serial());
  std::vector<UpdateOutcome> roll_out(
      const std::vector<DeviceSession*>& sessions,
      common::ThreadPool& pool = common::ThreadPool::serial());

 private:
  friend class Fleet;
  friend class HealthMonitor;  // heals slots it has already resolved
  UpdateCampaign(Fleet& fleet, std::shared_ptr<const core::BuildResult> target,
                 CampaignOptions options);

  // Everything the campaign derives from one distinct from-build: the
  // diff to the target, and the flat image the device's PMEM must
  // still equal for that diff to be applicable.
  struct FromState {
    std::shared_ptr<const core::BuildResult> from;  // pins the build
    std::shared_ptr<const core::ImageDiff> diff;
    std::shared_ptr<const std::vector<uint8_t>> from_flat;
  };

  // apply_to() on a device already resolved to its registry entry, so
  // it takes no registry lock.
  UpdateOutcome apply(const VerifierService::Target& target);
  // Diff (and expected from-image) for `from` -> target, computed once
  // per distinct from-build and shared across the rollout (a fleet
  // mid-migration has a handful of builds, not a diff per device). The
  // cache pins each from-build for the campaign's lifetime, so the
  // pointer key can never alias a recycled address.
  FromState diff_from(const std::shared_ptr<const core::BuildResult>& from);
  casu::UpdatePackage package_locked(DeviceSession& session,
                                     const core::ImageDiff& diff) const;

  Fleet* fleet_;
  std::shared_ptr<const core::BuildResult> target_;
  CampaignOptions options_;

  struct DiffCache {
    std::mutex mu;
    std::map<const core::BuildResult*, FromState> diffs;
  };
  std::shared_ptr<DiffCache> diffs_;
};

}  // namespace eilid

#endif  // EILID_EILID_UPDATE_H
