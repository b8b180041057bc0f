// The public API of the library: a Fleet owns everything needed to
// operate many simulated devices as one session --
//
//   - a content-hash-keyed build cache: identical (source, options)
//     pairs run the three-iteration pipeline exactly once and share
//     one immutable BuildResult across every device flashed with it --
//     including its one artifact per concern: the flat flashed image,
//     one isa::DecodedImage (the ROM predecoded once per build, each
//     slot also carrying its superblock suffix: the straight-line run
//     to the first hazard) and the CFG the verifier replays against.
//     A fleet of N devices on one build decodes each instruction once,
//     discovers each basic block once and extracts the CFG once, at
//     build time, total; every session's hot loop then retires whole
//     blocks with one generation/IRQ check per block. A session falls
//     back to per-instruction interpretive decode only for PCs outside
//     flash or after a store lands in the code range, which bumps the
//     bus's code-generation counter -- CASU-enforced devices never
//     do. SessionOptions.engine selects kInterpretive or kSuperblock
//     (the default) per session; traces, final state and CFA evidence
//     are bit-identical across both, and across superblock pinned to
//     per-step dispatch by a wants_step() monitor
//     (tests/test_engine_oracle.cpp and tests/test_superblock.cpp gate
//     all three),
//   - a device registry provisioning N DeviceSessions from cached
//     builds, each wired per its EnforcementPolicy,
//   - a VerifierService multiplexing attestation across sessions with
//     per-device keys, nonces and replay state, plus a batched
//     verify_all() sweep,
//   - update campaigns (stage_update() -> eilid::UpdateCampaign):
//     CASU's authenticated, anti-rollback software update as a *build
//     transition* -- each device moves from its own current cached
//     build to the target via a MAC'd package diffed between the two
//     images, keyed and versioned per device. A successful update
//     atomically swaps the session onto the target build (shared
//     decoded table, CFG, symbols) and stages a replay-CFG swap with the
//     verifier at the epoch marker the device logged, so pre-update
//     evidence replays against the old CFG and post-update evidence
//     against the new,
//   - staged rollouts (plan_rollout() -> eilid::CampaignScheduler,
//     src/eilid/rollout.h): canary waves, percentage cuts, held A/B
//     cohorts, failure budgets and rate limits layered over a
//     campaign. Each wave applies, runs an optional workload probe,
//     then passes an attestation *gate* -- a verifier subset sweep
//     over just that wave -- and the plan promotes to the next wave
//     only while failures stay within budget. Attestation verdicts
//     drive fleet control flow here, not just reporting. Plans may
//     soak each wave (advance the fleet clock and re-sweep before
//     promoting) and, with rollback_on_halt, automatically stage
//     reverse campaigns that walk every touched device back to its
//     prior build when the budget trips,
//   - fleet time and health (clock()/src/eilid/clock.h,
//     src/eilid/health.h): every Fleet owns one deterministic
//     FleetClock -- simulated ticks, advanced only by schedulers,
//     never wall time -- and every attestation verdict is stamped
//     with it. A HeartbeatScheduler sweeps the fleet on a fixed
//     cadence (deterministic per-device phase jitter) maintaining
//     per-device freshness records; a HealthMonitor quarantines
//     devices whose last good attestation goes stale or that a sweep
//     convicts, and remediates them automatically -- reflash from the
//     recorded build, re-update onto a staged golden campaign, and
//     release only on a clean verdict. Convictions drive remediation,
//     not just reports.
//
//   eilid::Fleet fleet;
//   auto& dev = fleet.provision("door-7", source, "gateway",
//                               eilid::EnforcementPolicy::kEilidHw);
//   dev.run_to_symbol("halt", 200000);
//   if (dev.violation_count() > 0) { /* hijack prevented in real time */ }
//
// Concurrency model
// -----------------
// The fleet engine is built to be driven from a thread pool
// (common::ThreadPool). Every fleet operation -- verify_all,
// roll_out, CampaignScheduler::run, the schedulers' run_until and
// apps::run_workload_all -- has one signature whose last parameter is
// `common::ThreadPool& pool = common::ThreadPool::serial()`. The
// serial pool runs the operation's per-device work in order on the
// calling thread; a worker pool fans it out. Either way the result is
// the same, field for field: per-device results land by index, each
// device's outcome depends only on its own state, and every decision
// that spans devices is taken on the calling thread. The tests hold
// every operation to this (pooled == serial). The rest of the
// contract is:
//
//   Thread-safe (internally synchronized):
//     - Fleet::build()/provision()/deploy(): the build cache is
//       single-flight -- concurrent builds of the same content hash
//       run the pipeline once and every caller shares the one result.
//       The device registry is one id-ordered table under one mutex:
//       each entry holds the session, its deployment sequence number
//       and, for kCfaBaseline devices, the verifier's books for it
//       (replay state and expected report sequence). Deploy builds the
//       books and the session outside the lock and inserts the entry
//       once, so concurrent deploys serialize only on that insert.
//     - Fleet::find()/at()/size()/sessions()/decommission() against
//       concurrent deploys of *other* ids.
//     - VerifierService::attest()/verify_all(): every verdict -- a
//       direct attest(), a bounded attest(session, max_edges) slice,
//       one device of any verify_all sweep, or a scheduler's verdict
//       on a CfaBooks slot -- runs the one verdict body under that
//       DeviceSession's mutex, which also guards the entry's books:
//       disjoint devices attest in parallel and the same device is
//       never attested twice at once. A wave gate and a concurrent
//       whole-fleet sweep serialize per device and interleave across
//       devices. attest()/verify_all() resolve sessions under the
//       registry mutex (a slot already holds its entry) and refuse a
//       session that is not this fleet's entry for its id (standalone,
//       or aliasing a deployed id) with FleetError, draining nothing.
//     - apps::run_workload_all(): drives disjoint sessions
//       concurrently, taking each session's lock for the duration.
//     - UpdateCampaign::apply_to()/roll_out(): each device updates
//       under its own session lock (diff cache shared, internally
//       locked), so a pooled rollout, a concurrent attestation sweep
//       and concurrent workload drivers interleave per device. Every
//       session is resolved to its registry entry before any is
//       updated, so a foreign session is refused with nothing applied.
//       The CFG epoch is staged while the device's lock is still held,
//       so a sweep can never drain an update marker the verifier has
//       not been told about.
//     - CampaignScheduler::run(): wave applies, probes, gate sweeps,
//       soak re-sweeps and halt rollbacks all ride the per-device
//       locks above. The scheduler object itself is not shared across
//       threads -- one run at a time per scheduler.
//     - IncrementalVerifier::run_until() (src/eilid/incremental.h):
//       windowed attestation rounds drain bounded slices under the
//       same per-device session locks as verify_all, so a rolling window
//       interleaves safely with heartbeat sweeps, rollouts and workload
//       drivers; the window's folded summaries are bit-identical to a
//       barrier verify_all over the same evidence. One run_until at a
//       time per verifier object (summaries() may be read
//       concurrently).
//     - HeartbeatScheduler::run_until()/HealthMonitor::run_until():
//       heartbeat beats take the same per-device locks as a verify_all
//       subset sweep, so they interleave safely with a rollout;
//       remediation holds the device's session lock across its
//       reflash and funnels its re-update through the campaign's
//       per-device apply (on the slot's resolved entry, so a heal
//       takes no registry lock), the same lock an in-flight
//       campaign takes -- so healing a device can never race a
//       campaign mid-update on that device. FleetClock is atomic and
//       monotonic (advance_to never moves time backwards). Like the
//       campaign scheduler, one run at a time per monitor object;
//       records() and quarantined() may be read concurrently (the
//       freshness record, quarantine entry and heal count of a device
//       share one slot under the scheduler's mutex).
//
//   Requires external synchronization:
//     - A DeviceSession itself is single-threaded: do not call run()/
//       power_cycle()/machine() on one session from two threads. Hold
//       DeviceSession::mutex() when driving a session that a
//       concurrent attestation sweep may also touch (run_workload_all
//       and VerifierService already do).
//     - decommission() of a device must not race attest()/
//       verify_all(), a scheduler run, or any use of that device's
//       session pointer: the registry hands out raw DeviceSession
//       pointers (and CfaBooks slots hold them) that die with
//       decommission, together with the device's verifier books.
//       Quiesce sweeps first. Likewise, lifecycle calls for the *same*
//       id (deploy vs decommission) must be externally ordered -- a
//       device cannot be retired while it is still being deployed. A
//       redeploy of a decommissioned id is a new device: fresh
//       verifier books and a new deployment sequence number, and the
//       fleet-time schedulers (one CfaBooks sync each) re-adopt it with
//       a fresh heartbeat record, no quarantine entry, a full heal
//       budget and an empty window summary. A decommissioned id leaves
//       every scheduler's books at that scheduler's next sync.
//
// A single standalone device is one DeviceSession constructed directly
// on a core::build_app result. It belongs to no fleet, so no fleet's
// verifier attests it.
#ifndef EILID_EILID_FLEET_H
#define EILID_EILID_FLEET_H

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "eilid/clock.h"
#include "eilid/session.h"
#include "eilid/update.h"
#include "eilid/verifier.h"

namespace eilid {

class CampaignScheduler;
struct RolloutPlan;

struct FleetOptions {
  // Master key provisioned at manufacture; per-device attestation keys
  // are derived as HMAC(master, "attest:" + device_id) and per-device
  // update keys as HMAC(master, "update:" + device_id).
  std::vector<uint8_t> master_key = std::vector<uint8_t>(32, 0x5A);
};

class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // --- build cache -------------------------------------------------
  // Build (or fetch) the app for (source, name, options). The result
  // is immutable and shared by every session deployed from it.
  // Single-flight: when two threads request the same content hash
  // concurrently, one runs the pipeline and the other blocks until
  // the shared result is ready (counted as a cache hit). A build that
  // throws is evicted, so a later call retries.
  std::shared_ptr<const core::BuildResult> build(
      const std::string& source, const std::string& name,
      const core::BuildOptions& options = {});

  size_t pipeline_runs() const { return pipeline_runs_.load(); }
  size_t build_cache_hits() const { return cache_hits_.load(); }
  size_t build_cache_size() const;

  // --- device registry ---------------------------------------------
  // Flash a cached build onto a new device. Throws eilid::FleetError
  // on a duplicate id, a policy/build mismatch, or a kCfaBaseline
  // build with no CFG for the verifier to replay against. kCfaBaseline
  // devices get fresh verifier books in their registry entry. A deploy
  // that throws leaves no trace: the entry is inserted once, last.
  DeviceSession& deploy(const std::string& device_id,
                        std::shared_ptr<const core::BuildResult> build,
                        EnforcementPolicy policy, SessionOptions options = {});

  // Convenience: build (cached) + deploy. BuildOptions are derived
  // from the policy: only kEilidHw instruments.
  DeviceSession& provision(const std::string& device_id,
                           const std::string& source, const std::string& name,
                           EnforcementPolicy policy,
                           SessionOptions options = {});

  DeviceSession* find(const std::string& device_id);
  DeviceSession& at(const std::string& device_id);  // throws FleetError
  void decommission(const std::string& device_id);
  size_t size() const;
  // Snapshot of the registry in deployment order. The pointers stay
  // valid until the corresponding device is decommissioned.
  std::vector<DeviceSession*> sessions() const;

  // --- update campaigns --------------------------------------------
  // Stage a secure update of fleet sessions onto `target` (normally a
  // build() result, so campaigns ride the same content-hash cache).
  // The returned campaign rolls packages out per device -- see
  // eilid/update.h for the lifecycle and concurrency contract. The
  // target's build shape must match the devices' (same RomConfig /
  // instrumentation); a transition whose images differ outside PMEM is
  // reported per device as UpdateResult::kIncompatible.
  UpdateCampaign stage_update(std::shared_ptr<const core::BuildResult> target,
                              CampaignOptions options = {});
  // Convenience: build (cached) the target from source first.
  UpdateCampaign stage_update(const std::string& source,
                              const std::string& name,
                              const core::BuildOptions& build_options = {},
                              CampaignOptions options = {});

  // --- staged rollouts ---------------------------------------------
  // Wrap a campaign in a CampaignScheduler executing `plan`: canary
  // waves with attestation gates, failure budgets, held A/B cohorts
  // and rate limits -- see eilid/rollout.h for the plan grammar,
  // report shape and concurrency contract. Callers include
  // eilid/rollout.h for the returned type.
  CampaignScheduler plan_rollout(UpdateCampaign campaign, RolloutPlan plan);
  // Convenience: stage the target build into a campaign first.
  CampaignScheduler plan_rollout(
      std::shared_ptr<const core::BuildResult> target, RolloutPlan plan,
      CampaignOptions options = {});

  VerifierService& verifier() { return verifier_; }

  // The fleet's simulated clock (see eilid/clock.h). Every time-driven
  // subsystem -- heartbeat cadences, staleness thresholds, rollout soak
  // windows -- reads this one clock, and attestation verdicts are
  // stamped with its tick (AttestResult::tick). The fleet never
  // advances it on its own: the driver (test, bench, HealthMonitor
  // loop) owns time, which is why nothing here can flake.
  FleetClock& clock() { return clock_; }
  const FleetClock& clock() const { return clock_; }

  // The key a given device MACs its attestation reports with.
  crypto::Digest device_key(const std::string& device_id) const;
  // The device-unique key a given device's secure updates are
  // authenticated against.
  crypto::Digest update_key(const std::string& device_id) const;

 private:
  friend class VerifierService;  // reads and resolves registry entries
  template <typename T>
  friend struct CfaBooks;  // syncs against registry entries

  // One deployed device: the registry's only record of it.
  struct Entry {
    std::unique_ptr<DeviceSession> session;
    uint64_t deployed = 0;  // deployment sequence number, never reused
    // kCfaBaseline only; guarded by session->mutex(), not devices_mu_.
    std::optional<VerifierService::Books> books;
  };

  FleetOptions options_;

  // Build cache: content hash -> shared future of the one pipeline
  // run for that hash (single-flight).
  using BuildFuture =
      std::shared_future<std::shared_ptr<const core::BuildResult>>;
  mutable std::mutex cache_mu_;
  std::map<crypto::Digest, BuildFuture> cache_;
  std::atomic<size_t> cache_hits_{0};
  std::atomic<size_t> pipeline_runs_{0};

  mutable std::mutex devices_mu_;  // guards devices_, writes next_deployed_
  std::map<std::string, Entry> devices_;  // in device-id order
  // The next deployment number, and the registry's version: deploy and
  // decommission both advance it, so CfaBooks::sync can skip a no-op.
  std::atomic<uint64_t> next_deployed_{1};

  FleetClock clock_;
  VerifierService verifier_{*this};
};

// The books a fleet-time scheduler keeps per kCfaBaseline device: one T
// per device in device-id order, each slot holding the device's
// resolved verifier target (session and verifier books) and deployment
// number, so judging a slot needs no registry lookup. A slot's target
// is valid until decommission, which must not race a run. sync() is the
// schedulers' one adopt / renew / prune walk, so every scheduler treats
// a redeployed id as a new device.
template <typename T>
struct CfaBooks {
  struct Slot {
    VerifierService::Target target;
    uint64_t deployed = 0;
    T value;
  };
  std::map<std::string, Slot> slots;  // keyed by device id
  uint64_t version = 0;  // registry version the slots were synced at

  // Merge-walk the slots against the registry's kCfaBaseline entries,
  // unless the registry's version is the one last synced (no lock is
  // taken then): ids it no longer lists are pruned, and an id that is
  // new -- or carries a new deployment number (decommissioned and
  // deployed again) -- gets fresh(id).
  template <typename Fresh>
  void sync(Fleet& fleet, Fresh&& fresh) {
    if (fleet.next_deployed_.load(std::memory_order_acquire) == version) {
      return;
    }
    std::lock_guard<std::mutex> lock(fleet.devices_mu_);
    version = fleet.next_deployed_.load(std::memory_order_relaxed);
    auto it = slots.begin();
    for (auto& [id, entry] : fleet.devices_) {
      if (!entry.books.has_value()) continue;
      // Deployment numbers are never reused, so a matching one is the
      // same device: the steady state compares no ids.
      if (it != slots.end() && it->second.deployed == entry.deployed) {
        ++it;
        continue;
      }
      while (it != slots.end() && it->first < id) it = slots.erase(it);
      if (it == slots.end() || it->first != id) {
        it = slots.emplace_hint(it, id, Slot{});
      }
      if (it->second.deployed != entry.deployed) {
        it->second = Slot{{entry.session.get(), &*entry.books},
                          entry.deployed, fresh(id)};
      }
      ++it;
    }
    slots.erase(it, slots.end());
  }

  // The verifier's one verdict body on a slot's device, draining at
  // most `max_edges` edges (0 = everything).
  static VerifierService::AttestResult judge(Fleet& fleet, const Slot& slot,
                                             size_t max_edges = 0) {
    return fleet.verifier().judge(slot.target, max_edges);
  }
};

}  // namespace eilid

#endif  // EILID_EILID_FLEET_H
