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
// (common::ThreadPool); the contract is:
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
//       and concurrent workload drivers interleave per device; the
//       pooled rollout's outcomes are identical to the serial one's.
//       The CFG epoch is staged while the device's lock is still held,
//       so a sweep can never drain an update marker the verifier has
//       not been told about.
//     - CampaignScheduler::run(pool): wave applies, probes, gate
//       sweeps, soak re-sweeps and halt rollbacks all ride the
//       per-device locks above; the pooled run's report is
//       bit-identical to the serial run()'s. The scheduler object
//       itself is not shared across threads -- one run at a time per
//       scheduler.
//     - IncrementalVerifier::run_until() (src/eilid/incremental.h):
//       windowed attestation rounds drain bounded slices under the
//       same per-device session locks as verify_all, so a rolling window
//       interleaves safely with heartbeat sweeps, rollouts and workload
//       drivers; the pooled window's folded summaries are bit-identical
//       to the serial window's AND to a barrier verify_all over the
//       same evidence. One run_until at a time per verifier object
//       (summaries() may be read concurrently).
//     - HeartbeatScheduler::run_until()/HealthMonitor::run_until():
//       heartbeat beats take the same per-device locks as a verify_all
//       subset sweep, so they interleave safely with a rollout;
//       remediation holds the device's session lock across its
//       reflash and funnels its re-update through
//       UpdateCampaign::apply_to(), the same lock an in-flight
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

#include "common/thread_pool.h"
#include "crypto/hmac.h"
#include "eilid/clock.h"
#include "eilid/session.h"
#include "eilid/update.h"

namespace eilid {

class CampaignScheduler;
class Fleet;
template <typename T>
struct CfaBooks;
struct RolloutPlan;

// Verifier half of the CFA baseline, fleet-wide: attests every
// kCfaBaseline device of its fleet against that device's own MAC key,
// challenge nonce and stateful path replay, so one device's compromise
// (or power cycle) never perturbs another's attestation history. The
// per-device books live in the fleet's registry entry for the device;
// the service itself holds no device list of its own.
class VerifierService {
 public:
  struct AttestResult {
    std::string device_id;
    bool attested = false;  // false: session has no CFA monitor, so no
                            // report could be collected (mac/seq/path
                            // are meaningless and left false)
    uint32_t seq = 0;
    uint64_t cycle = 0;     // device cycle at report emission
    Tick tick = 0;          // fleet time at verification -- the
                            // freshness primitive: health monitoring
                            // judges *when* evidence last verified, not
                            // just whether it did
    bool mac_ok = false;
    bool seq_ok = false;   // report sequence number was the expected one
    bool path_ok = false;  // replayed log stayed inside the CFG
    size_t edges = 0;
    uint32_t dropped = 0;  // evidence lost to on-device log overflow
    std::optional<cfa::LoggedEdge> first_bad;
    // Edges still held on-device after this drain: 0 after an
    // unbounded drain; a bounded attest(session, max_edges) leaves the
    // remainder for the next slice. Tells a caught-up device from one
    // mid-drain.
    size_t remaining = 0;

    bool ok() const { return attested && mac_ok && seq_ok && path_ok; }

    // Field-wise equality: the rollout determinism gates (pooled wave
    // gate == serial wave gate) compare whole verdicts, so a new field
    // is covered automatically.
    bool operator==(const AttestResult&) const = default;
  };

  // Challenge one device now: fresh nonce, drain at most `max_edges`
  // edges of its log (0 = everything), check MAC + sequence + path.
  // Every verdict the service issues -- sweeps included -- comes from
  // this one body. Replay state persists across calls, so a sequence of
  // bounded slices replays exactly the evidence one full drain would,
  // in order, and a hijack is convicted at the same edge (see
  // eilid::IncrementalVerifier, which schedules slices). A fleet
  // session with no CFA monitor is not an error -- there is simply no
  // evidence to collect -- so the result comes back with attested =
  // false (ok() false). Throws eilid::FleetError, draining nothing,
  // when `session` is not the fleet's registry entry for its id.
  AttestResult attest(DeviceSession& session, size_t max_edges = 0);

  // Batched sweep over every kCfaBaseline device, in device-id order.
  // The overload fans the sweep out across the pool's workers with
  // per-device locking; its results are identical to the serial sweep
  // (same verdicts, same id order) because every device's replay state
  // and sequence window are independent and nonces only feed the
  // per-report MAC.
  std::vector<AttestResult> verify_all();
  std::vector<AttestResult> verify_all(common::ThreadPool& pool);

  // Subset sweep: attest exactly `sessions` (a rollout wave, a canary
  // cohort) instead of every device -- devices outside the subset are
  // not swept, so a wave gate never drains evidence from devices still
  // on the old build. Results come back in device-id order regardless
  // of the input order, matching the whole-fleet sweep's contract, and
  // each attestation takes the device's session mutex, so a subset
  // sweep interleaves safely with a concurrent full sweep or workload
  // driver. A session with no CFA monitor yields an attested = false
  // entry (never ok()). Throws eilid::FleetError, before draining any
  // device, on a null session, a duplicate device id, or a session
  // that is not the fleet's registry entry for its id. The pooled
  // overload fans out with per-device locking and returns results
  // identical to the serial subset sweep.
  std::vector<AttestResult> verify_all(
      const std::vector<DeviceSession*>& sessions);
  std::vector<AttestResult> verify_all(
      const std::vector<DeviceSession*>& sessions, common::ThreadPool& pool);

  // Sanction the code change `session` just logged: stage a replay-CFG
  // swap to the CFG of the session's *current* build (BuildResult::cfg,
  // shared by every device of that build), taking effect when the
  // device's evidence stream reaches its update marker. Caller must
  // hold session.mutex() (UpdateCampaign does). Returns false -- and
  // stages nothing -- for a session with no CFA monitor or one whose
  // build carries no CFG. Throws eilid::FleetError when `session` is
  // not the fleet's registry entry for its id.
  bool stage_cfg_swap(DeviceSession& session);

 private:
  friend class Fleet;
  template <typename T>
  friend struct CfaBooks;  // judges its slots' resolved targets

  // The verifier's books for one kCfaBaseline device, held in the
  // device's registry entry and guarded by its session mutex.
  struct Books {
    cfa::CfaVerifier verifier;
    uint32_t expected_seq = 0;
  };
  explicit VerifierService(Fleet& fleet) : fleet_(fleet) {}

  // Fresh books replaying against `build`'s own CFG (shared read-only
  // by every device of the build). Throws when the build has none.
  static Books open_books(const std::string& device_id,
                          const core::BuildResult& build,
                          const crypto::Digest& attest_key);
  // A session resolved to its registry entry: `books` is null for a
  // device with no CFA monitor.
  struct Target {
    DeviceSession* session = nullptr;
    Books* books = nullptr;
  };

  // The registry entry behind `session`; throws when it is not the
  // fleet's entry for its id. _locked: caller holds devices_mu_.
  Target resolve(DeviceSession& session) const;
  Target resolve_locked(DeviceSession& session) const;
  std::vector<Target> all_targets() const;  // kCfaBaseline, id order
  // A validated subset in id order: throws on a null session, a
  // duplicate id or a session that resolve() refuses.
  std::vector<Target> subset_targets(
      const std::vector<DeviceSession*>& sessions) const;
  // The verdict body: drain and judge one resolved device.
  AttestResult judge(const Target& target, size_t max_edges);
  // The one sweep body behind every verify_all overload: judge each of
  // the id-ordered `targets`, serially (null pool) or pooled.
  std::vector<AttestResult> sweep(const std::vector<Target>& targets,
                                  common::ThreadPool* pool);

  Fleet& fleet_;
  std::atomic<uint64_t> nonce_counter_{1};
};

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
