// VerifierService, the verifier half of a Fleet (eilid/fleet.h). It has
// its own header so eilid/update.h can name a session resolved to its
// registry entry without depending on the Fleet.
#ifndef EILID_EILID_VERIFIER_H
#define EILID_EILID_VERIFIER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cfa/attestation.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "eilid/clock.h"
#include "eilid/session.h"

namespace eilid {

class Fleet;
class UpdateCampaign;
template <typename T>
struct CfaBooks;

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

  // Batched sweep over every kCfaBaseline device, in device-id order,
  // fanned out over `pool` with per-device locking.
  std::vector<AttestResult> verify_all(
      common::ThreadPool& pool = common::ThreadPool::serial());

  // Subset sweep: attest exactly `sessions` (a rollout wave, a canary
  // cohort) instead of every device -- devices outside the subset are
  // not swept, so a wave gate never drains evidence from devices still
  // on the old build, and an empty subset judges nothing. Results come
  // back in device-id order regardless of the input order, matching
  // the whole-fleet sweep's contract, and each attestation takes the
  // device's session mutex, so a subset sweep interleaves safely with
  // a concurrent full sweep or workload driver. A session with no CFA
  // monitor yields an attested = false entry (never ok()). Throws
  // eilid::FleetError, before draining any device, on a null session,
  // a duplicate device id, or a session that is not the fleet's
  // registry entry for its id. Neither sweep's verdicts depend on the
  // pool: each device's replay state and sequence window are its own,
  // and nonces only feed the per-report MAC.
  std::vector<AttestResult> verify_all(
      const std::vector<DeviceSession*>& sessions,
      common::ThreadPool& pool = common::ThreadPool::serial());

 private:
  friend class Fleet;
  friend class UpdateCampaign;  // resolves sessions, stages CFG swaps
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
  // Every session resolved, in input order, under one registry lock:
  // throws on a null session or one that resolve() refuses.
  std::vector<Target> resolve_each(
      const std::vector<DeviceSession*>& sessions) const;
  std::vector<Target> all_targets() const;  // kCfaBaseline, id order
  // A validated subset in id order: throws on a null session, a
  // duplicate id or a session that resolve() refuses.
  std::vector<Target> subset_targets(
      const std::vector<DeviceSession*>& sessions) const;
  // The verdict body: drain and judge one resolved device.
  AttestResult judge(const Target& target, size_t max_edges);
  // The sweep body behind both verify_all signatures: judge each of
  // the id-ordered `targets` over `pool`.
  std::vector<AttestResult> sweep(const std::vector<Target>& targets,
                                  common::ThreadPool& pool);
  // Sanction the code change `target` just logged: stage a replay-CFG
  // swap to the CFG of the session's *current* build (BuildResult::cfg,
  // shared by every device of that build), taking effect when the
  // device's evidence stream reaches its update marker. Caller holds
  // the session's mutex (UpdateCampaign does). Returns false -- and
  // stages nothing -- for a device with no CFA monitor or a build
  // with no CFG.
  static bool stage_cfg_swap(const Target& target);

  Fleet& fleet_;
  std::atomic<uint64_t> nonce_counter_{1};
};

}  // namespace eilid

#endif  // EILID_EILID_VERIFIER_H
