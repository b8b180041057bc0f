// Incremental windowed attestation: drain and replay each device's CFA
// log in bounded slices on a rolling schedule, instead of one barrier
// verify_all() that stops the world and materializes every device's
// full log at once. This is what makes verification *scale*: at 10k
// devices the barrier sweep's cost (and peak memory) is proportional
// to the whole fleet's accumulated evidence, while the windowed
// verifier touches at most max_devices_per_tick devices per round and
// at most max_bytes_per_slice of evidence per device -- ACFA-style log
// slices, scheduled by fleet time.
//
// Verdict semantics are identical to the barrier sweep by
// construction, not by luck:
//
//   - A bounded CfaMonitor::take_report drains oldest-first and leaves
//     the remainder, so the slice sequence carries exactly the
//     evidence one unbounded report would, in order, each slice MAC'd
//     and sequence-numbered like any report.
//   - The verifier's replay state persists across reports (it always
//     has), so replaying N slices walks the same edge sequence as
//     replaying one big report: a hijack is convicted at exactly the
//     same edge, in whichever slice it falls. Update (epoch) markers
//     and reset markers are ordinary logged edges and are honored
//     mid-window exactly as mid-report.
//   - fold() collapses a device's slice verdicts into one
//     AttestSummary with sticky conviction; folding the barrier
//     sweep's single verdict through the same fold yields a
//     bit-identical summary (tests/test_fleet_scale.cpp gates this on
//     a mixed-policy fleet, serial and pooled).
//
// Concurrency contract: run_until fans each round's slices out over
// its pool (the fleet-wide pool contract in eilid/fleet.h) with the
// same per-device DeviceSession::mutex() locking as
// VerifierService::verify_all, so rounds interleave safely with
// heartbeat sweeps, rollouts and workload drivers.
// Like the other schedulers, the object itself is single-driver: one
// run_until at a time, though summaries() may be read concurrently.
#ifndef EILID_EILID_INCREMENTAL_H
#define EILID_EILID_INCREMENTAL_H

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "eilid/clock.h"
#include "eilid/fleet.h"

namespace eilid {

struct IncrementalOptions {
  // Ticks between verification rounds.
  Tick period = 10;
  // Devices sliced per round (0 = every watched device). The rotation
  // cursor walks the fleet in device-id order across rounds, so every
  // device is reached regardless of fleet size.
  size_t max_devices_per_tick = 64;
  // Evidence budget per slice, in wire bytes (LoggedEdge::kWireBytes
  // per edge; 0 = unbounded, degenerating to a full drain). This is
  // the verifier's peak per-device working set, the knob the paper's
  // "voluminous logs" pressure pushes on.
  size_t max_bytes_per_slice = 64 * cfa::LoggedEdge::kWireBytes;
};

// A device's attestation history folded to one verdict. Conviction is
// sticky: the first slice that fails the path check pins path_ok and
// first_bad forever (later slices keep draining -- evidence keeps
// flowing, matching the barrier sweep's freshness behavior -- but
// cannot un-convict). Meaningful after at least one fold; the ok
// fields start true so folding is pure accumulation.
struct AttestSummary {
  std::string device_id;
  bool attested = true;  // every fold carried evidence
  bool mac_ok = true;    // no report ever failed authentication
  bool seq_ok = true;    // no report ever arrived out of sequence
  bool path_ok = true;   // replay never left the CFG
  uint64_t edges = 0;    // total evidence replayed
  uint64_t dropped = 0;  // total evidence lost to on-device overflow
  std::optional<cfa::LoggedEdge> first_bad;  // first convicting edge

  bool convicted() const { return !(attested && mac_ok && seq_ok && path_ok); }

  bool operator==(const AttestSummary&) const = default;
};

// Fold one verdict (a bounded slice or a barrier sweep's full drain)
// into a summary. The single definition both sides of the
// barrier==windowed identity gate share.
void fold(AttestSummary& summary, const VerifierService::AttestResult& result);

class IncrementalVerifier {
 public:
  // One round: the slices collected at one due tick, in rotation
  // order (the cyclic device-id walk, offline devices skipped).
  struct Round {
    Tick tick = 0;
    std::vector<VerifierService::AttestResult> slices;

    bool operator==(const Round&) const = default;
  };

  struct WindowReport {
    Tick from = 0;   // clock at run_until entry
    Tick until = 0;  // clock at return (== the requested deadline)
    std::vector<Round> rounds;  // in tick order

    bool operator==(const WindowReport&) const = default;
  };

  // Rotates over the fleet's kCfaBaseline devices: every round syncs
  // the verifier's CfaBooks with the registry, so devices deployed later
  // join on that round, decommissioned devices leave the rotation and
  // their summaries are pruned with them, and an id decommissioned and
  // deployed again folds into a fresh summary. A slot's verifier target
  // is valid until decommission, which must not race a run (the fleet
  // contract). Throws eilid::FleetError on period == 0.
  explicit IncrementalVerifier(Fleet& fleet, IncrementalOptions options = {});

  // Advance fleet time to `deadline`, firing a round every `period`
  // ticks on the way: rotate to the next max_devices_per_tick online
  // devices, drain at most max_bytes_per_slice from each over `pool`
  // (the same verdict body, per-device locks and replay state as the
  // barrier sweeps and VerifierService::attest(session, max_edges)),
  // and fold every verdict into the per-device summaries. If another
  // scheduler advanced the clock past the pending round between
  // calls, the cadence re-anchors at the current tick (no backlog of
  // degenerate rounds is replayed).
  WindowReport run_until(
      Tick deadline, common::ThreadPool& pool = common::ThreadPool::serial());

  // Folded summaries of the watched devices the rotation has reached,
  // sorted by device id. A decommissioned device's summary is pruned at
  // the next round.
  std::vector<AttestSummary> summaries() const;

  const IncrementalOptions& options() const { return options_; }

 private:
  Fleet* fleet_;
  IncrementalOptions options_;
  // The per-slice edge budget max_bytes_per_slice implies (0 when
  // unbounded).
  const size_t max_edges_per_slice_;

  // Only run_until() changes the books; it takes mu_ to do so, and so do
  // the concurrent readers.
  mutable std::mutex mu_;
  using Books = CfaBooks<AttestSummary>;
  Books books_;
  // Rotation state: the id the last round stopped at (next round
  // resumes strictly after it, wrapping), and the next due tick.
  std::string cursor_;
  Tick next_round_ = 0;
  bool scheduled_ = false;
};

}  // namespace eilid

#endif  // EILID_EILID_INCREMENTAL_H
