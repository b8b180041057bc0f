#include "eilid/incremental.h"

#include <algorithm>

#include "common/error.h"

namespace eilid {

void fold(AttestSummary& summary,
          const VerifierService::AttestResult& result) {
  summary.device_id = result.device_id;
  summary.attested = summary.attested && result.attested;
  summary.mac_ok = summary.mac_ok && result.mac_ok;
  summary.seq_ok = summary.seq_ok && result.seq_ok;
  summary.edges += result.edges;
  summary.dropped += result.dropped;
  // Sticky conviction: the first failing slice pins the verdict. The
  // first bad edge is the same edge the barrier sweep would name --
  // every edge before it replayed clean, in order, so the replay state
  // at that point is identical under any slicing.
  if (summary.path_ok && !result.path_ok) {
    summary.path_ok = false;
    summary.first_bad = result.first_bad;
  }
}

IncrementalVerifier::IncrementalVerifier(Fleet& fleet,
                                         IncrementalOptions options)
    : fleet_(&fleet), options_(options) {
  if (options_.period == 0) {
    throw FleetError("incremental verifier: period must be nonzero");
  }
}

size_t IncrementalVerifier::max_edges_per_slice() const {
  if (options_.max_bytes_per_slice == 0) return 0;  // unbounded
  const size_t edges = options_.max_bytes_per_slice / cfa::LoggedEdge::kWireBytes;
  return edges == 0 ? 1 : edges;  // a positive byte budget drains >= 1
}

IncrementalVerifier::WindowReport IncrementalVerifier::run_until(
    Tick deadline) {
  return run(deadline, nullptr);
}

IncrementalVerifier::WindowReport IncrementalVerifier::run_until(
    Tick deadline, common::ThreadPool& pool) {
  return run(deadline, &pool);
}

IncrementalVerifier::WindowReport IncrementalVerifier::run(
    Tick deadline, common::ThreadPool* pool) {
  FleetClock& clock = fleet_->clock();
  WindowReport report;
  report.from = clock.now();
  if (!scheduled_ || next_round_ < report.from) {
    // First run, or the driver advanced the clock elsewhere (a
    // heartbeat window, a rollout soak) past the pending round:
    // re-anchor the cadence at now instead of replaying a backlog of
    // degenerate rounds all at the same (already-reached) tick.
    next_round_ = report.from + options_.period;
    scheduled_ = true;
  }
  const size_t max_edges = max_edges_per_slice();

  while (next_round_ <= deadline) {
    clock.advance_to(next_round_);
    Round round;
    round.tick = next_round_;

    // Re-read the registry's id-ordered CFA devices each round so
    // deployments mid-window join the rotation.
    const std::vector<Fleet::CfaDevice> devices = fleet_->cfa_devices();

    if (!devices.empty()) {
      // Resume the cyclic id-order walk strictly after the cursor. The
      // cursor advances past *examined* devices, not just sliced ones,
      // so a run of offline devices cannot stall the rotation.
      const size_t start =
          std::upper_bound(devices.begin(), devices.end(), cursor_,
                           [](const std::string& cursor,
                              const Fleet::CfaDevice& device) {
                             return cursor < device.session->id();
                           }) -
          devices.begin();
      const size_t budget = options_.max_devices_per_tick == 0
                                ? devices.size()
                                : options_.max_devices_per_tick;
      std::vector<const Fleet::CfaDevice*> picked;
      for (size_t examined = 0;
           examined < devices.size() && picked.size() < budget; ++examined) {
        const Fleet::CfaDevice& device =
            devices[(start + examined) % devices.size()];
        cursor_ = device.session->id();
        if (device.session->online()) picked.push_back(&device);
      }

      // Slices land by rotation index: pooled workers interleave but
      // the round -- and every fold below -- is bit-identical to the
      // serial one (per-device evidence and replay state are private;
      // attest takes the device's own lock).
      round.slices.resize(picked.size());
      common::for_each_index(pool, picked.size(), [&](size_t i) {
        round.slices[i] =
            fleet_->verifier().attest(*picked[i]->session, max_edges);
      });

      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < picked.size(); ++i) {
        Folded& folded = summaries_[picked[i]->session->id()];
        if (folded.deployed != picked[i]->deployed) {
          // First slice of this device, or of a redeployed id: the
          // previous device's history is not this one's.
          folded = Folded{AttestSummary{}, picked[i]->deployed};
        }
        fold(folded.summary, round.slices[i]);
      }
    }

    report.rounds.push_back(std::move(round));
    next_round_ += options_.period;
  }

  clock.advance_to(deadline);
  report.until = clock.now();
  return report;
}

std::vector<AttestSummary> IncrementalVerifier::summaries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<AttestSummary> out;
  out.reserve(summaries_.size());
  for (const auto& [id, folded] : summaries_) out.push_back(folded.summary);
  return out;
}

AttestSummary IncrementalVerifier::summary(
    const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = summaries_.find(device_id);
  return it == summaries_.end() ? AttestSummary{} : it->second.summary;
}

}  // namespace eilid
