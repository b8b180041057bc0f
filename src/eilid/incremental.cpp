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
    : fleet_(&fleet),
      options_(options),
      // A positive byte budget drains at least one edge per slice.
      max_edges_per_slice_(
          options.max_bytes_per_slice == 0
              ? 0
              : std::max<size_t>(1, options.max_bytes_per_slice /
                                        cfa::LoggedEdge::kWireBytes)) {
  if (options_.period == 0) {
    throw FleetError("incremental verifier: period must be nonzero");
  }
}

IncrementalVerifier::WindowReport IncrementalVerifier::run_until(
    Tick deadline, common::ThreadPool& pool) {
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
  while (next_round_ <= deadline) {
    clock.advance_to(next_round_);
    Round round;
    round.tick = next_round_;

    // Sync the books with the registry's CFA devices each round (a
    // no-op unless a deploy or decommission moved the registry):
    // deployments mid-window join the rotation, decommissioned ids drop
    // out with their summaries, and a redeployed id starts a fresh one.
    {
      std::lock_guard<std::mutex> lock(mu_);
      books_.sync(*fleet_, [](const std::string&) { return AttestSummary{}; });
    }

    // Resume the cyclic id-order walk strictly after the cursor. The
    // cursor advances past *examined* devices, not just sliced ones, so
    // a run of offline devices cannot stall the rotation. Only
    // run_until() changes the books, so walking them needs no lock.
    auto& slots = books_.slots;
    const size_t budget = options_.max_devices_per_tick == 0
                              ? slots.size()
                              : options_.max_devices_per_tick;
    std::vector<Books::Slot*> picked;
    auto it = slots.upper_bound(cursor_);
    for (size_t examined = 0;
         examined < slots.size() && picked.size() < budget; ++examined) {
      if (it == slots.end()) it = slots.begin();
      cursor_ = it->first;
      if (it->second.target.session->online()) picked.push_back(&it->second);
      ++it;
    }

    // Slices land by rotation index: pooled workers interleave but the
    // round -- and every fold below -- is bit-identical to the serial
    // one (per-device evidence and replay state are private; each
    // verdict takes the device's own lock).
    round.slices.resize(picked.size());
    pool.parallel_for(picked.size(), [&](size_t i) {
      round.slices[i] = Books::judge(*fleet_, *picked[i], max_edges_per_slice_);
    });
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < picked.size(); ++i) {
        fold(picked[i]->value, round.slices[i]);
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
  for (const auto& [id, slot] : books_.slots) {
    // fold() names the summary, so an unnamed one was never reached.
    if (!slot.value.device_id.empty()) out.push_back(slot.value);
  }
  return out;
}

}  // namespace eilid
