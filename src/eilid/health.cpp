#include "eilid/health.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/rng.h"

namespace eilid {

// --- HeartbeatScheduler ---------------------------------------------

HeartbeatScheduler::HeartbeatScheduler(Fleet& fleet, HeartbeatOptions options)
    : fleet_(&fleet), options_(options) {
  if (options_.period == 0) {
    throw FleetError("heartbeat scheduler: period must be nonzero");
  }
}

Tick HeartbeatScheduler::phase_for(const std::string& device_id) const {
  if (options_.jitter == 0) return 0;
  // Keyed stream: the phase is a pure function of (seed, id), identical
  // on every platform and every run -- jitter spreads the fleet across
  // ticks without making any schedule non-reproducible.
  auto rng = common::SeededRng::keyed(options_.jitter_seed, device_id);
  return static_cast<Tick>(rng.below(options_.jitter + 1));
}

HeartbeatReport HeartbeatScheduler::run_until(Tick deadline,
                                              common::ThreadPool& pool) {
  FleetClock& clock = fleet_->clock();
  HeartbeatReport report;
  report.from = clock.now();

  // Only CFA devices emit announcements: devices deployed since the
  // last run (or deployed again) join with enrollment == now, and
  // decommissioned ids drop out (their session pointers are gone).
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Tick now = clock.now();
    books_.sync(*fleet_, [&](const std::string& id) {
      Watched watched;
      watched.record.device_id = id;
      watched.record.enrolled_tick = now;
      watched.record.next_due = now + options_.period + phase_for(id);
      return watched;
    });
  }

  // Fire beats in (tick, device-id) order: repeatedly find the earliest
  // due tick <= deadline, advance the clock to it, and judge every
  // device due on exactly that tick. Map iteration gives id order for
  // free within a beat. The slot pointers stay valid through the run:
  // only sync() changes the books.
  for (;;) {
    Tick due = 0;
    std::vector<Books::Slot*> due_slots;
    {
      std::lock_guard<std::mutex> lock(mu_);
      bool found = false;
      for (auto& [id, slot] : books_.slots) {
        const Tick next_due = slot.value.record.next_due;
        if (next_due > deadline) continue;
        if (!found || next_due < due) {
          found = true;
          due = next_due;
          due_slots.clear();
        }
        if (next_due == due) due_slots.push_back(&slot);
      }
      if (!found) break;
    }

    clock.advance_to(due);
    HeartbeatBeat beat;
    beat.tick = due;

    std::vector<Books::Slot*> online;
    std::vector<Books::Slot*> offline;
    for (Books::Slot* slot : due_slots) {
      if (slot->target.session->online()) {
        online.push_back(slot);
      } else {
        offline.push_back(slot);
        beat.missed.push_back(slot->target.session->id());
      }
    }
    // Verdicts land by index, so the pooled beat is bit-identical to
    // the serial one (each device's evidence and books are private).
    beat.verdicts.resize(online.size());
    pool.parallel_for(online.size(), [&](size_t i) {
      beat.verdicts[i] = Books::judge(*fleet_, *online[i]);
    });

    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Books::Slot* slot : offline) {
        FreshnessRecord& record = slot->value.record;
        ++record.misses;
        ++record.consecutive_misses;
        // Exponential backoff (see HeartbeatOptions): the k-th
        // consecutive miss waits period << min(k, cap). Shift clamped
        // well below the Tick width so a pathological cap cannot
        // overflow the schedule.
        const uint32_t exponent = std::min(
            {record.consecutive_misses, options_.max_backoff_exponent,
             uint32_t{48}});
        record.next_due += options_.period << exponent;
      }
      for (size_t i = 0; i < online.size(); ++i) {
        const VerifierService::AttestResult& verdict = beat.verdicts[i];
        FreshnessRecord& record = online[i]->value.record;
        ++record.heartbeats;
        record.consecutive_misses = 0;  // evidence arrived: cadence snaps back
        record.last_attested_tick = due;
        record.ever_attested = true;
        if (verdict.ok()) {
          record.last_ok_tick = due;
          record.ever_ok = true;
        } else {
          // Latched until note_remediated: a later clean beat (an empty
          // report from a device nobody ran) must not hide a conviction
          // from the HealthMonitor pass that follows this sweep.
          record.convicted = true;
        }
        record.next_due += options_.period;
      }
    }
    report.beats.push_back(std::move(beat));
  }

  clock.advance_to(deadline);
  report.until = clock.now();
  return report;
}

std::vector<FreshnessRecord> HeartbeatScheduler::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FreshnessRecord> out;
  out.reserve(books_.slots.size());
  for (const auto& [id, slot] : books_.slots) out.push_back(slot.value.record);
  return out;
}

void HeartbeatScheduler::note_remediated(FreshnessRecord& record, Tick tick) {
  record.consecutive_misses = 0;
  record.last_attested_tick = tick;
  record.last_ok_tick = tick;
  record.ever_attested = true;
  record.ever_ok = true;
  record.convicted = false;
}

// --- quarantine decision --------------------------------------------

std::string_view quarantine_reason_name(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kNone: return "none";
    case QuarantineReason::kStale: return "stale";
    case QuarantineReason::kConvicted: return "convicted";
    case QuarantineReason::kEscalated: return "escalated";
  }
  return "?";
}

QuarantineReason assess(const FreshnessRecord& record, Tick now,
                        const HealthPolicy& policy) {
  if (record.convicted) return QuarantineReason::kConvicted;
  // Staleness is measured from the last *clean* verdict -- evidence
  // that keeps arriving but never verifies is exactly as stale as
  // silence. A device that has never verified clean ages from its
  // enrollment instead.
  const Tick anchor =
      record.ever_ok ? record.last_ok_tick : record.enrolled_tick;
  const Tick age = now >= anchor ? now - anchor : 0;
  if (age > policy.staleness_threshold) return QuarantineReason::kStale;
  return QuarantineReason::kNone;
}

// --- HealthMonitor --------------------------------------------------

HealthMonitor::HealthMonitor(Fleet& fleet, HealthOptions options)
    : fleet_(&fleet), options_(options), scheduler_(fleet, options.heartbeat) {}

void HealthMonitor::stage_remediation(UpdateCampaign campaign) {
  remediation_.emplace(std::move(campaign));
}

std::vector<QuarantineEntry> HealthMonitor::quarantined() const {
  std::lock_guard<std::mutex> lock(scheduler_.mu_);
  std::vector<QuarantineEntry> out;
  for (const auto& [id, slot] : scheduler_.books_.slots) {
    if (slot.value.quarantine) out.push_back(*slot.value.quarantine);
  }
  return out;
}

RemediationOutcome HealthMonitor::remediate_one(
    const HeartbeatScheduler::Books::Slot& slot, Tick now) {
  DeviceSession& session = *slot.target.session;
  const QuarantineEntry& entry = *slot.value.quarantine;
  RemediationOutcome out;
  out.device_id = entry.device_id;
  out.reason = entry.reason;
  out.tick = now;
  if (!session.online()) {
    // Unreachable: an offline device cannot be reset or re-updated. It
    // stays quarantined for the next pass.
    return out;
  }
  out.reachable = true;
  // Reset half: factory-restore the recorded image under the device's
  // lock (a concurrent sweep of this device must not observe a
  // half-reflashed machine), so even a diverged device is updatable.
  {
    std::lock_guard<std::mutex> lock(session.mutex());
    session.reflash();
  }
  // Re-update half: the ordinary campaign lifecycle (fresh epoch
  // marker, replay-CFG swap, per-device lock inside). kAlreadyCurrent
  // is a success -- a stale-but-current device just needed the reset.
  out.update = remediation_->apply(slot.target);
  // Prove the heal: an immediate attestation. The reset marker logged
  // by reflash() clears the verifier's replay stacks, so pre-reset
  // evidence (including what convicted the device) cannot taint this
  // verdict.
  out.verdict = HeartbeatScheduler::Books::judge(*fleet_, slot);
  out.healed = out.update.ok() && out.verdict.ok();
  return out;
}

HealthReport HealthMonitor::run_until(Tick deadline,
                                      common::ThreadPool& pool) {
  HealthReport report;
  report.heartbeats = scheduler_.run_until(deadline, pool);
  const Tick now = fleet_->clock().now();
  const uint32_t max_attempts = options_.policy.max_heal_attempts;
  auto& slots = scheduler_.books_.slots;

  // Assess every watched device against the policy and latch new
  // quarantines, in id order, so the report is sorted too. The slot
  // pointers stay valid through this pass: only runs change the books,
  // and decommission must not race a run.
  std::vector<const HeartbeatScheduler::Books::Slot*> to_remediate;
  {
    std::lock_guard<std::mutex> lock(scheduler_.mu_);
    for (auto& [id, slot] : slots) {
      HeartbeatScheduler::Watched& watched = slot.value;
      if (!watched.quarantine) {
        const QuarantineReason reason =
            assess(watched.record, now, options_.policy);
        if (reason == QuarantineReason::kNone) continue;
        watched.quarantine =
            QuarantineEntry{id, reason, now, watched.heal_attempts};
        report.newly_quarantined.push_back(*watched.quarantine);
      }
      // Terminal: escalated devices wait for the operator.
      if (remediation_.has_value() &&
          watched.quarantine->reason != QuarantineReason::kEscalated) {
        to_remediate.push_back(&slot);
      }
    }
  }

  // Remediate (campaign staged only): one attempt per quarantined
  // device, outcomes indexed by sorted id so the pooled pass is
  // bit-identical to the serial one (each device's outcome depends on
  // its own state alone; the clock does not advance mid-pass).
  report.remediations.resize(to_remediate.size());
  pool.parallel_for(to_remediate.size(), [&](size_t i) {
    report.remediations[i] = remediate_one(*to_remediate[i], now);
  });

  // Fold the outcomes back and escalate, in one id-ordered pass: a
  // healed device leaves quarantine with its freshness restarted; a
  // failed attempt counts against the device's lifetime budget, and a
  // quarantined device whose budget is spent becomes terminal.
  std::lock_guard<std::mutex> lock(scheduler_.mu_);
  auto outcome = report.remediations.begin();
  for (auto& [id, slot] : slots) {
    HeartbeatScheduler::Watched& watched = slot.value;
    if (outcome != report.remediations.end() && outcome->device_id == id) {
      if (outcome->healed) {
        watched.quarantine.reset();
        HeartbeatScheduler::note_remediated(watched.record, now);
      } else {
        watched.quarantine->remediation_attempts = ++watched.heal_attempts;
      }
      ++outcome;
    }
    if (!watched.quarantine) continue;
    ++report.quarantined_after;
    QuarantineEntry& entry = *watched.quarantine;
    if (max_attempts != 0 && entry.remediation_attempts >= max_attempts &&
        entry.reason != QuarantineReason::kEscalated) {
      entry.reason = QuarantineReason::kEscalated;
      report.escalated.push_back(entry);
    }
  }
  return report;
}

}  // namespace eilid
