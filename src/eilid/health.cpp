#include "eilid/health.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace eilid {

// --- HeartbeatScheduler ---------------------------------------------

HeartbeatScheduler::HeartbeatScheduler(Fleet& fleet, HeartbeatOptions options)
    : fleet_(&fleet), options_(options) {
  if (options_.period == 0) options_.period = 1;
}

Tick HeartbeatScheduler::phase_for(const std::string& device_id) const {
  if (options_.jitter == 0) return 0;
  // Keyed stream: the phase is a pure function of (seed, id), identical
  // on every platform and every run -- jitter spreads the fleet across
  // ticks without making any schedule non-reproducible.
  auto rng = common::SeededRng::keyed(options_.jitter_seed, device_id);
  return static_cast<Tick>(rng.below(options_.jitter + 1));
}

HeartbeatReport HeartbeatScheduler::run_until(Tick deadline) {
  return run(deadline, nullptr);
}

HeartbeatReport HeartbeatScheduler::run_until(Tick deadline,
                                              common::ThreadPool& pool) {
  return run(deadline, &pool);
}

HeartbeatReport HeartbeatScheduler::run(Tick deadline,
                                        common::ThreadPool* pool) {
  FleetClock& clock = fleet_->clock();
  HeartbeatReport report;
  report.from = clock.now();

  // Adopt and prune by merge-walking the records against the registry's
  // id-ordered CFA devices (only they emit announcements): devices
  // deployed since the last run join with enrollment == now,
  // decommissioned ids drop out (their session pointers are gone), and
  // an id deployed again since then restarts with a fresh record.
  const std::vector<Fleet::CfaDevice> devices = fleet_->cfa_devices();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Tick now = clock.now();
    auto it = records_.begin();
    for (const Fleet::CfaDevice& device : devices) {
      const std::string& id = device.session->id();
      while (it != records_.end() && it->first < id) it = records_.erase(it);
      if (it == records_.end() || it->first != id) {
        it = records_.emplace_hint(it, id, Watched{});
      }
      Watched& watched = it->second;
      if (watched.device.deployed != device.deployed) {
        watched.device = device;
        watched.record = FreshnessRecord{};
        watched.record.device_id = id;
        watched.record.enrolled_tick = now;
        watched.record.next_due = now + options_.period + phase_for(id);
      }
      ++it;
    }
    records_.erase(it, records_.end());
  }

  // Fire beats in (tick, device-id) order: repeatedly find the earliest
  // due tick <= deadline, advance the clock to it, and sweep every
  // device due on exactly that tick. Map iteration gives id order for
  // free within a beat.
  for (;;) {
    Tick due = 0;
    std::vector<DeviceSession*> due_devices;
    {
      std::lock_guard<std::mutex> lock(mu_);
      bool found = false;
      for (const auto& [id, watched] : records_) {
        const Tick next_due = watched.record.next_due;
        if (next_due > deadline) continue;
        if (!found || next_due < due) {
          found = true;
          due = next_due;
          due_devices.clear();
        }
        if (next_due == due) due_devices.push_back(watched.device.session);
      }
      if (!found) break;
    }

    clock.advance_to(due);
    HeartbeatBeat beat;
    beat.tick = due;

    std::vector<DeviceSession*> online;
    for (DeviceSession* session : due_devices) {
      if (session->online()) {
        online.push_back(session);
      } else {
        beat.missed.push_back(session->id());
      }
    }
    if (!online.empty()) {
      beat.verdicts = pool == nullptr
                          ? fleet_->verifier().verify_all(online)
                          : fleet_->verifier().verify_all(online, *pool);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const std::string& id : beat.missed) {
        FreshnessRecord& record = records_.at(id).record;
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
      for (const VerifierService::AttestResult& verdict : beat.verdicts) {
        FreshnessRecord& record = records_.at(verdict.device_id).record;
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
  out.reserve(records_.size());
  for (const auto& [id, watched] : records_) out.push_back(watched.record);
  return out;
}

FreshnessRecord HeartbeatScheduler::record(const std::string& device_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(device_id);
  return it == records_.end() ? FreshnessRecord{} : it->second.record;
}

void HeartbeatScheduler::note_remediated(const std::string& device_id,
                                         Tick tick) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(device_id);
  if (it == records_.end()) return;
  FreshnessRecord& record = it->second.record;
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

namespace {

// Erase every id from `books` (an id-keyed map) that `records` (sorted
// by id) does not list: one merge walk over both.
template <typename Map>
void keep_watched(Map& books, const std::vector<FreshnessRecord>& records) {
  auto record = records.begin();
  for (auto it = books.begin(); it != books.end();) {
    while (record != records.end() && record->device_id < it->first) ++record;
    if (record != records.end() && record->device_id == it->first) {
      ++it;
    } else {
      it = books.erase(it);
    }
  }
}

}  // namespace

HealthMonitor::HealthMonitor(Fleet& fleet, HealthOptions options)
    : fleet_(&fleet), options_(options), scheduler_(fleet, options.heartbeat) {}

void HealthMonitor::stage_remediation(UpdateCampaign campaign) {
  std::lock_guard<std::mutex> lock(mu_);
  remediation_.emplace(std::move(campaign));
}

std::vector<QuarantineEntry> HealthMonitor::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QuarantineEntry> out;
  out.reserve(quarantine_.size());
  for (const auto& [id, entry] : quarantine_) out.push_back(entry);
  return out;
}

HealthReport HealthMonitor::run_until(Tick deadline) {
  return run(deadline, nullptr);
}

HealthReport HealthMonitor::run_until(Tick deadline,
                                      common::ThreadPool& pool) {
  return run(deadline, &pool);
}

RemediationOutcome HealthMonitor::remediate_one(const QuarantineEntry& entry,
                                                Tick now) {
  RemediationOutcome out;
  out.device_id = entry.device_id;
  out.reason = entry.reason;
  out.tick = now;
  DeviceSession* session = fleet_->find(entry.device_id);
  if (session == nullptr || !session->online()) {
    // Unreachable: a decommissioned or offline device cannot be reset
    // or re-updated. It stays quarantined for the next pass.
    return out;
  }
  out.reachable = true;
  // Reset half: factory-restore the recorded image under the device's
  // lock (a concurrent sweep of this device must not observe a
  // half-reflashed machine), so even a diverged device is updatable.
  {
    std::lock_guard<std::mutex> lock(session->mutex());
    session->reflash();
  }
  // Re-update half: the ordinary campaign lifecycle (fresh epoch
  // marker, replay-CFG swap, per-device lock inside). kAlreadyCurrent
  // is a success -- a stale-but-current device just needed the reset.
  out.update = remediation_->apply_to(*session);
  // Prove the heal: an immediate attestation. The reset marker logged
  // by reflash() clears the verifier's replay stacks, so pre-reset
  // evidence (including what convicted the device) cannot taint this
  // verdict.
  out.verdict = fleet_->verifier().attest(*session);
  out.healed = out.update.ok() && out.verdict.ok();
  return out;
}

HealthReport HealthMonitor::run(Tick deadline, common::ThreadPool* pool) {
  HealthReport report;
  report.heartbeats = scheduler_.run(deadline, pool);
  const Tick now = fleet_->clock().now();

  // Assess every watched device against the policy; latch new
  // quarantines. Records come back sorted by id, so the report is too.
  const std::vector<FreshnessRecord> records = scheduler_.records();
  std::vector<QuarantineEntry> to_remediate;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Drop quarantine entries and heal counts for devices the scheduler
    // no longer watches (decommissioned): there is nothing left to
    // remediate.
    keep_watched(quarantine_, records);
    keep_watched(heal_attempts_, records);
    const uint32_t max_attempts = options_.policy.max_heal_attempts;
    for (const FreshnessRecord& record : records) {
      const QuarantineReason reason = assess(record, now, options_.policy);
      if (reason == QuarantineReason::kNone) continue;
      if (quarantine_.count(record.device_id) != 0) continue;
      QuarantineEntry entry;
      entry.device_id = record.device_id;
      entry.reason = reason;
      entry.since = now;
      entry.remediation_attempts = heal_attempts_[record.device_id];
      // A device re-entering quarantine with its lifetime attempt
      // budget already spent escalates immediately: the previous heals
      // did not stick, so another automated pass would too.
      if (max_attempts != 0 && entry.remediation_attempts >= max_attempts) {
        entry.reason = QuarantineReason::kEscalated;
        report.escalated.push_back(entry);
      }
      quarantine_.emplace(record.device_id, entry);
      report.newly_quarantined.push_back(std::move(entry));
    }
    if (remediation_.has_value()) {
      to_remediate.reserve(quarantine_.size());
      for (const auto& [id, entry] : quarantine_) {
        // Terminal: escalated devices wait for the operator.
        if (entry.reason == QuarantineReason::kEscalated) continue;
        to_remediate.push_back(entry);
      }
    }
  }

  const size_t reentry_escalations = report.escalated.size();

  // Remediate (campaign staged only): one attempt per quarantined
  // device, outcomes indexed by sorted id so the pooled pass is
  // bit-identical to the serial one (each device's outcome depends on
  // its own state alone; the clock does not advance mid-pass).
  if (!to_remediate.empty()) {
    std::vector<RemediationOutcome> outcomes(to_remediate.size());
    common::for_each_index(pool, to_remediate.size(), [&](size_t i) {
      outcomes[i] = remediate_one(to_remediate[i], now);
    });
    std::lock_guard<std::mutex> lock(mu_);
    const uint32_t max_attempts = options_.policy.max_heal_attempts;
    for (const RemediationOutcome& outcome : outcomes) {
      if (outcome.healed) {
        quarantine_.erase(outcome.device_id);
        scheduler_.note_remediated(outcome.device_id, now);
        continue;
      }
      const uint32_t attempts = ++heal_attempts_[outcome.device_id];
      auto it = quarantine_.find(outcome.device_id);
      if (it == quarantine_.end()) continue;
      it->second.remediation_attempts = attempts;
      if (max_attempts != 0 && attempts >= max_attempts) {
        it->second.reason = QuarantineReason::kEscalated;
        report.escalated.push_back(it->second);
      }
    }
    report.remediations = std::move(outcomes);
  }

  // Escalations accrete from two id-ordered runs (budget-exhausted
  // re-entry, then the just-failed attempts); merge them to keep the
  // report's sorted-by-id contract.
  std::inplace_merge(report.escalated.begin(),
                     report.escalated.begin() + reentry_escalations,
                     report.escalated.end(),
                     [](const QuarantineEntry& a, const QuarantineEntry& b) {
                       return a.device_id < b.device_id;
                     });
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.quarantined_after = quarantine_.size();
  }
  return report;
}

}  // namespace eilid
