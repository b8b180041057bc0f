#include "eilid/fleet.h"

#include <algorithm>

#include "common/error.h"
#include "eilid/rollout.h"

namespace eilid {

// ------------------------------------------------------------------
// VerifierService
// ------------------------------------------------------------------

VerifierService::Books VerifierService::open_books(
    const std::string& device_id, const core::BuildResult& build,
    const crypto::Digest& attest_key) {
  if (build.cfg == nullptr) {
    throw FleetError("verifier: device '" + device_id +
                     "' runs a build with no CFG to replay against "
                     "(build it with core::build_app or Fleet::build)");
  }
  return Books{cfa::CfaVerifier(build.cfg, attest_key), 0};
}

VerifierService::Target VerifierService::resolve_locked(
    DeviceSession& session) const {
  auto it = fleet_.devices_.find(session.id());
  if (it == fleet_.devices_.end() || it->second.session.get() != &session) {
    // Standalone, decommissioned, or aliasing a deployed id: judging it
    // against the entry's books would let it impersonate that device.
    throw FleetError("verifier: session '" + session.id() +
                     "' is not this fleet's device");
  }
  Fleet::Entry& entry = it->second;
  return Target{&session, entry.books.has_value() ? &*entry.books : nullptr};
}

VerifierService::Target VerifierService::resolve(
    DeviceSession& session) const {
  std::lock_guard<std::mutex> lock(fleet_.devices_mu_);
  return resolve_locked(session);
}

std::vector<VerifierService::Target> VerifierService::all_targets() const {
  std::vector<Target> targets;
  std::lock_guard<std::mutex> lock(fleet_.devices_mu_);
  for (auto& [id, entry] : fleet_.devices_) {
    if (entry.books.has_value()) {
      targets.push_back({entry.session.get(), &*entry.books});
    }
  }
  return targets;
}

std::vector<VerifierService::Target> VerifierService::resolve_each(
    const std::vector<DeviceSession*>& sessions) const {
  for (DeviceSession* session : sessions) {
    if (session == nullptr) {
      throw FleetError("verifier: null session");
    }
  }
  std::vector<Target> targets;
  targets.reserve(sessions.size());
  std::lock_guard<std::mutex> lock(fleet_.devices_mu_);
  for (DeviceSession* session : sessions) {
    targets.push_back(resolve_locked(*session));
  }
  return targets;
}

std::vector<VerifierService::Target> VerifierService::subset_targets(
    const std::vector<DeviceSession*>& sessions) const {
  // Resolve every member before draining any, so a refused session
  // leaves the whole subset's evidence where it was.
  std::vector<Target> targets = resolve_each(sessions);
  std::sort(targets.begin(), targets.end(),
            [](const Target& a, const Target& b) {
              return a.session->id() < b.session->id();
            });
  for (size_t i = 1; i < targets.size(); ++i) {
    if (targets[i - 1].session->id() == targets[i].session->id()) {
      throw FleetError("verifier: subset sweep lists device id '" +
                       targets[i].session->id() + "' twice");
    }
  }
  return targets;
}

bool VerifierService::stage_cfg_swap(const Target& target) {
  std::shared_ptr<const cfa::Cfg> cfg = target.session->build().cfg;
  if (target.books == nullptr || cfg == nullptr) return false;
  // The caller holds the session's mutex, which is exactly the lock
  // that guards the books' replay verifier.
  target.books->verifier.queue_cfg_swap(std::move(cfg));
  return true;
}

VerifierService::AttestResult VerifierService::attest(DeviceSession& session,
                                                      size_t max_edges) {
  return judge(resolve(session), max_edges);
}

VerifierService::AttestResult VerifierService::judge(const Target& target,
                                                     size_t max_edges) {
  DeviceSession& session = *target.session;
  AttestResult out;
  out.device_id = session.id();
  if (target.books == nullptr) {
    // Nothing to challenge: no on-device evidence exists. Report the
    // gap instead of throwing so a sweep over a mixed-policy batch
    // degrades per device rather than aborting.
    return out;
  }
  // Per-device locking: the session mutex guards both the log being
  // drained and the books it is judged against.
  std::lock_guard<std::mutex> lock(session.mutex());
  Books& books = *target.books;

  out.attested = true;
  out.tick = fleet_.clock().now();

  const uint64_t nonce =
      nonce_counter_.fetch_add(1, std::memory_order_relaxed);
  // The drained slice lands in this thread's reused report: a fresh
  // multi-page edge vector per verdict costs more in first-touch page
  // faults than copying the edges does.
  thread_local cfa::Report report;
  session.cfa_monitor()->take_report(nonce, session.machine().cycles(),
                                     max_edges, report);
  out.remaining = session.cfa_monitor()->log_size();
  out.seq = report.seq;
  out.cycle = report.cycle;
  out.edges = report.edges.size();
  out.dropped = report.dropped;
  out.seq_ok = report.seq == books.expected_seq;
  books.expected_seq = report.seq + 1;

  cfa::CfaVerifier::Result v = books.verifier.verify(report, nonce);
  out.mac_ok = v.mac_ok;
  out.path_ok = v.path_ok;
  out.first_bad = v.first_bad;
  return out;
}

std::vector<VerifierService::AttestResult> VerifierService::sweep(
    const std::vector<Target>& targets, common::ThreadPool& pool) {
  // Results land by index: pooled workers interleave, but the output
  // order is deterministic and the verdicts match the serial sweep
  // because each device's evidence, replay state and sequence window
  // are private to it.
  std::vector<AttestResult> out(targets.size());
  pool.parallel_for(targets.size(),
                    [&](size_t i) { out[i] = judge(targets[i], 0); });
  return out;
}

std::vector<VerifierService::AttestResult> VerifierService::verify_all(
    common::ThreadPool& pool) {
  return sweep(all_targets(), pool);
}

std::vector<VerifierService::AttestResult> VerifierService::verify_all(
    const std::vector<DeviceSession*>& sessions, common::ThreadPool& pool) {
  return sweep(subset_targets(sessions), pool);
}

// ------------------------------------------------------------------
// Fleet
// ------------------------------------------------------------------

namespace {

// Content hash of everything that determines a BuildResult. Two
// provisioning calls with the same source and build shape share one
// pipeline run through this key.
crypto::Digest build_key(const std::string& source, const std::string& name,
                         const core::BuildOptions& o) {
  const core::RomConfig& rom = o.rom;
  const core::InstrumentConfig& in = o.instrument;
  std::string meta = "eilid-build-v2|" + name + "|";
  auto flag = [&meta](bool b) { meta += b ? '1' : '0'; };
  auto num = [&meta](uint64_t v) { meta += std::to_string(v) + ","; };
  flag(o.eilid);
  flag(in.backward_edge);
  flag(in.interrupt_edge);
  flag(in.forward_edge);
  flag(in.label_mode);
  num(static_cast<uint64_t>(in.table_policy));
  num(rom.secure_base);
  num(rom.secure_size);
  num(rom.table_capacity);
  flag(rom.memory_backed_index);
  meta += '|';

  crypto::Sha256 h;
  h.update(meta);
  h.update(source);
  return h.finish();
}

}  // namespace

Fleet::Fleet(FleetOptions options) : options_(std::move(options)) {}

std::shared_ptr<const core::BuildResult> Fleet::build(
    const std::string& source, const std::string& name,
    const core::BuildOptions& options) {
  const crypto::Digest key = build_key(source, name, options);

  std::promise<std::shared_ptr<const core::BuildResult>> promise;
  BuildFuture future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cache_hits_;
      future = it->second;
    } else {
      owner = true;
      future = promise.get_future().share();
      cache_.emplace(key, future);
      ++pipeline_runs_;
    }
  }
  if (owner) {
    try {
      promise.set_value(std::make_shared<const core::BuildResult>(
          core::build_app(source, name, options)));
    } catch (...) {
      // Evict so a later call retries; threads already waiting on this
      // flight observe the failure.
      {
        std::lock_guard<std::mutex> lock(cache_mu_);
        cache_.erase(key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

size_t Fleet::build_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

crypto::Digest Fleet::device_key(const std::string& device_id) const {
  return crypto::derive_key(
      std::span<const uint8_t>(options_.master_key.data(),
                               options_.master_key.size()),
      "attest:" + device_id);
}

crypto::Digest Fleet::update_key(const std::string& device_id) const {
  return crypto::derive_key(
      std::span<const uint8_t>(options_.master_key.data(),
                               options_.master_key.size()),
      "update:" + device_id);
}

UpdateCampaign Fleet::stage_update(
    std::shared_ptr<const core::BuildResult> target, CampaignOptions options) {
  return UpdateCampaign(*this, std::move(target), options);
}

UpdateCampaign Fleet::stage_update(const std::string& source,
                                   const std::string& name,
                                   const core::BuildOptions& build_options,
                                   CampaignOptions options) {
  return stage_update(build(source, name, build_options), options);
}

CampaignScheduler Fleet::plan_rollout(UpdateCampaign campaign,
                                      RolloutPlan plan) {
  return CampaignScheduler(*this, std::move(campaign), std::move(plan));
}

CampaignScheduler Fleet::plan_rollout(
    std::shared_ptr<const core::BuildResult> target, RolloutPlan plan,
    CampaignOptions options) {
  return plan_rollout(stage_update(std::move(target), std::move(options)),
                      std::move(plan));
}

DeviceSession& Fleet::deploy(const std::string& device_id,
                             std::shared_ptr<const core::BuildResult> build,
                             EnforcementPolicy policy, SessionOptions options) {
  {
    // Fast-fail a duplicate id before paying for session construction
    // (flash + power-on); the try_emplace below stays authoritative
    // for ids racing past this check.
    std::lock_guard<std::mutex> lock(devices_mu_);
    if (devices_.count(device_id) != 0) {
      throw FleetError("fleet: device id '" + device_id +
                       "' already deployed");
    }
  }
  options.attest_key = device_key(device_id);
  options.update_key = update_key(device_id);
  std::optional<VerifierService::Books> books;
  if (policy == EnforcementPolicy::kCfaBaseline) {
    books = VerifierService::open_books(device_id, *build, options.attest_key);
  }
  auto session = std::make_unique<DeviceSession>(device_id, std::move(build),
                                                 policy, options);
  // The one publication step: nothing before it is visible, so a deploy
  // that throws anywhere leaves no trace.
  std::lock_guard<std::mutex> lock(devices_mu_);
  const uint64_t deployed = next_deployed_.load(std::memory_order_relaxed);
  auto [it, inserted] = devices_.try_emplace(
      device_id, Entry{std::move(session), deployed, std::move(books)});
  if (!inserted) {
    throw FleetError("fleet: device id '" + device_id + "' already deployed");
  }
  next_deployed_.store(deployed + 1, std::memory_order_release);
  return *it->second.session;
}

DeviceSession& Fleet::provision(const std::string& device_id,
                                const std::string& source,
                                const std::string& name,
                                EnforcementPolicy policy,
                                SessionOptions options) {
  core::BuildOptions build_options;
  build_options.eilid = policy == EnforcementPolicy::kEilidHw;
  return deploy(device_id, build(source, name, build_options), policy, options);
}

DeviceSession* Fleet::find(const std::string& device_id) {
  std::lock_guard<std::mutex> lock(devices_mu_);
  auto it = devices_.find(device_id);
  return it == devices_.end() ? nullptr : it->second.session.get();
}

DeviceSession& Fleet::at(const std::string& device_id) {
  DeviceSession* session = find(device_id);
  if (session == nullptr) {
    throw FleetError("fleet: unknown device id '" + device_id + "'");
  }
  return *session;
}

size_t Fleet::size() const {
  std::lock_guard<std::mutex> lock(devices_mu_);
  return devices_.size();
}

std::vector<DeviceSession*> Fleet::sessions() const {
  std::vector<std::pair<uint64_t, DeviceSession*>> by_deployment;
  {
    std::lock_guard<std::mutex> lock(devices_mu_);
    by_deployment.reserve(devices_.size());
    for (const auto& [id, entry] : devices_) {
      by_deployment.emplace_back(entry.deployed, entry.session.get());
    }
  }
  std::sort(by_deployment.begin(), by_deployment.end());
  std::vector<DeviceSession*> out;
  out.reserve(by_deployment.size());
  for (const auto& [deployed, session] : by_deployment) out.push_back(session);
  return out;
}

void Fleet::decommission(const std::string& device_id) {
  std::map<std::string, Entry>::node_type doomed;
  {
    std::lock_guard<std::mutex> lock(devices_mu_);
    doomed = devices_.extract(device_id);
    // A new registry version, so the schedulers' books prune the id.
    if (!doomed.empty()) {
      next_deployed_.fetch_add(1, std::memory_order_release);
    }
  }
  if (doomed.empty()) {
    throw FleetError("fleet: unknown device id '" + device_id + "'");
  }
  // The session and its books die here, outside the registry lock.
}

}  // namespace eilid
