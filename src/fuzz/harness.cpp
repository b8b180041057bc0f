#include "fuzz/harness.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <utility>

#include "cfa/cfg.h"
#include "common/thread_pool.h"
#include "eilid/fleet.h"
#include "eilid/session.h"
#include "sim/memory_map.h"

namespace eilid::fuzz {
namespace {

// Oracle 1's three arms: the interpretive reference, superblock pinned
// to per-instruction dispatch from the decoded table, and superblock.
struct EngineArm {
  ExecutionEngine engine;
  bool per_step;  // attach step_pin
  const char* name;
};
constexpr EngineArm kArms[] = {
    {ExecutionEngine::kInterpretive, false, "interpretive"},
    {ExecutionEngine::kSuperblock, true, "superblock-per-step"},
    {ExecutionEngine::kSuperblock, false, "superblock"},
};

// A plain Monitor observes nothing but wants every step, which pins a
// session to per-instruction dispatch. Stateless, so one serves all.
sim::Monitor step_pin;

constexpr uint64_t kNonce = 0xF00DF00DF00DF00Dull;

// One fixed key for every standalone session: cross-arm MAC identity
// is only meaningful when all three arms MAC with the same key over
// the same nonce.
crypto::Digest fixed_key() {
  crypto::Digest d{};
  d.fill(0x6B);
  return d;
}

struct FinalState {
  std::array<uint16_t, 16> regs{};
  uint64_t cycles = 0;
  uint64_t retired = 0;
  std::vector<std::tuple<uint64_t, uint16_t, uint8_t>> resets;
  std::vector<uint16_t> ram;

  bool operator==(const FinalState&) const = default;
};

FinalState capture(sim::Machine& m) {
  FinalState out;
  for (int i = 0; i < 16; ++i) {
    out.regs[static_cast<size_t>(i)] = m.cpu().reg(i);
  }
  out.cycles = m.cycles();
  out.retired = m.cpu().instructions_retired();
  for (const sim::ResetEvent& e : m.resets()) {
    out.resets.emplace_back(e.cycle, e.pc, static_cast<uint8_t>(e.reason));
  }
  // The generator's whole RAM footprint: the ISR counter (0x0260) and
  // the kMemRw scratch window (0x0300 + 2*slot, slot < 24).
  for (uint16_t a = 0x0260; a < 0x0340; a += 2) {
    out.ram.push_back(m.bus().raw_word(a));
  }
  return out;
}

SessionOptions standalone_options(ExecutionEngine engine) {
  SessionOptions opt;
  opt.engine = engine;
  // Never drop benign evidence: a generated program logs far fewer
  // edges than this, so dropped != 0 on a benign run is a real bug,
  // not an undersized log.
  opt.cfa.log_capacity = size_t{1} << 15;
  opt.attest_key = fixed_key();
  opt.update_key = fixed_key();
  return opt;
}

std::string seed_tag(uint64_t seed) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seed 0x%016llx",
                static_cast<unsigned long long>(seed));
  return buf;
}

void add_failure(HarnessReport& report, uint64_t seed,
                 const std::string& what) {
  report.failures.push_back(seed_tag(seed) + ": " + what);
}

bool reports_equal(const cfa::Report& a, const cfa::Report& b) {
  return a.seq == b.seq && a.cycle == b.cycle && a.dropped == b.dropped &&
         a.edges == b.edges && a.mac == b.mac;
}

// AttestResult minus device_id: the pooled and serial cohorts carry
// different ids by construction, and everything else must match.
auto verdict_key(const VerifierService::AttestResult& r) {
  return std::tie(r.attested, r.seq, r.cycle, r.tick, r.mac_ok, r.seq_ok,
                  r.path_ok, r.edges, r.dropped, r.first_bad, r.remaining);
}

// Exercised dispatch-table slots: every kCallIndirect op sits in main,
// and main executes start-to-halt, so each named slot is dispatched
// through on every benign run.
std::vector<int> exercised_slots(const ProgramSpec& spec) {
  std::set<int> slots;
  for (const Op& op : spec.functions.front().ops) {
    if (op.kind == Op::Kind::kCallIndirect) slots.insert(op.a);
  }
  return {slots.begin(), slots.end()};
}

}  // namespace

void DifferentialHarness::check_program(uint64_t seed,
                                        HarnessReport& report) try {
  const ProgramSpec spec = ProgramGenerator(options_.generator).generate(seed);
  const std::string source = spec.render();
  Fleet fleet;
  const auto plain = fleet.build(source, spec.name(), {.eilid = false});
  const auto instr = fleet.build(source, spec.name() + "-eilid", {});

  // Oracle 1: three arms, bit-identical, under every policy.
  struct PolicyCase {
    EnforcementPolicy policy;
    bool instrumented;
  };
  const PolicyCase cases[] = {
      {EnforcementPolicy::kNone, false},
      {EnforcementPolicy::kCasu, false},
      {EnforcementPolicy::kCfaBaseline, false},
      {EnforcementPolicy::kEilidHw, true},
  };
  for (const PolicyCase& pc : cases) {
    const auto& build = pc.instrumented ? instr : plain;
    const uint64_t budget =
        options_.benign_budget * (pc.instrumented ? 4 : 1);
    std::vector<FinalState> states;
    std::vector<cfa::Report> cfa_reports;
    for (const EngineArm& arm : kArms) {
      DeviceSession dev(spec.name(), build, pc.policy,
                        standalone_options(arm.engine));
      if (arm.per_step) dev.machine().add_monitor(&step_pin);
      const sim::RunResult rr = dev.run_to_symbol("halt", budget);
      ++report.engine_runs;
      const std::string tag =
          std::string(enforcement_policy_name(pc.policy)) + "/" + arm.name;
      if (rr.cause != sim::StopCause::kBreakpoint) {
        add_failure(report, seed, tag + ": did not reach halt in " +
                                      std::to_string(budget) + " cycles");
        return;  // final states of a truncated run prove nothing
      }
      if (dev.violation_count() != 0) {
        add_failure(report, seed,
                    tag + ": benign program tripped enforcement (" +
                        dev.last_reset_reason() + ")");
      }
      states.push_back(capture(dev.machine()));
      if (dev.cfa_monitor() != nullptr) {
        cfa_reports.push_back(
            dev.cfa_monitor()->take_report(kNonce, dev.machine().cycles()));
      }
    }
    for (size_t i = 1; i < states.size(); ++i) {
      if (!(states[i] == states[0])) {
        add_failure(report, seed,
                    std::string(enforcement_policy_name(pc.policy)) +
                        ": final state diverges between " + kArms[0].name +
                        " and " + kArms[i].name);
      }
    }
    for (size_t i = 1; i < cfa_reports.size(); ++i) {
      if (!reports_equal(cfa_reports[i], cfa_reports[0])) {
        add_failure(report, seed,
                    "CFA evidence diverges between engines under " +
                        std::string(enforcement_policy_name(pc.policy)));
      }
    }
    if (!cfa_reports.empty()) {
      if (cfa_reports[0].dropped != 0) {
        add_failure(report, seed, "benign run overflowed the CFA log");
      }
      cfa::CfaVerifier verifier(plain->cfg, fixed_key());
      const auto res = verifier.verify(cfa_reports[0], kNonce);
      if (!res.mac_ok || !res.path_ok) {
        add_failure(report, seed,
                    std::string("clean evidence failed verification (") +
                        (res.mac_ok ? "path" : "mac") + ")");
      }
    }
  }

  // Oracle 2: pooled == serial sweep over identical cohorts.
  std::vector<DeviceSession*> serial_cohort, pooled_cohort;
  for (size_t i = 0; i < std::size(kArms); ++i) {
    const std::string suffix = std::to_string(i);
    DeviceSession& a = fleet.deploy("a" + suffix, plain,
                                    EnforcementPolicy::kCfaBaseline,
                                    standalone_options(kArms[i].engine));
    DeviceSession& b = fleet.deploy("b" + suffix, plain,
                                    EnforcementPolicy::kCfaBaseline,
                                    standalone_options(kArms[i].engine));
    if (kArms[i].per_step) {
      a.machine().add_monitor(&step_pin);
      b.machine().add_monitor(&step_pin);
    }
    serial_cohort.push_back(&a);
    pooled_cohort.push_back(&b);
  }
  for (DeviceSession* dev : serial_cohort) {
    dev->run_to_symbol("halt", options_.benign_budget);
  }
  for (DeviceSession* dev : pooled_cohort) {
    dev->run_to_symbol("halt", options_.benign_budget);
  }
  const auto serial = fleet.verifier().verify_all(serial_cohort);
  common::ThreadPool pool(4);
  const auto pooled = fleet.verifier().verify_all(pooled_cohort, pool);
  if (serial.size() != pooled.size()) {
    add_failure(report, seed, "pooled sweep returned a different cohort size");
  } else {
    for (size_t i = 0; i < serial.size(); ++i) {
      if (!serial[i].ok()) {
        add_failure(report, seed,
                    "serial sweep convicted a benign device " +
                        serial[i].device_id);
      }
      if (verdict_key(serial[i]) != verdict_key(pooled[i])) {
        add_failure(report, seed,
                    "pooled and serial sweep verdicts diverge at index " +
                        std::to_string(i));
      }
    }
  }
} catch (const std::exception& e) {
  add_failure(report, seed, std::string("exception: ") + e.what());
}

void DifferentialHarness::check_mutation(uint64_t seed,
                                         HarnessReport& report) try {
  const ProgramSpec spec = ProgramGenerator(options_.generator).generate(seed);
  const std::string source = spec.render();
  Fleet fleet;
  const auto plain = fleet.build(source, spec.name(), {.eilid = false});
  const cfa::Cfg& cfg = *plain->cfg;
  AttackMutator mutator(seed);

  // Benign evidence: exercised-edge selection for the jump family and
  // the corpus for report tampering.
  const auto benign_session_options =
      standalone_options(ExecutionEngine::kSuperblock);
  cfa::Report benign;
  {
    DeviceSession dev(spec.name(), plain, EnforcementPolicy::kCfaBaseline,
                      benign_session_options);
    dev.run_to_symbol("halt", options_.benign_budget);
    benign = dev.cfa_monitor()->take_report(kNonce, dev.machine().cycles());
  }

  // Run one PMEM patch under kCfaBaseline and demand the replay
  // convicts. The patch goes through raw_store_word, which bumps the
  // bus code generation, so every engine decodes the mutated bytes.
  const auto expect_conviction = [&](const PmemPatch& patch,
                                     const char* family) {
    ++report.mutation_cases;
    DeviceSession dev(spec.name(), plain, EnforcementPolicy::kCfaBaseline,
                      benign_session_options);
    dev.machine().bus().raw_store_word(patch.addr, patch.new_word);
    dev.run_to_symbol("halt", options_.mutated_budget);
    const cfa::Report evidence =
        dev.cfa_monitor()->take_report(kNonce, dev.machine().cycles());
    cfa::CfaVerifier verifier(plain->cfg, fixed_key());
    const auto res = verifier.verify(evidence, kNonce);
    if (res.mac_ok && res.path_ok) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "%s at 0x%04X (-> 0x%04X) escaped conviction", family,
                    patch.addr, patch.new_to);
      add_failure(report, seed, buf);
    } else {
      ++report.convicted;
    }
  };

  if (const auto plan = mutator.plan_jump_diversion(plain->app, cfg, benign)) {
    expect_conviction(*plan, "jump diversion");
  }

  const std::vector<int> slots = exercised_slots(spec);
  if (!slots.empty()) {
    const int slot =
        slots[common::SeededRng(seed ^ 0x7ab1eull).below(slots.size())];
    if (const auto plan = mutator.plan_table_diversion(plain->app, cfg, slot)) {
      expect_conviction(*plan, "table diversion");
    }

    // The same table attack against the instrumented build: EILID's P3
    // indirect-call check must refuse the gadget in real time, before
    // any corrupted transfer retires.
    const auto instr = fleet.build(source, spec.name() + "-eilid", {});
    if (const auto plan =
            mutator.plan_table_diversion(instr->app, *instr->cfg, slot)) {
      ++report.mutation_cases;
      DeviceSession dev(spec.name(), instr, EnforcementPolicy::kEilidHw,
                        standalone_options(ExecutionEngine::kSuperblock));
      dev.machine().set_halt_on_reset(true);
      dev.machine().bus().raw_store_word(plan->addr, plan->new_word);
      dev.run_to_symbol("halt", options_.mutated_budget * 4);
      if (dev.violation_count() > 0) {
        ++report.refused;
      } else {
        add_failure(report, seed, "gadget dispatch escaped EILID's P3 check");
      }
    }
  }

  // Report tampering in transit: every kind must fail verification.
  for (ReportTamper kind : kAllReportTampers) {
    const auto tampered = mutator.tamper_report(benign, kind);
    if (!tampered.has_value()) continue;
    ++report.mutation_cases;
    cfa::CfaVerifier verifier(plain->cfg, fixed_key());
    const auto res = verifier.verify(*tampered, kNonce);
    if (res.mac_ok && res.path_ok) {
      add_failure(report, seed,
                  "report tamper '" + std::string(report_tamper_name(kind)) +
                      "' accepted by the verifier");
    } else {
      ++report.refused;
    }
  }

  // Update-package and chunk-transport tampering. The payload is the
  // bytes already flashed at the start of PMEM (a no-op patch), so the
  // *only* thing distinguishing accept from refuse is authentication.
  std::vector<uint8_t> payload;
  for (uint16_t a = sim::kPmemStart; a < sim::kPmemStart + 8; ++a) {
    payload.push_back(plain->app.image.byte_at(a));
  }
  const crypto::Digest key = fixed_key();
  casu::UpdateAuthority authority{std::span<const uint8_t>(key)};
  const casu::UpdatePackage package =
      authority.make_package(sim::kPmemStart, 1, payload);

  {
    std::vector<uint8_t> bytes = casu::serialize_package(package);
    mutator.flip_package_bit(bytes);
    ++report.mutation_cases;
    const auto parsed = casu::parse_package(bytes);
    if (!parsed.has_value()) {
      ++report.refused;  // structural damage: refused before any MAC
    } else {
      DeviceSession dev(spec.name(), plain, EnforcementPolicy::kCasu,
                        standalone_options(ExecutionEngine::kSuperblock));
      const casu::UpdateStatus st = dev.apply_update(*parsed);
      if (st == casu::UpdateStatus::kApplied) {
        add_failure(report, seed, "bit-flipped update package applied");
      } else {
        ++report.refused;
      }
    }
  }

  {
    // Replay of an already-applied version: anti-rollback must refuse.
    ++report.mutation_cases;
    DeviceSession dev(spec.name(), plain, EnforcementPolicy::kCasu,
                      standalone_options(ExecutionEngine::kSuperblock));
    const casu::UpdateStatus first = dev.apply_update(package);
    const casu::UpdateStatus second = dev.apply_update(package);
    if (first == casu::UpdateStatus::kApplied &&
        second == casu::UpdateStatus::kRollback) {
      ++report.refused;
    } else {
      add_failure(report, seed,
                  std::string("package replay not refused (first ") +
                      std::string(casu::update_status_name(first)) +
                      ", second " +
                      std::string(casu::update_status_name(second)) + ")");
    }
  }

  const std::vector<casu::TransferChunk> chunks =
      casu::chunk_package(package, 7);
  const auto fresh_casu = [&]() {
    return std::make_unique<DeviceSession>(
        spec.name(), plain, EnforcementPolicy::kCasu,
        standalone_options(ExecutionEngine::kSuperblock));
  };

  {
    // Adversarial forge: checksum recomputed, so transport accepts
    // every chunk and the package MAC must catch it at finalize.
    ++report.mutation_cases;
    std::vector<casu::TransferChunk> forged = chunks;
    const size_t victim =
        common::SeededRng(seed ^ 0xf043eull).below(forged.size());
    mutator.flip_chunk_payload(forged[victim], true);
    auto dev = fresh_casu();
    for (const auto& c : forged) dev->receive_update_chunk(c);
    const casu::UpdateStatus st = dev->finalize_update();
    if (st == casu::UpdateStatus::kApplied) {
      add_failure(report, seed, "forged chunk stream applied");
    } else {
      ++report.refused;
    }
  }

  {
    // Line noise: the corrupted chunk is NACKed, the retransmit of the
    // original completes the transfer, and the finalize applies.
    ++report.mutation_cases;
    std::vector<casu::TransferChunk> noisy = chunks;
    const size_t victim = common::SeededRng(seed ^ 0xc0ffeeull)
                              .below(noisy.size());
    mutator.flip_chunk_payload(noisy[victim], false);
    auto dev = fresh_casu();
    bool nacked = false;
    for (size_t i = 0; i < noisy.size(); ++i) {
      const casu::ChunkAck ack = dev->receive_update_chunk(noisy[i]);
      if (i == victim) nacked = (ack == casu::ChunkAck::kCorrupt);
    }
    if (!nacked) {
      add_failure(report, seed, "corrupted chunk not NACKed");
    } else {
      ++report.refused;
      dev->receive_update_chunk(chunks[victim]);
      if (dev->finalize_update() != casu::UpdateStatus::kApplied) {
        add_failure(report, seed,
                    "retransmit after a NACKed chunk failed to finalize");
      }
    }
  }

  {
    // Inconsistent geometry with a valid checksum.
    ++report.mutation_cases;
    casu::TransferChunk bad = chunks[0];
    mutator.scramble_chunk_geometry(bad);
    auto dev = fresh_casu();
    if (dev->receive_update_chunk(bad) == casu::ChunkAck::kMalformed) {
      ++report.refused;
    } else {
      add_failure(report, seed, "malformed chunk geometry accepted");
    }
  }

  {
    // Truncation: incomplete transfers never finalize, and the staged
    // map names exactly the missing chunk for resume.
    ++report.mutation_cases;
    auto dev = fresh_casu();
    for (size_t i = 0; i + 1 < chunks.size(); ++i) {
      dev->receive_update_chunk(chunks[i]);
    }
    if (dev->finalize_update() != casu::UpdateStatus::kInterrupted) {
      add_failure(report, seed, "truncated transfer finalized");
    } else {
      ++report.refused;
      const std::vector<bool> map =
          dev->staged_update_chunks(package.mac);
      if (map.empty() || map.back() ||
          static_cast<size_t>(std::count(map.begin(), map.end(), true)) !=
              chunks.size() - 1) {
        add_failure(report, seed, "resume map does not name the missing chunk");
      }
    }
  }
} catch (const std::exception& e) {
  add_failure(report, seed, std::string("exception: ") + e.what());
}

HarnessReport DifferentialHarness::run() {
  HarnessReport report;
  const auto flush_failures = [&](size_t from) {
    for (size_t i = from; i < report.failures.size(); ++i) {
      std::fprintf(stderr, "fuzz: FAIL %s\n", report.failures[i].c_str());
    }
  };
  for (int i = 0; i < options_.programs; ++i) {
    const size_t before = report.failures.size();
    check_program(options_.seed + static_cast<uint64_t>(i), report);
    ++report.programs;
    flush_failures(before);
  }
  // Mutation seeds share the program-seed base: a failing seed printed
  // above reproduces with `--seed <it> --programs 1 --mutations 1`
  // regardless of which half it came from.
  for (int i = 0; i < options_.mutations; ++i) {
    const size_t before = report.failures.size();
    check_mutation(options_.seed + static_cast<uint64_t>(i), report);
    flush_failures(before);
  }
  return report;
}

ProgramSpec DifferentialHarness::shrink(
    ProgramSpec spec,
    const std::function<bool(const ProgramSpec&)>& reproduces) const {
  bool progress = true;
  while (progress) {
    progress = false;
    for (ProgramSpec& candidate : shrink_candidates(spec)) {
      if (reproduces(candidate)) {
        spec = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return spec;
}

}  // namespace eilid::fuzz
