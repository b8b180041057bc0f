// The three-arm engine oracle over the real workloads: every Table IV
// app plus vuln_gateway (benign and exploited) under every enforcement
// policy, run by the interpretive reference, by the superblock engine
// pinned per-step by a plain sim::Monitor, and by the chained block
// core. The arms must agree on everything a run can observably
// produce: final registers, RAM and secure RAM, cycles, retired
// instructions, the reset history, the CFA evidence with its report
// MAC, and the verifier's verdict on it. The block core chains under
// every monitor, checks fetches only at run entry and range crossings,
// and feeds the CFA log from inside the chain -- any of those reporting
// at a wrong boundary shows up here as a differing field.
//
// A never-halting spin kernel adds the budget-bounded case: a fixed
// cycle budget whose CFA evidence overflows the log, so the arms must
// also agree on what was dropped. The two per-step arms must also
// agree on a fingerprint of every retired step.
//
// The last cases put the CASU/EILID region rules on the chain's range
// crossings: an illegal ROM entry and an illegal ROM exit reached
// inside a chained run must reset with the same reason at the same PC
// and cycle on every arm, and a legal ROM round trip must not reset.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "cfa/attestation.h"
#include "eilid/pipeline.h"
#include "eilid/session.h"
#include "isa/decoded_image.h"
#include "masm/assembler.h"
#include "sim/memory_map.h"
#include "sim/monitor.h"

namespace eilid {
namespace {

struct Arm {
  ExecutionEngine engine;
  bool per_step;  // pinned per-instruction by a wants_step() monitor
  const char* name;
  bool dispatches_blocks() const {
    return engine == ExecutionEngine::kSuperblock && !per_step;
  }
};
constexpr Arm kArms[] = {
    {ExecutionEngine::kInterpretive, false, "interpretive"},
    {ExecutionEngine::kSuperblock, true, "superblock-per-step"},
    {ExecutionEngine::kSuperblock, false, "superblock"},
};

constexpr EnforcementPolicy kPolicies[] = {
    EnforcementPolicy::kNone, EnforcementPolicy::kCasu,
    EnforcementPolicy::kCfaBaseline, EnforcementPolicy::kEilidHw};

sim::Monitor step_pin;  // wants_step(): pins per-instruction dispatch

constexpr uint64_t kNonce = 0x0AC1E5;

// Everything one run can observably produce.
struct Observed {
  std::array<uint16_t, 16> regs{};
  uint64_t cycles = 0;
  uint64_t retired = 0;
  std::vector<std::tuple<uint64_t, uint16_t, uint8_t>> resets;
  std::vector<uint16_t> ram;         // all of RAM
  std::vector<uint16_t> secure_ram;  // the shadow stack region
  bool reached_halt = false;
  std::string check_failure;
  // CFA evidence and its verdict (kCfaBaseline only).
  std::vector<cfa::LoggedEdge> edges;
  uint32_t dropped = 0;
  uint64_t report_cycle = 0;
  crypto::Digest mac{};
  bool mac_ok = false;
  bool path_ok = false;
  std::optional<cfa::LoggedEdge> first_bad;

  bool operator==(const Observed&) const = default;
};

std::vector<uint16_t> words(sim::Machine& m, uint16_t first, uint16_t last) {
  std::vector<uint16_t> out;
  for (uint32_t a = first; a < last; a += 2) {
    out.push_back(m.bus().raw_word(static_cast<uint16_t>(a)));
  }
  return out;
}

Observed observe(DeviceSession& dev) {
  sim::Machine& m = dev.machine();
  Observed out;
  for (int i = 0; i < 16; ++i) {
    out.regs[static_cast<size_t>(i)] = m.cpu().reg(i);
  }
  out.cycles = m.cycles();
  out.retired = m.cpu().instructions_retired();
  for (const sim::ResetEvent& e : m.resets()) {
    out.resets.emplace_back(e.cycle, e.pc, static_cast<uint8_t>(e.reason));
  }
  out.ram = words(m, sim::kRamStart, sim::kRamEnd);
  out.secure_ram = words(m, sim::kSecureRamStart, sim::kSecureRamEnd);
  if (cfa::CfaMonitor* monitor = dev.cfa_monitor()) {
    const cfa::Report report = monitor->take_report(kNonce, m.cycles());
    out.edges = report.edges;
    out.dropped = report.dropped;
    out.report_cycle = report.cycle;
    out.mac = report.mac;
    cfa::CfaVerifier verifier(dev.build().cfg, dev.options().attest_key);
    const cfa::CfaVerifier::Result verdict = verifier.verify(report, kNonce);
    out.mac_ok = verdict.mac_ok;
    out.path_ok = verdict.path_ok;
    out.first_bad = verdict.first_bad;
  }
  return out;
}

SessionOptions options_for(const Arm& arm) {
  SessionOptions options;
  options.engine = arm.engine;
  // Room for the longest Table IV boot's evidence, so no report drops.
  options.cfa.log_capacity = 1u << 15;
  options.attest_key.fill(0x5A);
  return options;
}

// ------------------------------------------------------ the workloads

// A never-halting spin kernel: a tight ALU loop, a call, RAM traffic.
// Instrumentable, so one source serves every policy. `halt` is never
// reached: a fixed cycle budget bounds each run, and the budget logs
// far more edges than kSpinLogCapacity holds, so the kCfaBaseline
// report drops evidence.
constexpr uint64_t kSpinCycles = 500'000;
constexpr uint32_t kSpinLogCapacity = 4096;

const apps::AppSpec& spin_kernel() {
  static const apps::AppSpec spec{
      "spin_kernel", R"(.org 0xE000
main:
    mov #0x1000, r1
    clr r12
    clr r13
loop:
    mov #8, r11
inner:
    add r11, r12
    xor r12, r13
    rra r13
    swpb r12
    inc r13
    dec r11
    jnz inner
    call #mix
    mov r12, &0x0280
    add &0x0280, r13
    jmp loop
mix:
    push r12
    xor r13, r12
    rra r12
    pop r12
    ret
halt:
    jmp halt
.vector 15, main
)",
      [](sim::Machine&) {}, kSpinCycles,
      [](sim::Machine&) { return std::string(); }};
  return spec;
}

// FNV-1a over every (from, to, fallthrough) step. A wants_step()
// monitor, so attaching it pins the machine to per-instruction
// dispatch: it doubles as the per-step arm's pin.
class TraceFingerprint : public sim::Monitor {
 public:
  void on_step(uint16_t from_pc, uint16_t to_pc,
               uint16_t fallthrough) override {
    for (uint16_t v : {from_pc, to_pc, fallthrough}) {
      hash_ ^= v;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Workload {
  const apps::AppSpec* app;
  const char* label;
  bool exploit;  // vuln_gateway only: overflow_ret_payload instead of ping
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  for (const apps::AppSpec& app : apps::table4_apps()) {
    out.push_back({&app, app.name.c_str(), false});
  }
  out.push_back({&apps::vuln_gateway(), "vuln_gateway", false});
  out.push_back({&apps::vuln_gateway(), "vuln_gateway-exploited", true});
  out.push_back({&spin_kernel(), "spin_kernel", false});
  return out;
}

TEST(EngineOracle, EveryWorkloadAgreesAcrossArmsUnderEveryPolicy) {
  for (const Workload& w : workloads()) {
    const bool spin = w.app == &spin_kernel();
    std::shared_ptr<const core::BuildResult> builds[2];
    for (bool eilid : {false, true}) {
      builds[eilid] = std::make_shared<const core::BuildResult>(
          core::build_app(w.app->source, w.app->name, {.eilid = eilid}));
    }
    for (EnforcementPolicy policy : kPolicies) {
      const auto& build = builds[policy == EnforcementPolicy::kEilidHw];
      const std::string tag =
          std::string(w.label) + " / " +
          std::string(enforcement_policy_name(policy));
      std::vector<Observed> seen;
      std::vector<uint64_t> traces;  // the two per-step arms
      for (const Arm& arm : kArms) {
        SessionOptions options = options_for(arm);
        if (spin) options.cfa.log_capacity = kSpinLogCapacity;
        DeviceSession dev(tag + " / " + arm.name, build, policy, options);
        TraceFingerprint trace;
        if (!arm.dispatches_blocks()) dev.machine().add_monitor(&trace);
        if (w.app == &apps::vuln_gateway()) {
          dev.machine().uart().feed(
              w.exploit ? attacks::overflow_ret_payload(dev.symbol("unlock"))
                        : attacks::benign_payload());
        }
        const apps::WorkloadOutcome outcome =
            apps::run_workload(dev, *w.app, spin ? kSpinCycles : 0);
        Observed o = observe(dev);
        o.reached_halt = outcome.reached_halt;
        o.check_failure = outcome.check_failure;
        if (arm.dispatches_blocks()) {
          EXPECT_GT(dev.machine().blocks_executed(), 0u) << tag;
        } else {
          EXPECT_EQ(dev.machine().blocks_executed(), 0u) << tag;
          traces.push_back(trace.hash());
        }
        seen.push_back(std::move(o));
      }
      EXPECT_GT(seen[0].retired, 0u) << tag;
      if (policy == EnforcementPolicy::kCfaBaseline) {
        EXPECT_FALSE(seen[0].edges.empty()) << tag;
        EXPECT_TRUE(seen[0].mac_ok) << tag;
        // Only the spin kernel outruns its log.
        EXPECT_EQ(seen[0].dropped > 0, spin) << tag;
      }
      EXPECT_EQ(traces[1], traces[0]) << tag << ": per-step trace differs";
      EXPECT_TRUE(seen[1] == seen[0]) << tag << ": per-step arm differs";
      EXPECT_TRUE(seen[2] == seen[0]) << tag << ": superblock arm differs";
    }
  }
}

// The exploited gateway is the oracle's attack case: it must actually
// be caught, or its agreement across arms proves nothing about the
// enforcement paths. EILID resets in real time; CFA convicts.
TEST(EngineOracle, ExploitedGatewayIsCaughtOnEveryArm) {
  const apps::AppSpec& gateway = apps::vuln_gateway();
  for (const Arm& arm : kArms) {
    for (EnforcementPolicy policy :
         {EnforcementPolicy::kEilidHw, EnforcementPolicy::kCfaBaseline}) {
      const bool eilid = policy == EnforcementPolicy::kEilidHw;
      auto build = std::make_shared<const core::BuildResult>(
          core::build_app(gateway.source, gateway.name, {.eilid = eilid}));
      DeviceSession dev(arm.name, build, policy, options_for(arm));
      if (arm.per_step) dev.machine().add_monitor(&step_pin);
      dev.machine().uart().feed(
          attacks::overflow_ret_payload(dev.symbol("unlock")));
      apps::run_workload(dev, gateway);
      const Observed o = observe(dev);
      if (eilid) {
        EXPECT_GT(dev.machine().violation_count(), 0u) << arm.name;
      } else {
        EXPECT_TRUE(o.mac_ok) << arm.name;
        EXPECT_FALSE(o.path_ok) << arm.name;
      }
    }
  }
}

// ------------------------------------- region rules on chain crossings

// A hand-made secure ROM. The entry section holds two stubs; `body`
// runs two instructions and leaves through the one-instruction leave
// section, while `body_bad` leaves ROM straight from the body -- an
// illegal exit -- to the app's `back` pad at 0xE020.
const char* kRom = R"(.org 0xA000
entry:
    jmp body
entry_bad:
    jmp body_bad
body:
    inc r12
    inc r12
    jmp leave
body_bad:
    inc r12
    br #0xE020
leave:
    ret
)";

const masm::AssembledUnit& rom_unit() {
  static const masm::AssembledUnit unit = masm::assemble_text(kRom, "rom");
  return unit;
}

std::string rom_addr(const char* symbol) {
  return std::to_string(rom_unit().symbols.at(symbol));
}

// The app runs a counted loop, so the interesting transfer happens
// several chained blocks into the run.
std::string app_source(const std::string& transfer) {
  return R"(.org 0xE000
main:
    mov #0x1000, r1
    mov #4, r11
loop:
    dec r11
    jnz loop
    )" + transfer + R"(
halt:
    jmp halt
.org 0xE020
back:
    inc r13
    jmp halt
.vector 15, main
)";
}

std::shared_ptr<const core::BuildResult> build_with_rom(
    const std::string& transfer) {
  core::BuildResult b =
      core::build_app(app_source(transfer), "rom-case", {.eilid = false});
  b.rom.unit = rom_unit();
  b.rom.entry_start = rom_unit().symbols.at("entry");
  b.rom.entry_end = rom_unit().symbols.at("entry_bad");
  b.rom.leave_start = b.rom.leave_end = rom_unit().symbols.at("leave");
  // Re-derive the flashed artifacts with the ROM in place, laid out as
  // the build pipeline does: ROM and PMEM predecoded.
  b.flat_image =
      std::make_shared<const std::vector<uint8_t>>(core::flat_memory(b));
  const isa::DecodedImage::Range ranges[] = {
      {sim::kRomStart, sim::kRomEnd},
      {sim::kPmemStart, 0xFFFE},
  };
  b.decoded_image =
      std::make_shared<const isa::DecodedImage>(*b.flat_image, ranges);
  return std::make_shared<const core::BuildResult>(std::move(b));
}

struct RomCase {
  std::string name;
  std::string transfer;
  std::optional<sim::ResetReason> reason;  // nullopt: no reset expected
  uint16_t reset_pc;  // the denied fetch
};

TEST(EngineOracle, RomEntryAndExitRulesHoldOnChainedCrossings) {
  const RomCase cases[] = {
      // In through the entry section, out from the leave section.
      {"legal-round-trip", "call #" + rom_addr("entry"), std::nullopt, 0},
      // Straight into the ROM body, past the entry gate.
      {"illegal-entry", "br #" + rom_addr("body"),
       sim::ResetReason::kRomEntryViolation, rom_unit().symbols.at("body")},
      // Legally in, then out from the body instead of the leave section.
      {"illegal-exit", "call #" + rom_addr("entry_bad"),
       sim::ResetReason::kRomExitViolation, 0xE020},
  };
  for (const RomCase& c : cases) {
    auto build = build_with_rom(c.transfer);
    for (EnforcementPolicy policy :
         {EnforcementPolicy::kCasu, EnforcementPolicy::kCfaBaseline,
          EnforcementPolicy::kEilidHw}) {
      const std::string tag =
          c.name + " / " + std::string(enforcement_policy_name(policy));
      std::vector<Observed> seen;
      for (const Arm& arm : kArms) {
        DeviceSession dev(tag + " / " + arm.name, build, policy,
                          options_for(arm));
        if (arm.per_step) dev.machine().add_monitor(&step_pin);
        dev.machine().set_halt_on_reset(true);
        dev.machine().run(2000);
        if (arm.dispatches_blocks()) {
          // The crossing happened inside one chained run: the loop's
          // blocks and the transfer into ROM took a single dispatch.
          EXPECT_GT(dev.machine().blocks_executed(), 3u) << tag;
        }
        seen.push_back(observe(dev));
      }
      EXPECT_TRUE(seen[1] == seen[0]) << tag << ": per-step arm differs";
      EXPECT_TRUE(seen[2] == seen[0]) << tag << ": superblock arm differs";
      const auto& resets = seen[0].resets;
      if (c.reason) {
        ASSERT_EQ(resets.size(), 2u) << tag;
        EXPECT_EQ(std::get<1>(resets[1]), c.reset_pc) << tag;
        EXPECT_EQ(std::get<2>(resets[1]), static_cast<uint8_t>(*c.reason))
            << tag;
      } else {
        EXPECT_EQ(resets.size(), 1u) << tag;
        EXPECT_EQ(seen[0].regs[12], 2) << tag;  // the ROM body ran
      }
    }
  }
}

}  // namespace
}  // namespace eilid
