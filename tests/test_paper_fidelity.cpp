// The paper-fidelity ledger: every number this repo reproduces from the
// EILID paper (Tables II-IV, Figs. 2-10, the §VI micro costs, the P1-P3
// attack outcomes and the ablations) as one exact row. Each row holds
// the repo's deterministic value as computed here, the value pinned for
// it, the paper's value, and one sentence on any gap between the two.
// The rows always print (run `tests/test_paper_fidelity` to read the
// tables); a row whose value moves fails and names itself. A change
// that moves a paper number updates its row in the same change.
//
// Compile time is stated as instrumenter work (assemblies run, sites
// rewritten, lines assembled) rather than host milliseconds: wall time
// over a sub-millisecond assembly cannot be compared with the paper's
// C toolchain and is not deterministic.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "attacks/attack.h"
#include "common/hex.h"
#include "eilid/fleet.h"
#include "eilid/inspect.h"
#include "eilid/instrumenter.h"
#include "hwcost/literature.h"
#include "hwcost/monitor_model.h"
#include "masm/assembler.h"
#include "sim/memory_map.h"
#include "sim/monitor.h"

namespace eilid {
namespace {

// Prints one ledger row and fails, naming it, unless the repo's value
// equals the pinned one.
void row(const std::string& name, const std::string& repo,
         const std::string& pinned, const std::string& paper = "-",
         const std::string& gap = "") {
  std::printf("  %-50s %-20s paper %-12s %s\n", name.c_str(), repo.c_str(),
              paper.c_str(), gap.c_str());
  EXPECT_EQ(repo, pinned) << "ledger row " << name << " moved";
}

void row(const std::string& name, int64_t repo, int64_t pinned,
         const std::string& paper = "-", const std::string& gap = "") {
  row(name, std::to_string(repo), std::to_string(pinned), paper, gap);
}

std::string mean_pct(const std::vector<double>& pcts) {
  double sum = 0;
  for (double p : pcts) sum += p;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.6f", sum / pcts.size());
  return buf;
}

double pct_value(double base, double with) {
  return 100.0 * (with - base) / base;
}

core::BuildOptions plain_build() {
  core::BuildOptions options;
  options.eilid = false;
  return options;
}

struct AppRun {
  size_t binary_bytes = 0;
  uint64_t cycles = 0;
  const core::BuildResult* build = nullptr;
};

// Deploys one Table IV app on `fleet` and runs it to halt; the run
// must finish clean, so every cycle count below is a benign boot.
AppRun run_app(Fleet& fleet, const apps::AppSpec& app,
               core::BuildOptions options) {
  const EnforcementPolicy policy = options.eilid ? EnforcementPolicy::kEilidHw
                                                 : EnforcementPolicy::kCasu;
  auto build = fleet.build(app.source, app.name, options);
  DeviceSession& device = fleet.deploy(
      app.name + "-" + std::to_string(fleet.size()), build, policy);
  apps::WorkloadOutcome out = apps::run_workload(device, app);
  EXPECT_TRUE(out.reached_halt) << app.name;
  EXPECT_EQ(out.violations, 0u) << app.name << " " << out.last_reset;
  return {build->binary_size(), out.cycles, build.get()};
}

// ------------------------------------------------------------ Table II

TEST(PaperFidelity, TableIIMsp430CallReturnEncodings) {
  struct Encoding {
    const char* line;
    uint16_t first_word;
    const char* paper;
  };
  constexpr Encoding kRows[] = {
      {"call #0xe100", 0x12B0, "CALL"},
      {"ret", 0x4130, "RET"},
      {"reti", 0x1300, "RETI"},
      {"call r13", 0x128D, "CALL (ind.)"},
      {"call @r12", 0x12AC, "CALL (ind.)"},
  };
  for (const Encoding& e : kRows) {
    masm::AssembledUnit unit = masm::assemble_text(
        std::string(".org 0xe000\n") + e.line + "\n", "probe");
    row(std::string("TableII/") + e.line, hex16(unit.image.word_at(0xe000)),
        hex16(e.first_word), e.paper);
  }
}

// ----------------------------------------------------------- Table III

TEST(PaperFidelity, TableIIIReservedRegisters) {
  const std::string rom = core::generate_rom_source(core::RomConfig{});
  auto uses = [&](int r) {
    return rom.find("r" + std::to_string(r)) != std::string::npos ? 1 : 0;
  };
  row("TableIII/r4 selector in EILIDsw", uses(4), 1, "reserved");
  row("TableIII/r5 shadow index in EILIDsw", uses(5), 1, "reserved");
  row("TableIII/r6 argument in EILIDsw", uses(6), 1, "reserved");
  row("TableIII/r7 argument in EILIDsw", uses(7), 1, "reserved");
  int untouched = 0;
  for (int r = 8; r <= 15; ++r) untouched += 1 - uses(r);
  row("TableIII/r8-r15 untouched by EILIDsw", untouched, 8, "not reserved");
}

// ------------------------------------------------ Table IV and Fig. 2

// Builds 1 and 3 of Fig. 2 are Table IV's original and EILID images.
struct Table4Row {
  const char* app;
  int64_t orig_cycles, eilid_cycles;
  int sites;
  int lines[3], bytes[3];  // Fig. 2: per build
};

constexpr Table4Row kTable4[] = {
    {"light_sensor", 11024, 12242, 4, {149, 175, 175}, {284, 330, 330}},
    {"ultrasonic_ranger", 58432, 59440, 4, {128, 147, 147}, {218, 246, 246}},
    {"fire_sensor", 5889, 6765, 6, {155, 185, 185}, {304, 362, 362}},
    {"syringe_pump", 7363, 8078, 6, {134, 167, 167}, {234, 306, 306}},
    {"temp_sensor", 23368, 24376, 2, {94, 109, 109}, {154, 168, 168}},
    {"charlieplexing", 71898, 74166, 2, {90, 105, 105}, {140, 154, 154}},
    {"lcd_sensor", 5322, 5574, 2, {142, 157, 157}, {256, 270, 270}},
};

TEST(PaperFidelity, TableIVSoftwareOverheadAndFig2Iterations) {
  Fleet fleet;
  const auto& apps = apps::table4_apps();
  ASSERT_EQ(apps.size(), std::size(kTable4));
  std::vector<double> bytes_pct, cycles_pct, lines_pct;
  for (size_t i = 0; i < apps.size(); ++i) {
    const Table4Row& want = kTable4[i];
    const std::string name = std::string("TableIV/") + want.app;
    ASSERT_EQ(apps[i].name, want.app);
    AppRun orig = run_app(fleet, apps[i], plain_build());
    AppRun inst = run_app(fleet, apps[i], {});
    row(name + "/orig bytes", orig.binary_bytes, want.bytes[0]);
    row(name + "/eilid bytes", inst.binary_bytes, want.bytes[2], "+5..+22%");
    row(name + "/orig cycles", orig.cycles, want.orig_cycles);
    row(name + "/eilid cycles", inst.cycles, want.eilid_cycles,
        "+2.6..+13.2%");
    row(name + "/assemblies", inst.build->iterations.size(), 3, "3 builds");
    row(name + "/sites rewritten", inst.build->report.sites.total(),
        want.sites);
    size_t assembled = 0;
    for (size_t it = 0; it < 3; ++it) {
      const core::IterationStats& s = inst.build->iterations[it];
      const std::string build = name + "/Fig2 build " + std::to_string(it + 1);
      row(build + " lines", s.source_lines, want.lines[it]);
      row(build + " bytes", s.image_bytes, want.bytes[it],
          it == 2 ? "== build 2" : "-");
      assembled += s.source_lines;
    }
    bytes_pct.push_back(pct_value(orig.binary_bytes, inst.binary_bytes));
    cycles_pct.push_back(pct_value(orig.cycles, inst.cycles));
    lines_pct.push_back(
        pct_value(orig.build->iterations[0].source_lines, assembled));
  }
  row("TableIV/average binary growth %", mean_pct(bytes_pct), "+14.778437",
      "+10.78",
      "syringe_pump's indirect dispatch adds check_ind sites (+30.77%)");
  row("TableIV/average run time growth %", mean_pct(cycles_pct), "+7.080390",
      "+7.35", "the model's error; no hardware validation beyond this figure");
  row("TableIV/average lines assembled growth %", mean_pct(lines_pct),
      "+234.132175", "+34.30 (time)",
      "the paper times a whole C toolchain; here three assemblies are all "
      "the build does");
  // perfbench's eilid_overhead_pct is the same quantity (kEilidHw vs
  // kCasu simulated cycles, mean over the seven apps).
  row("TableIV/run time == perfbench eilid_overhead_pct",
      mean_pct(cycles_pct), "+7.080390", "+7.35");
}

// ----------------------------------------------------------- Figs. 3-8

// The paper's example shapes: direct call (Fig. 3), return (Fig. 4),
// ISR entry and exit (Figs. 5-6), function registration (Fig. 7) and
// an indirect call (Fig. 8).
constexpr const char* kPatternApp = R"(.org 0xe000
.func bar
main:
    mov #0x1000, r1
    call #foo
    mov #bar, r13
    call r13
halt:
    jmp halt
foo:
    mov #1, r10
    ret
bar:
    mov #2, r10
    ret
isr:
    inc r11
    reti
.vector 15, main
.vector 8, isr
.end
)";

TEST(PaperFidelity, Figs3To8InstrumentationSites) {
  core::BuildResult build = core::build_app(kPatternApp, "patterns");
  const core::SiteCounts& s = build.report.sites;
  row("Fig3/direct calls", s.direct_calls, 1, "1");
  row("Fig4/returns", s.returns, 2, "2");
  row("Fig5/ISR prologues", s.isr_prologues, 1, "1");
  row("Fig6/ISR epilogues", s.isr_epilogues, 1, "1");
  row("Fig7/functions registered", s.functions_registered, 1, "1",
      "kAddressTaken registers .func targets only; see AblationTable");
  row("Fig8/indirect calls", s.indirect_calls, 1, "1");

  // The instrumenter's deviations from the figures, read off its output.
  int store_ra = 0, saves = 0, pc_offset = 0;
  for (const std::string& line : build.report.lines) {
    if (line.find("call #NS_EILID_store_ra") != std::string::npos) ++store_ra;
    if (line == "    push r6" || line == "    push r7") ++saves;
    if (pc_offset == 0 && line.find("(r1), r6") != std::string::npos) {
      pc_offset = std::stoi(line.substr(line.find("mov ") + 4));
    }
  }
  row("Fig5/ISR saves r6, r7", saves, 2, "0",
      "an interrupt between an argument load and its veneer call would "
      "otherwise corrupt the interrupted site's argument");
  row("Fig5/saved PC offset from SP", pc_offset, 6, "-2",
      "MSP430 pushes PC at 2(SP) on interrupt entry, plus 4 for the r6/r7 "
      "saves");
  row("Fig8/indirect site stores ra", store_ra - s.direct_calls, 1, "0",
      "the callee's ret must pass P1; Fig. 8 omits the store for brevity");
}

// ------------------------------------------------------------- Fig. 9

// Records every change of ROM section (app, entry, body, leave) in the
// PCs the device fetches; the default wants_step() keeps it on every
// fetch.
class FlowTracer : public sim::Monitor {
 public:
  explicit FlowTracer(const core::RomInfo& rom) : rom_(rom) {}

  bool on_fetch(uint16_t pc, uint16_t) override {
    std::string section = "app";
    if (pc >= rom_.entry_start && pc <= rom_.entry_end) {
      section = "entry";
    } else if (pc >= rom_.leave_start && pc <= rom_.leave_end) {
      section = "leave";
    } else if (pc >= sim::kRomStart && pc <= sim::kRomEnd) {
      section = "body";
    }
    if (transitions.empty() || transitions.back().first != section) {
      transitions.emplace_back(section, pc);
    }
    return true;
  }

  std::vector<std::pair<std::string, uint16_t>> transitions;

 private:
  const core::RomInfo& rom_;
};

TEST(PaperFidelity, Fig9SoftwareFlowAndShadowLayout) {
  constexpr const char* kApp = R"(.org 0xe000
main:
    mov #0x1000, r1
    call #foo
    call #foo
halt:
    jmp halt
foo:
    ret
.vector 15, main
.end
)";
  Fleet fleet;
  DeviceSession& device =
      fleet.provision("flow", kApp, "flow", EnforcementPolicy::kEilidHw);
  FlowTracer tracer(device.build().rom);
  device.machine().add_monitor(&tracer);
  device.run_to_symbol("halt", 10000);

  // Fig. 9(a): app -> entry -> body -> leave -> app, twice.
  constexpr const char* kFlow[] = {
      "app 0xe000",   "entry 0xa004", "body 0xa028",
      "leave 0xa10a", "app 0xe00c",   "entry 0xa008",
      "body 0xa028",  "leave 0xa10a", "app 0xe024",
  };
  ASSERT_GE(tracer.transitions.size(), std::size(kFlow));
  for (size_t i = 0; i < std::size(kFlow); ++i) {
    const auto& [section, pc] = tracer.transitions[i];
    const std::string want = kFlow[i];
    row("Fig9a/transition " + std::to_string(i + 1), section + " " + hex16(pc),
        want, want.substr(0, want.find(' ')));
  }
  core::ShadowInspector inspector(device);
  row("Fig9b/shadow base",
      hex16(device.build().rom.config.shadow_base_addr()), "0x2026", "0x2000",
      "the indirect-call table, its count and lock word, and the index "
      "word sit below the shadow stack in secure DMEM");
  row("Fig9b/shadow depth after both returns", inspector.depth(), 0, "0");
  row("Fig9/resets", device.violation_count(), 0, "0");
  row("MemoryMap/secure DMEM start", hex16(sim::kSecureRamStart), "0x2000",
      "0x2000");
  row("MemoryMap/secure DMEM bytes",
      sim::kSecureRamEnd - sim::kSecureRamStart + 1, 256, "256");
  row("MemoryMap/secure ROM start", hex16(sim::kRomStart), "0xa000", "-",
      "the paper gives no ROM address; this layout is the model's");
}

// ------------------------------------------------------------ Fig. 10

TEST(PaperFidelity, Fig10StructuralHardwareCost) {
  struct Bom {
    hwcost::BillOfMaterials bom;
    int luts, ffs;
    const char* paper_luts;
    const char* paper_ffs;
  };
  const Bom kRows[] = {
      {hwcost::casu_monitor_bom(), 66, 19, "-", "-"},
      {hwcost::eilid_extension_bom(), 13, 4, "-", "-"},
      {hwcost::eilid_full_bom(), 79, 23, "99", "34"},
  };
  for (const Bom& b : kRows) {
    const hwcost::Cost total = b.bom.total();
    const char* gap = b.paper_luts[0] == '-'
                          ? ""
                          : "the structural model counts only the checks "
                            "implemented in src/casu and src/eilid";
    row("Fig10/" + b.bom.design + " LUTs", total.luts, b.luts, b.paper_luts,
        gap);
    row("Fig10/" + b.bom.design + " FFs", total.ffs, b.ffs, b.paper_ffs);
  }
}

// ------------------------------------------------- §VI micro costs

struct PathCost {
  int64_t store_cycles, store_insns, check_cycles, check_insns;
};

// Calls the EILIDsw stubs directly from a hand-assembled app; labels
// t0..t3 bracket the store and check paths. Each path includes the
// argument-load mov (2 cycles, 1 instruction) the instrumenter emits
// before its stub call.
PathCost measure_paths() {
  core::BuildResult build;
  build.rom = core::build_rom();
  std::string source;
  for (const char* stub : {"NS_EILID_store_ra", "NS_EILID_check_ra"}) {
    source += ".equ " + std::string(stub) + ", " +
              std::to_string(build.rom.unit.symbols.at(stub)) + "\n";
  }
  source += R"(.org 0xe000
main:
    mov #0x1000, r1
    mov #0x1234, r6
t0:
    call #NS_EILID_store_ra
t1:
    mov #0x1234, r6
t2:
    call #NS_EILID_check_ra
t3:
    nop
halt:
    jmp halt
.vector 15, main
.end
)";
  build.app = masm::assemble_text(source, "micro");
  DeviceSession device(
      "micro", std::make_shared<const core::BuildResult>(std::move(build)),
      EnforcementPolicy::kEilidHw);
  std::vector<std::pair<int64_t, int64_t>> at;  // cycles, instructions
  for (const char* label : {"t0", "t1", "t3", "halt"}) {
    EXPECT_EQ(device.run_to_symbol(label, 100000).cause,
              sim::StopCause::kBreakpoint)
        << label;
    at.emplace_back(device.machine().cycles(),
                    device.machine().cpu().instructions_retired());
  }
  EXPECT_EQ(device.violation_count(), 0u);
  // t1..t3 already spans the check path's mov.
  return {at[1].first - at[0].first + 2, at[1].second - at[0].second + 1,
          at[2].first - at[1].first - 2, at[2].second - at[1].second};
}

TEST(PaperFidelity, SectionVIStoreAndCheckCosts) {
  const PathCost p = measure_paths();
  row("VI/store_ra cycles", p.store_cycles, 30, "11.8 us",
      "the paper gives microseconds for its compiled EILIDsw; this ROM's "
      "hand-written paths run fewer instructions");
  row("VI/store_ra instructions", p.store_insns, 15, "26");
  row("VI/check_ra cycles", p.check_cycles, 31, "13.4 us");
  row("VI/check_ra instructions", p.check_insns, 18, "29");
  row("VI/pair cycles", p.store_cycles + p.check_cycles, 61, "25.2 us");
}

// ------------------------------------------------------ attack matrix

struct Outcome {
  std::string outcome;       // "hijacked", else "reset" or "no-op"
  std::string reason = "-";  // last enforcement reset, "-" when none
  int64_t latency = 0;       // attack fire -> reset, in cycles
};

Outcome settle(DeviceSession& device, bool hijacked,
               const attacks::AttackEngine* engine) {
  Outcome out;
  out.outcome = hijacked ? "hijacked" : "no-op";
  if (device.violation_count() > 0) {
    if (!hijacked) out.outcome = "reset";
    out.reason = device.last_reset_reason();
    if (engine != nullptr) {
      out.latency = static_cast<int64_t>(
          device.machine().resets().back().cycle - engine->last_fire_cycle());
    }
  }
  return out;
}

bool sent_unlock(DeviceSession& device) {
  return device.machine().uart().tx_text().find('U') != std::string::npos;
}

// P1: the UART stack overflow redirects recv_packet's return to
// `unlock`, which sends 'U'.
Outcome attack_p1(DeviceSession& device) {
  device.machine().uart().feed(
      attacks::overflow_ret_payload(device.symbol("unlock")));
  device.run_to_symbol("halt", apps::vuln_gateway().cycle_budget);
  return settle(device, sent_unlock(device), nullptr);
}

// P2: tampers the saved interrupt PC on the main stack while the ISR
// body runs (after the prologue stored it), so the ISR "returns" to
// halt and fewer than 16 frames go out.
Outcome attack_p2(DeviceSession& device) {
  const apps::AppSpec& app = apps::app_by_name("light_sensor");
  app.setup(device.machine());
  attacks::AttackEngine engine(device.machine());
  attacks::Attack attack;
  attacks::MemWrite w;
  w.sp_relative = true;
  w.value = device.symbol("halt");
  if (device.eilid_enabled()) {
    // Inside S_EILID_store_rfi: r6, r7 and the veneer's return address
    // sit above the saved PC, at SP+8.
    attack.trigger = {attacks::Trigger::Kind::kAtPc,
                      device.build().rom.unit.symbols.at("S_EILID_store_rfi"),
                      1};
    w.addr = 8;
  } else {
    attack.trigger = {attacks::Trigger::Kind::kAtPc,
                      device.symbol("timer_isr"), 1};
    w.addr = 2;
  }
  attack.writes = {w};
  engine.schedule(attack);
  device.run_to_symbol("halt", app.cycle_budget);
  return settle(device,
                device.machine().uart().tx_log().size() < 112 &&
                    device.violation_count() == 0,
                &engine);
}

// P3: overwrites the RAM function pointer with `unlock`, which is not
// in the entry table.
Outcome attack_p3(DeviceSession& device) {
  device.machine().uart().feed(attacks::benign_payload());
  attacks::AttackEngine engine(device.machine());
  attacks::Attack attack;
  attack.trigger = {attacks::Trigger::Kind::kAtPc, device.symbol("act"), 1};
  attack.writes = {{.addr = 0x0202, .value = device.symbol("unlock")}};
  engine.schedule(attack);
  device.run_to_symbol("halt", apps::vuln_gateway().cycle_budget);
  return settle(device, sent_unlock(device), &engine);
}

// Code injection: a nop staged in RAM at 0x0300 and the overflowed
// return pointed at it.
Outcome attack_wx(DeviceSession& device) {
  device.machine().bus().raw_store_word(0x0300, 0x4303);
  device.machine().uart().feed(attacks::overflow_ret_payload(0x0300));
  device.run_to_symbol("halt", apps::vuln_gateway().cycle_budget);
  return settle(device, device.violation_count() == 0, nullptr);
}

TEST(PaperFidelity, AttackMatrix) {
  struct AttackRow {
    const char* name;
    Outcome (*run)(DeviceSession&);
    const char* app;
    bool eilid;
    Outcome want;
    const char* paper;
    const char* gap;
  };
  const AttackRow kRows[] = {
      {"P1 stack smash", attack_p1, "vuln_gateway", false,
       {"hijacked", "dmem-exec", 0}, "hijacked",
       "the hijack completes before a later W^X fetch resets the device"},
      {"P1 stack smash", attack_p1, "vuln_gateway", true,
       {"reset", "cfi-return-mismatch", 0}, "reset",
       "latency not timed: the exploit arrives over UART, so no attack "
       "fires at a known cycle"},
      {"P2 ISR frame tamper", attack_p2, "light_sensor", false,
       {"hijacked", "-", 0}, "hijacked", ""},
      {"P2 ISR frame tamper", attack_p2, "light_sensor", true,
       {"reset", "cfi-rfi-mismatch", 67}, "reset", ""},
      {"P3 function pointer", attack_p3, "vuln_gateway", false,
       {"hijacked", "-", 0}, "hijacked", ""},
      {"P3 function pointer", attack_p3, "vuln_gateway", true,
       {"reset", "cfi-indirect-call", 58}, "reset", ""},
      {"W^X code injection", attack_wx, "vuln_gateway", false,
       {"reset", "dmem-exec", 0}, "reset", ""},
      {"W^X code injection", attack_wx, "vuln_gateway", true,
       {"reset", "cfi-return-mismatch", 0}, "reset",
       "check_ra catches the redirected return before the RAM fetch"},
  };
  SessionOptions halt_on_reset;
  halt_on_reset.halt_on_reset = true;
  Fleet fleet;
  for (const AttackRow& r : kRows) {
    const apps::AppSpec& app = apps::app_by_name(r.app);
    DeviceSession& device = fleet.provision(
        std::string(r.name) + (r.eilid ? "-eilid" : "-casu"), app.source,
        app.name,
        r.eilid ? EnforcementPolicy::kEilidHw : EnforcementPolicy::kCasu,
        halt_on_reset);
    const Outcome got = r.run(device);
    const std::string name = std::string("Attack/") + r.name +
                             (r.eilid ? "/kEilidHw" : "/kCasu");
    row(name + " outcome", got.outcome, r.want.outcome, r.paper, r.gap);
    row(name + " reset", got.reason, r.want.reason);
    row(name + " latency cycles", got.latency, r.want.latency,
        r.eilid && r.want.latency > 0 ? "real time" : "-");
  }
}

// ------------------------------------------------------------ ablations

// §V-B: shadow index in r5 (the paper's choice) vs in secure DMEM.
TEST(PaperFidelity, AblationShadowIndex) {
  constexpr int64_t kMemIndexCycles[] = {12404, 59616, 6872, 8125,
                                         24552, 74562, 5618};
  Fleet fleet;
  const auto& apps = apps::table4_apps();
  std::vector<double> growth;
  for (size_t i = 0; i < apps.size(); ++i) {
    core::BuildOptions mem;
    mem.rom.memory_backed_index = true;
    AppRun reg_run = run_app(fleet, apps[i], {});
    AppRun mem_run = run_app(fleet, apps[i], mem);
    row("AblationIndex/" + apps[i].name + " mem-index cycles", mem_run.cycles,
        kMemIndexCycles[i]);
    growth.push_back(pct_value(reg_run.cycles, mem_run.cycles));
  }
  row("AblationIndex/average mem vs r5 %", mean_pct(growth), "+0.832607",
      "r5 is faster", "the paper states the direction, not a figure");
}

// §IV-A: which functions enter the P3 table.
TEST(PaperFidelity, AblationTablePolicy) {
  Fleet fleet;
  const apps::AppSpec& app = apps::vuln_gateway();
  struct PolicyRow {
    core::TablePolicy policy;
    const char* name;
    int entries, bytes;
    int64_t cycles;
    const char* gap;
  };
  constexpr PolicyRow kRows[] = {
      {core::TablePolicy::kAddressTaken, "address-taken", 1, 224, 1130,
       "the default kAddressTaken differs from the paper's all-functions "
       "table: it registers only .func targets"},
      {core::TablePolicy::kAllFunctions, "all-functions", 4, 248, 1337, ""},
  };
  for (const PolicyRow& p : kRows) {
    core::BuildOptions options;
    options.instrument.table_policy = p.policy;
    auto build = fleet.build(app.source, app.name, options);
    DeviceSession& device =
        fleet.deploy(p.name, build, EnforcementPolicy::kEilidHw);
    device.machine().uart().feed(attacks::benign_payload());
    auto run = device.run_to_symbol("halt", 8 * app.cycle_budget);
    EXPECT_EQ(run.cause, sim::StopCause::kBreakpoint);
    EXPECT_EQ(device.violation_count(), 0u);
    const std::string name = std::string("AblationTable/") + p.name;
    row(name + " entries", build->report.sites.functions_registered,
        p.entries, "all functions", p.gap);
    row(name + " bytes", build->binary_size(), p.bytes);
    row(name + " cycles", run.cycles, p.cycles);
  }
}

// Fig. 2's numeric three-build flow vs a label-based single build: the
// images must be byte-identical.
TEST(PaperFidelity, AblationCompileMode) {
  for (const apps::AppSpec& app : apps::table4_apps()) {
    core::BuildOptions label;
    label.instrument.label_mode = true;
    core::BuildResult numeric = core::build_app(app.source, app.name);
    core::BuildResult labeled = core::build_app(app.source, app.name, label);
    const std::string name = "AblationCompile/" + app.name;
    row(name + " label-mode image identical",
        numeric.app.image.bytes() == labeled.app.image.bytes(), 1);
    row(name + " assemblies label", labeled.iterations.size(), 1);
  }
}

// §I/§II-C: CFA only detects a hijack at its next report; EILID stops
// it inside check_ra.
TEST(PaperFidelity, AblationCfaDetection) {
  Fleet fleet;
  const apps::AppSpec& gateway = apps::vuln_gateway();
  struct Interval {
    uint64_t cycles;
    int unlock_slice, convict_slice;
  };
  constexpr Interval kIntervals[] = {
      {100, 6, 6}, {10000, 0, 0}, {50000, 0, 0}, {200000, 0, 0}};
  for (const Interval& want : kIntervals) {
    DeviceSession& device = fleet.deploy(
        "cfa-" + std::to_string(want.cycles),
        fleet.build(gateway.source, gateway.name, plain_build()),
        EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 4096}});
    device.machine().uart().feed(
        attacks::overflow_ret_payload(device.symbol("unlock")));
    int unlock_slice = -1, convict_slice = -1;
    for (int slice = 0; slice < 64 && convict_slice < 0; ++slice) {
      device.run(want.cycles);
      if (unlock_slice < 0 && sent_unlock(device)) unlock_slice = slice;
      VerifierService::AttestResult verdict = fleet.verifier().attest(device);
      ASSERT_TRUE(verdict.mac_ok);
      if (!verdict.path_ok) convict_slice = slice;
    }
    const std::string name =
        "AblationCfa/interval " + std::to_string(want.cycles);
    row(name + " slice sending U", unlock_slice, want.unlock_slice);
    row(name + " slice convicted", convict_slice, want.convict_slice, "-",
        "the hijacked code has already run when the verdict lands");
  }
  row("AblationCfa/EILID check_ra cycles", measure_paths().check_cycles, 31,
      "real time", "the corrupted ret never executes");

  struct LogRow {
    const char* app;
    int64_t edges, bytes;
  };
  constexpr LogRow kLogs[] = {
      {"light_sensor", 1240, 10240},      {"ultrasonic_ranger", 9362, 75776},
      {"fire_sensor", 671, 6144},         {"syringe_pump", 2245, 18432},
      {"temp_sensor", 5781, 47104},       {"charlieplexing", 21445, 172032},
      {"lcd_sensor", 1379, 12288},
  };
  for (const LogRow& want : kLogs) {
    const apps::AppSpec& app = apps::app_by_name(want.app);
    DeviceSession& device = fleet.deploy(
        std::string("log-") + want.app,
        fleet.build(app.source, app.name, plain_build()),
        EnforcementPolicy::kCfaBaseline, {.cfa = {.log_capacity = 1u << 20}});
    app.setup(device.machine());
    device.run_to_symbol("halt", 8 * app.cycle_budget);
    const cfa::CfaMonitor& monitor = *device.cfa_monitor();
    const std::string name = std::string("AblationCfa/") + want.app;
    row(name + " log edges", monitor.total_edges(), want.edges);
    row(name + " log bytes", monitor.total_log_bytes(), want.bytes,
        "significant", "EILID keeps 2 bytes per live call instead");
  }
}

}  // namespace
}  // namespace eilid
