// EILID core tests: ROM generation, shadow-stack mechanics (via direct
// stub calls), secure-DMEM protection, instrumenter passes and the
// three-iteration pipeline.
#include <gtest/gtest.h>

#include "common/error.h"
#include "eilid/inspect.h"
#include "eilid/instrumenter.h"
#include "eilid/pipeline.h"
#include "eilid/rom_builder.h"
#include "standalone_session.h"

namespace eilid::core {
namespace {

using sim::ResetReason;

// Build a hand-written app that calls the ROM stubs directly.
BuildResult stub_app(const std::string& body, RomConfig rom_cfg = {}) {
  RomInfo rom = build_rom(rom_cfg);
  std::string src;
  for (const char* name : kVeneerNames) {
    src += ".equ " + std::string(name) + ", " +
           std::to_string(rom.unit.symbols.at(name)) + "\n";
  }
  src += ".org 0xe000\nmain:\n    mov #0x1000, r1\n" + body +
         "halt:\n    jmp halt\n.vector 15, main\n";
  BuildResult build;
  build.rom = rom;
  build.app = masm::assemble_text(src, "stubapp");
  return build;
}

TEST(RomBuilder, LayoutIsWithinSecureRegion) {
  RomInfo rom = build_rom();
  EXPECT_EQ(rom.entry_start, sim::kRomStart);
  EXPECT_GT(rom.entry_end, rom.entry_start);
  EXPECT_GT(rom.leave_start, rom.entry_end);
  EXPECT_GE(rom.leave_end, rom.leave_start);
  EXPECT_LE(rom.unit.symbols.at("S_ROM_END"), sim::kRomEnd);
  // 256-byte secure DMEM split: defaults must fit exactly.
  RomConfig cfg;
  EXPECT_LE(cfg.shadow_base_addr() + 2 * cfg.effective_shadow_capacity(),
            cfg.secure_base + cfg.secure_size);
  EXPECT_GE(cfg.effective_shadow_capacity(), 100);
}

TEST(RomBuilder, RejectsImpossibleLayout) {
  RomConfig cfg;
  cfg.table_capacity = 200;  // table alone exceeds 256 bytes
  EXPECT_THROW(build_rom(cfg), ConfigError);
}

TEST(ShadowStack, StoreThenMatchingCheckPasses) {
  auto build = stub_app(R"(    mov #0x1234, r6
    mov #1, r4
    call #NS_EILID_store_ra
    mov #0x1234, r6
    call #NS_EILID_check_ra
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  auto r = device.run_to_symbol("halt", 5000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
  EXPECT_EQ(device.machine().violation_count(), 0u);
  ShadowInspector inspector(device);
  EXPECT_EQ(inspector.depth(), 0u);
}

TEST(ShadowStack, MismatchResets) {
  auto build = stub_app(R"(    mov #0x1234, r6
    call #NS_EILID_store_ra
    mov #0x5678, r6
    call #NS_EILID_check_ra
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  auto r = device.machine().run(5000);
  EXPECT_EQ(r.cause, sim::StopCause::kDeviceReset);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kCfiReturnMismatch);
}

TEST(ShadowStack, UnderflowResets) {
  auto build = stub_app(R"(    mov #0x1234, r6
    call #NS_EILID_check_ra
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().run(5000);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kShadowStackUnderflow);
}

TEST(ShadowStack, OverflowResets) {
  // Store in a loop beyond capacity.
  auto build = stub_app(R"(    mov #200, r10
ov_loop:
    mov #0x1234, r6
    call #NS_EILID_store_ra
    dec r10
    jnz ov_loop
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().run(100000);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kShadowStackOverflow);
}

TEST(ShadowStack, LifoOrderObservable) {
  auto build = stub_app(R"(    mov #0x1111, r6
    call #NS_EILID_store_ra
    mov #0x2222, r6
    call #NS_EILID_store_ra
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.run_to_symbol("halt", 5000);
  ShadowInspector inspector(device);
  ASSERT_EQ(inspector.depth(), 2u);
  EXPECT_EQ(inspector.entry(0), 0x1111);
  EXPECT_EQ(inspector.entry(1), 0x2222);
}

TEST(ShadowStack, RfiStoresAndChecksContextPair) {
  auto build = stub_app(R"(    mov #0xe123, r6
    mov #0x0008, r7
    call #NS_EILID_store_rfi
    mov #0xe123, r6
    mov #0x0008, r7
    call #NS_EILID_check_rfi
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  auto r = device.run_to_symbol("halt", 5000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
}

TEST(ShadowStack, RfiSrMismatchResets) {
  auto build = stub_app(R"(    mov #0xe123, r6
    mov #0x0008, r7
    call #NS_EILID_store_rfi
    mov #0xe123, r6
    mov #0x0000, r7
    call #NS_EILID_check_rfi
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().run(5000);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kCfiRfiMismatch);
}

TEST(IndTable, RegisteredTargetPassesUnknownResets) {
  auto build = stub_app(R"(    call #NS_EILID_init
    mov #0xe200, r6
    call #NS_EILID_store_ind
    mov #0xe200, r6
    call #NS_EILID_check_ind
    mov #0xe300, r6
    call #NS_EILID_check_ind
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().run(5000);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kCfiIndirectCallViolation);
}

TEST(IndTable, LockPreventsLateRegistration) {
  auto build = stub_app(R"(    call #NS_EILID_init
    mov #0xe200, r6
    call #NS_EILID_store_ind
    call #NS_EILID_lock
    mov #0xe300, r6
    call #NS_EILID_store_ind
)");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().run(5000);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kCfiIndirectCallViolation);
}

TEST(IndTable, FullTableResets) {
  RomConfig cfg;
  cfg.table_capacity = 2;
  auto build = stub_app(R"(    call #NS_EILID_init
    mov #0xe200, r6
    call #NS_EILID_store_ind
    mov #0xe202, r6
    call #NS_EILID_store_ind
    mov #0xe204, r6
    call #NS_EILID_store_ind
)",
                        cfg);
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().run(5000);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kIndTableFull);
}

TEST(EilidHw, ShadowMemoryUnreadableFromApp) {
  auto build = stub_app("    mov &0x2000, r10\n");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().run(5000);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kSecureRamAccessViolation);
}

TEST(EilidHw, ShadowMemoryUnwritableFromApp) {
  auto build = stub_app("    mov #0xdead, &0x2080\n");
  DeviceSession device = standalone_session(build, /*halt_on_reset=*/true);
  device.machine().run(5000);
  EXPECT_EQ(device.machine().resets().back().reason,
            ResetReason::kSecureRamAccessViolation);
  EXPECT_NE(device.machine().bus().raw_word(0x2080), 0xDEAD);
}

TEST(EilidHw, MidStubEntryDispatchesSafely) {
  // Jumping into the entry section *mid-stub* (at a stub's jmp word,
  // skipping the selector mov) is within the legal entry range; the
  // dispatch then runs with whatever r4 holds. With an out-of-range
  // selector the ROM must report a bad-selector violation rather than
  // do anything exploitable.
  RomInfo rom = build_rom();
  // The jmp of the init stub sits right after its selector mov (1 word).
  uint16_t mid_stub =
      static_cast<uint16_t>(rom.unit.symbols.at("NS_EILID_init") + 2);
  std::string src = ".org 0xe000\nmain:\n    mov #0x1000, r1\n"
                    "    mov #9, r4\n    call #" +
                    std::to_string(mid_stub) +
                    "\nhalt:\n    jmp halt\n.vector 15, main\n";
  BuildResult b;
  b.rom = rom;
  b.app = masm::assemble_text(src, "sel");
  DeviceSession device = standalone_session(b, /*halt_on_reset=*/true);
  device.machine().run(5000);
  EXPECT_EQ(device.machine().resets().back().reason, ResetReason::kBadSelector);
}

TEST(EilidHw, LastStubIsLegalEntry) {
  RomInfo rom = build_rom();
  std::string src = ".equ STUB, " +
                    std::to_string(rom.unit.symbols.at("NS_EILID_lock")) +
                    "\n.org 0xe000\nmain:\n    mov #0x1000, r1\n"
                    "    call #STUB\nhalt:\n    jmp halt\n.vector 15, main\n";
  BuildResult b;
  b.rom = rom;
  b.app = masm::assemble_text(src, "sel2");
  DeviceSession device = standalone_session(b, /*halt_on_reset=*/true);
  auto r = device.run_to_symbol("halt", 5000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
  EXPECT_EQ(device.machine().violation_count(), 0u);
}

// --- Instrumenter unit tests ---

const char* kTinyApp = R"(.org 0xe000
main:
    mov #0x1000, r1
    call #foo
halt:
    jmp halt
foo:
    ret
.vector 15, main
.end
)";

TEST(Instrumenter, CountsSites) {
  BuildResult build = build_app(kTinyApp, "tiny");
  EXPECT_EQ(build.report.sites.direct_calls, 1);
  EXPECT_EQ(build.report.sites.returns, 1);
  EXPECT_EQ(build.report.sites.isr_prologues, 0);
  EXPECT_EQ(build.report.sites.indirect_calls, 0);
  EXPECT_EQ(build.report.sites.functions_registered, 0)
      << "no indirect calls: no table registration";
}

TEST(Instrumenter, RequiresResetVector) {
  RomInfo rom = build_rom();
  Instrumenter inst(InstrumentConfig{}, rom.unit.symbols);
  auto lines = masm::split_lines(".org 0xe000\nmain:\n    nop\n");
  masm::AssembledUnit unit = masm::assemble(lines, "noreset");
  EXPECT_THROW(inst.instrument(lines, &unit.listing), InstrumentError);
}

TEST(Instrumenter, SpillsAppWritesToR5) {
  std::string app = R"(.org 0xe000
main:
    mov #0x1000, r1
    mov #7, r5
halt:
    jmp halt
.vector 15, main
.end
)";
  BuildResult build = build_app(app, "spill");
  EXPECT_EQ(build.report.sites.spills, 1);
  EXPECT_FALSE(build.report.warnings.empty());
  // With the memory-backed index, r5 is free: no spill.
  BuildOptions opts;
  opts.rom.memory_backed_index = true;
  BuildResult build2 = build_app(app, "spill2", opts);
  EXPECT_EQ(build2.report.sites.spills, 0);
}

TEST(Instrumenter, WarnsOnAutoincrementIndirectCall) {
  std::string app = R"(.org 0xe000
.func foo
main:
    mov #0x1000, r1
    mov #0x0300, r12
    call @r12+
halt:
    jmp halt
foo:
    ret
.vector 15, main
.end
)";
  BuildResult build = build_app(app, "autoinc");
  bool warned = false;
  for (const auto& w : build.report.warnings) {
    if (w.find("auto-increment") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(Pipeline, ThreeIterationsConvergeAndLabelModeMatches) {
  BuildResult numeric = build_app(kTinyApp, "tiny");
  ASSERT_EQ(numeric.iterations.size(), 3u);
  EXPECT_GT(numeric.iterations[1].image_bytes, numeric.iterations[0].image_bytes);
  EXPECT_EQ(numeric.iterations[1].image_bytes, numeric.iterations[2].image_bytes);

  BuildOptions label;
  label.instrument.label_mode = true;
  BuildResult labeled = build_app(kTinyApp, "tiny", label);
  EXPECT_EQ(numeric.app.image.bytes(), labeled.app.image.bytes())
      << "numeric and label modes must produce identical images";
}

TEST(Pipeline, PlainBuildHasNoRom) {
  BuildResult plain = build_app(kTinyApp, "tiny", {.eilid = false});
  EXPECT_EQ(plain.rom.unit.image.size_bytes(), 0u);
  DeviceSession device = standalone_session(plain);
  EXPECT_FALSE(device.eilid_enabled());
  auto r = device.run_to_symbol("halt", 5000);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
}

TEST(Pipeline, SelectiveProperties) {
  // Only backward-edge enabled: no ISR or indirect instrumentation.
  std::string app = R"(.org 0xe000
.func foo
main:
    mov #0x1000, r1
    call #foo
    mov #foo, r13
    call r13
halt:
    jmp halt
foo:
    ret
isr:
    reti
.vector 15, main
.vector 8, isr
.end
)";
  BuildOptions opts;
  opts.instrument.interrupt_edge = false;
  opts.instrument.forward_edge = false;
  BuildResult build = build_app(app, "partial", opts);
  EXPECT_EQ(build.report.sites.isr_prologues, 0);
  EXPECT_EQ(build.report.sites.indirect_calls, 0);
  EXPECT_GT(build.report.sites.direct_calls, 0);
}

}  // namespace
}  // namespace eilid::core
