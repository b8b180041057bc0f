// Cross-layer properties:
//   - every instruction of every assembled Table IV app disassembles to
//     text that the assembler re-encodes to the identical bytes
//     (disassembler <-> assembler round trip over real programs);
//   - the full EILID stack also works with the memory-backed shadow
//     index (ablation configuration) on real workloads.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "eilid/pipeline.h"
#include "isa/decoder.h"
#include "isa/disasm.h"
#include "masm/assembler.h"
#include "standalone_session.h"

namespace eilid {
namespace {

class AppRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(AppRoundTrip, DisassembleReassembleIdentical) {
  const auto& app = apps::app_by_name(GetParam());
  core::BuildResult build = core::build_app(app.source, app.name,
                                            {.eilid = false});
  int checked = 0;
  for (size_t i = 0; i < build.app.listing.lines.size(); ++i) {
    const auto& line = build.app.listing.lines[i];
    if (!line.is_instruction || line.bytes.size() < 2) continue;
    std::array<uint16_t, 3> words{};
    for (size_t w = 0; w < 3 && 2 * w + 1 < line.bytes.size(); ++w) {
      words[w] = static_cast<uint16_t>(line.bytes[2 * w] |
                                       (line.bytes[2 * w + 1] << 8));
    }
    auto decoded = isa::decode(words, line.address);
    ASSERT_TRUE(decoded.has_value()) << "undecodable at " << line.address;

    // Reassemble the disassembly at the same address; bytes must match.
    std::string text = isa::disassemble(*decoded);
    char org[32];
    std::snprintf(org, sizeof(org), ".org 0x%04x\n", line.address);
    auto reunit = masm::assemble_text(std::string(org) + text + "\n", "rt");
    ASSERT_EQ(reunit.image.size_bytes(), 2u * decoded->size_words)
        << text << " at " << line.address;
    for (unsigned w = 0; w < decoded->size_words; ++w) {
      EXPECT_EQ(reunit.image.word_at(static_cast<uint16_t>(line.address + 2 * w)),
                words[w])
          << text << " word " << w;
    }
    ++checked;
  }
  EXPECT_GT(checked, 20) << "expected a substantial instruction count";
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AppRoundTrip,
    ::testing::Values("light_sensor", "ultrasonic_ranger", "fire_sensor",
                      "syringe_pump", "temp_sensor", "charlieplexing",
                      "lcd_sensor", "vuln_gateway"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

class MemIndexApps : public ::testing::TestWithParam<const char*> {};

TEST_P(MemIndexApps, RunCleanWithMemoryBackedIndex) {
  const auto& app = apps::app_by_name(GetParam());
  core::BuildOptions options;
  options.rom.memory_backed_index = true;
  core::BuildResult build = core::build_app(app.source, app.name, options);
  DeviceSession device = standalone_session(build);
  app.setup(device.machine());
  auto r = device.run_to_symbol("halt", 8 * app.cycle_budget);
  EXPECT_EQ(r.cause, sim::StopCause::kBreakpoint);
  EXPECT_EQ(device.machine().violation_count(), 0u);
  EXPECT_EQ(app.check(device.machine()), "");
}

INSTANTIATE_TEST_SUITE_P(
    Apps, MemIndexApps,
    ::testing::Values("light_sensor", "syringe_pump", "lcd_sensor"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(RomSource, BothIndexVariantsDifferOnlyInIndexing) {
  core::RomConfig reg_cfg;
  core::RomConfig mem_cfg;
  mem_cfg.memory_backed_index = true;
  std::string reg_src = core::generate_rom_source(reg_cfg);
  std::string mem_src = core::generate_rom_source(mem_cfg);
  EXPECT_NE(reg_src, mem_src);
  EXPECT_NE(mem_src.find("SHADOW_IDX"), std::string::npos);
  // Register variant keeps the index in r5 and never loads SHADOW_IDX.
  EXPECT_EQ(reg_src.find("mov &SHADOW_IDX"), std::string::npos);
}

}  // namespace
}  // namespace eilid
