#include "eilid/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "sim/memory_map.h"

namespace eilid::core {

std::vector<uint8_t> flat_memory(const BuildResult& build) {
  std::vector<uint8_t> flat(0x10000, 0);
  auto blit = [&flat](const masm::MemoryImage& image) {
    for (const auto& chunk : image.chunks()) {
      std::copy(chunk.data.begin(), chunk.data.end(),
                flat.begin() + chunk.base);
    }
  };
  blit(build.app.image);
  if (build.rom.unit.image.size_bytes() != 0) blit(build.rom.unit.image);
  return flat;
}

ImageDiff diff_builds(const BuildResult& from, const BuildResult& to) {
  ImageDiff diff;
  const std::vector<uint8_t> a = flat_memory(from);
  const std::vector<uint8_t> b = flat_memory(to);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    const uint16_t addr = static_cast<uint16_t>(i);
    if (!sim::is_pmem(addr)) {
      diff.compatible = false;
      diff.first_incompatible = addr;
      diff.regions.clear();
      diff.payload_bytes = 0;
      return diff;
    }
    if (!diff.regions.empty() &&
        diff.regions.back().target_addr + diff.regions.back().payload.size() ==
            i) {
      diff.regions.back().payload.push_back(b[i]);
    } else {
      diff.regions.push_back({addr, {b[i]}});
    }
    ++diff.payload_bytes;
  }
  return diff;
}

namespace {

// Predecode the build's code regions once, from exactly the bytes a
// freshly flashed device holds.
std::shared_ptr<const isa::DecodedImage> predecode(
    const std::vector<uint8_t>& flat) {
  const isa::DecodedImage::Range ranges[] = {
      {sim::kRomStart, sim::kRomEnd},
      {sim::kPmemStart, 0xFFFE},
  };
  return std::make_shared<const isa::DecodedImage>(
      std::span<const uint8_t>(flat.data(), flat.size()),
      std::span<const isa::DecodedImage::Range>(ranges, 2));
}

// Build every shared per-build artifact: the flat flashed snapshot
// (the sessions' copy-on-write base), the decoded image derived from
// it, and the CFG the verifier replays against. Done once per build;
// every device flashed with this build shares the same three immutable
// objects.
void attach_images(BuildResult& result) {
  result.flat_image =
      std::make_shared<const std::vector<uint8_t>>(flat_memory(result));
  result.decoded_image = predecode(*result.flat_image);
  result.cfg = std::make_shared<const cfa::Cfg>(cfa::extract_cfg(result.app));
}

}  // namespace

BuildResult build_app(const std::string& source, const std::string& name,
                      const BuildOptions& options) {
  BuildResult result;
  std::vector<std::string> original = masm::split_lines(source);

  if (!options.eilid) {
    result.app = masm::assemble(original, name);
    result.iterations.push_back({original.size(), result.app.image.size_bytes()});
    attach_images(result);
    return result;
  }

  result.rom = build_rom(options.rom);
  const InstrumentConfig& icfg = options.instrument;
  Instrumenter inst(icfg, result.rom.unit.symbols,
                    !options.rom.memory_backed_index);

  if (icfg.label_mode) {
    // Single-pass ablation: return addresses are assembler labels.
    InstrumentResult ir = inst.instrument(original, nullptr);
    result.app = masm::assemble(ir.lines, name);
    result.report = std::move(ir);
    result.iterations.push_back({original.size(), result.app.image.size_bytes()});
    attach_images(result);
    return result;
  }

  // --- Iteration 1: plain build of the original source. ---
  masm::AssembledUnit build1 = masm::assemble(original, name + "_1");
  result.iterations.push_back({original.size(), build1.image.size_bytes()});

  // --- Iteration 2: instrument with iteration-1 addresses (stale). ---
  InstrumentResult inst2 = inst.instrument(original, &build1.listing);
  masm::AssembledUnit build2 = masm::assemble(inst2.lines, name + "_2");
  result.iterations.push_back({inst2.lines.size(), build2.image.size_bytes()});

  // --- Iteration 3: instrument with iteration-2 addresses (final). ---
  InstrumentResult inst3 = inst.instrument(original, &build2.listing);
  masm::AssembledUnit build3 = masm::assemble(inst3.lines, name);
  result.iterations.push_back({inst3.lines.size(), build3.image.size_bytes()});

  // A fourth instrumentation must reproduce iteration 3 exactly: the
  // layout of build2 and build3 agree, so the addresses read from
  // either listing are identical.
  if (inst.instrument(original, &build3.listing).lines != inst3.lines) {
    throw InstrumentError(
        "instrumented build did not converge after three iterations");
  }

  result.app = std::move(build3);
  result.report = std::move(inst3);
  attach_images(result);
  return result;
}

}  // namespace eilid::core
