// The EILID build pipeline: the paper's three-iteration instrumented
// compile flow (Fig. 2).
//
//   build 1: assemble the original source            -> app_1.lst
//   build 2: instrument(original, app_1.lst)         -> app_2.lst
//   build 3: instrument(original, app_2.lst)         -> final image
//
// Iteration 3's addresses are final because instrumentation size is
// independent of the numeric values it embeds; a fourth
// instrumentation pass checks this on every build and throws if it
// differs. Label mode (ablation) needs a single build.
#ifndef EILID_EILID_PIPELINE_H
#define EILID_EILID_PIPELINE_H

#include <memory>
#include <string>
#include <vector>

#include "casu/update.h"
#include "cfa/cfg.h"
#include "eilid/instrumenter.h"
#include "eilid/rom_builder.h"
#include "isa/decoded_image.h"
#include "masm/assembler.h"

namespace eilid::core {

struct BuildOptions {
  bool eilid = true;  // false: plain (original) build, single pass
  InstrumentConfig instrument;
  RomConfig rom;
};

struct IterationStats {
  size_t source_lines = 0;
  size_t image_bytes = 0;
};

struct BuildResult {
  masm::AssembledUnit app;   // final application unit
  RomInfo rom;               // EILIDsw (empty unit when !eilid)
  InstrumentResult report;   // last instrumentation pass
  std::vector<IterationStats> iterations;  // Fig. 2 growth data
  // One shared, immutable artifact per concern, built once here on
  // every build path (attach_images) and shared read-only by every
  // device flashed with this build -- the fleet's build cache therefore
  // snapshots, decodes and analyses each build exactly once, however
  // many sessions run it.
  //
  // The full 64 KiB flashed snapshot (== flat_memory(*this)), attached
  // as every session's copy-on-write base image (sim::PagedMemory): N
  // devices of one build share these bytes and privately own only the
  // pages they dirty.
  std::shared_ptr<const std::vector<uint8_t>> flat_image;
  // The flashed code regions (secure ROM + PMEM) decoded into one
  // PC-indexed table: each slot's instruction plus its superblock
  // suffix (span, summed cycles, static target, end kind). Drives both
  // per-instruction and block dispatch; see isa::DecodedImage and
  // Machine::attach_decoded_image for the invalidation rule.
  std::shared_ptr<const isa::DecodedImage> decoded_image;
  // The app's static CFG (== cfa::extract_cfg(app)), which the CFA
  // verifier replays attestation evidence against. Null only on a
  // hand-assembled BuildResult, which cannot be deployed as a
  // kCfaBaseline device.
  std::shared_ptr<const cfa::Cfg> cfg;

  size_t binary_size() const { return app.image.size_bytes(); }
};

// Build an application from source text. Throws on assembly or
// instrumentation errors.
BuildResult build_app(const std::string& source, const std::string& name,
                      const BuildOptions& options = {});

// Full 64 KiB address-space snapshot of the flashed build (app + ROM
// over zero-filled backing store) -- exactly what a freshly loaded
// device's memory holds. The predecoder and the update differ both
// read builds through this one definition.
std::vector<uint8_t> flat_memory(const BuildResult& build);

// Byte diff between two builds' flashed images, expressed as the
// coalesced PMEM write regions an authenticated update must apply to
// move a device from `from` to `to`. A difference outside PMEM (a
// different EILIDsw ROM, bytes below the flash floor) cannot be
// expressed as a CASU update at all: the transition is marked
// incompatible and carries no regions.
struct ImageDiff {
  bool compatible = true;
  uint16_t first_incompatible = 0;  // lowest differing non-PMEM address
  std::vector<casu::UpdateRegion> regions;
  size_t payload_bytes = 0;
};

ImageDiff diff_builds(const BuildResult& from, const BuildResult& to);

}  // namespace eilid::core

#endif  // EILID_EILID_PIPELINE_H
