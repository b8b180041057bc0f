// EILIDinst: the compile-time assembly instrumenter (paper §IV-A).
//
// Passes:
//   P1  before every direct call: load the return address into r6 and
//       call NS_EILID_store_ra (Fig. 3); before every ret: load the
//       on-stack return address and call NS_EILID_check_ra (Fig. 4).
//   P2  at every ISR prologue: save r6/r7, load the saved interrupt
//       context and call NS_EILID_store_rfi (Fig. 5); before reti:
//       reload context, call NS_EILID_check_rfi, restore r6/r7
//       (Fig. 6).
//   P3  after boot (first instruction of the reset handler, which must
//       set up the stack pointer): call NS_EILID_init, register every
//       function entry with NS_EILID_store_ind (Fig. 7); before every
//       indirect call: validate the target with NS_EILID_check_ind and
//       store the return address (Fig. 8).
//
// Return addresses are numeric (taken from the previous iteration's
// listing -- the paper's three-iteration flow, Fig. 2) or assembler
// labels (single-pass mode, used as a compile-time ablation).
//
// Deviations from the paper, each pinned by a Fig5/* or Fig8/* row of
// tests/test_paper_fidelity.cpp:
//   - ISR context offsets follow real MSP430 interrupt-entry layout
//     (SR at 0(SP), PC at 2(SP)) rather than Fig. 5's 0/-2 offsets.
//   - ISR instrumentation saves/restores r6 and r7: without this, an
//     interrupt arriving between an argument load and its veneer call
//     would corrupt CFI metadata of the interrupted sequence.
//   - Indirect call sites also store the return address (required for
//     the subsequent ret to pass P1; Fig. 8 omits it for brevity).
#ifndef EILID_EILID_INSTRUMENTER_H
#define EILID_EILID_INSTRUMENTER_H

#include <map>
#include <string>
#include <vector>

#include "eilid/config.h"
#include "eilid/rom_builder.h"
#include "masm/listing.h"

namespace eilid::core {

struct SiteCounts {
  int direct_calls = 0;
  int returns = 0;
  int isr_prologues = 0;
  int isr_epilogues = 0;
  int indirect_calls = 0;
  int functions_registered = 0;
  int spills = 0;

  int total() const {
    return direct_calls + returns + isr_prologues + isr_epilogues +
           indirect_calls;
  }
};

struct InstrumentResult {
  std::vector<std::string> lines;  // the instrumented source
  SiteCounts sites;
  std::vector<std::string> warnings;
};

class Instrumenter {
 public:
  // `rom_symbols` is the symbol table of the assembled EILIDsw image;
  // the instrumenter resolves the NS_EILID_* entry stubs from it.
  // `index_in_register` is !RomConfig::memory_backed_index of that
  // ROM: while the shadow index lives in r5, app instructions that
  // write r5 are re-targeted at a scratch register (paper §V), so r5
  // stays valid at every instruction boundary and an interrupt can
  // never observe a clobbered shadow index.
  Instrumenter(InstrumentConfig config,
               std::map<std::string, uint16_t> rom_symbols,
               bool index_in_register = true)
      : config_(config),
        rom_symbols_(std::move(rom_symbols)),
        index_in_register_(index_in_register) {}

  // Instrument `original`. In numeric mode, `prev_listing` must be the
  // listing of the previous build iteration (original build for the
  // first instrumentation); in label mode it may be null.
  InstrumentResult instrument(const std::vector<std::string>& original,
                              const masm::Listing* prev_listing) const;

 private:
  InstrumentConfig config_;
  std::map<std::string, uint16_t> rom_symbols_;
  bool index_in_register_;
};

}  // namespace eilid::core

#endif  // EILID_EILID_INSTRUMENTER_H
