// Seeded attack mutators for the scenario fuzzer: each perturbation is
// planned from evidence that the thing being corrupted was actually
// *exercised* -- a mutation of dead code or an unreferenced table slot
// would leave the benign behavior intact and prove nothing. The
// planners return what to patch (and what divergence it must provoke);
// the harness applies the patch through Bus::raw_store_word, which
// bumps the bus code generation so every engine -- interpretive or
// superblock, stepping or dispatching blocks -- sees the mutated
// bytes, never a stale table.
//
// Families:
//   - PMEM control-flow diversion: rewrite an exercised direct jump's
//     10-bit offset, or repoint an exercised dispatch-table word at a
//     ROP gadget. The CFA verifier must convict the replay; EILID's
//     P3 check must refuse the gadget in real time.
//   - Attestation-report tampering: bit flips / drops / duplication /
//     reordering of logged edges, and header-field forgery (seq,
//     cycle, dropped). Every kind must fail the report MAC.
//   - Update-package tampering: any single-bit flip of the serialized
//     package must be refused (parse failure or kBadMac), and a replay
//     of an already-applied version must come back kRollback.
//   - Transfer-chunk tampering: line noise (bad checksum) is NACKed,
//     an adversarial forge (checksum recomputed) is caught by the
//     package MAC at finalize, inconsistent geometry is kMalformed,
//     truncation leaves the transfer resumable (kInterrupted).
#ifndef EILID_FUZZ_ATTACK_MUTATOR_H
#define EILID_FUZZ_ATTACK_MUTATOR_H

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "casu/update.h"
#include "cfa/attestation.h"
#include "cfa/cfg.h"
#include "common/rng.h"
#include "masm/assembler.h"

namespace eilid::fuzz {

// One planned PMEM word patch and the control transfer it diverts.
struct PmemPatch {
  uint16_t addr = 0;  // word address to overwrite
  uint16_t old_word = 0;
  uint16_t new_word = 0;
  uint16_t from = 0;  // transfer source the patch perturbs
  uint16_t old_to = 0;
  uint16_t new_to = 0;
};

enum class ReportTamper : uint8_t {
  kEdgeTargetFlip,  // flip one bit of a logged edge's target
  kEdgeDrop,        // delete one edge (hide evidence)
  kEdgeDuplicate,   // replay one edge
  kEdgeSwap,        // reorder two distinct edges
  kSeqBump,         // forge the report sequence number
  kCycleBump,       // forge the emission cycle
  kDroppedBump,     // forge the overflow-drop count
};

inline constexpr ReportTamper kAllReportTampers[] = {
    ReportTamper::kEdgeTargetFlip, ReportTamper::kEdgeDrop,
    ReportTamper::kEdgeDuplicate,  ReportTamper::kEdgeSwap,
    ReportTamper::kSeqBump,        ReportTamper::kCycleBump,
    ReportTamper::kDroppedBump,
};

std::string_view report_tamper_name(ReportTamper kind);

class AttackMutator {
 public:
  explicit AttackMutator(uint64_t seed) : rng_(seed) {}

  // Divert one direct jump the benign run exercised (a logged edge in
  // `benign` that is a Cfg jump edge whose source word is
  // jump-format). The new target is a real instruction start within
  // the 10-bit range, excluding the old target, the fall-through (a
  // jump to its own fall-through fires no control-transfer callout and
  // would leave no evidence), and any legitimate jump edge from the
  // same source. nullopt when the program offers no such jump.
  std::optional<PmemPatch> plan_jump_diversion(const masm::AssembledUnit& unit,
                                               const cfa::Cfg& cfg,
                                               const cfa::Report& benign);

  // Repoint dispatch-table slot `slot` ("tab_<slot>" in `unit`) at a
  // ROP gadget that is not a legal call target. The caller picks an
  // exercised slot (for generated programs: any slot an indirect call
  // in main names -- main runs start to halt, so every such slot is
  // dispatched through). nullopt when the unit lacks the symbol or no
  // disallowed gadget exists.
  std::optional<PmemPatch> plan_table_diversion(const masm::AssembledUnit& unit,
                                                const cfa::Cfg& cfg, int slot);

  // A tampered copy of `report` (the MAC is left as the device
  // computed it -- the forgery happens in transit). nullopt when the
  // report has nothing the kind needs (edge kinds on an empty report,
  // a swap with no two distinct edges).
  std::optional<cfa::Report> tamper_report(const cfa::Report& report,
                                           ReportTamper kind);

  // Flip one uniformly chosen bit of a serialized package. Returns the
  // flipped bit's index.
  size_t flip_package_bit(std::vector<uint8_t>& bytes);

  // Flip one payload bit of `chunk`. With fix_checksum the checksum is
  // recomputed (an adversarial forge that sails through the transport
  // CRC and must be caught by the package MAC); without it the flip
  // models line noise the receiver NACKs as kCorrupt.
  void flip_chunk_payload(casu::TransferChunk& chunk, bool fix_checksum);

  // Make the chunk's geometry inconsistent (index pushed past total)
  // with a valid checksum: the receiver must reject it as kMalformed
  // without touching the staged transfer.
  void scramble_chunk_geometry(casu::TransferChunk& chunk);

 private:
  common::SeededRng rng_;
};

}  // namespace eilid::fuzz

#endif  // EILID_FUZZ_ATTACK_MUTATOR_H
