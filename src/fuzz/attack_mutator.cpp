#include "fuzz/attack_mutator.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "attacks/gadgets.h"
#include "sim/memory_map.h"

namespace eilid::fuzz {

std::string_view report_tamper_name(ReportTamper kind) {
  switch (kind) {
    case ReportTamper::kEdgeTargetFlip: return "edge-target-flip";
    case ReportTamper::kEdgeDrop: return "edge-drop";
    case ReportTamper::kEdgeDuplicate: return "edge-duplicate";
    case ReportTamper::kEdgeSwap: return "edge-swap";
    case ReportTamper::kSeqBump: return "seq-bump";
    case ReportTamper::kCycleBump: return "cycle-bump";
    case ReportTamper::kDroppedBump: return "dropped-bump";
  }
  return "?";
}

std::optional<PmemPatch> AttackMutator::plan_jump_diversion(
    const masm::AssembledUnit& unit, const cfa::Cfg& cfg,
    const cfa::Report& benign) {
  // Exercised candidates: logged synchronous edges that replay as jump
  // edges and whose source word is jump-format (this also excludes
  // `br #imm`, which shares the jump-edge rule but not the encoding).
  struct Cand {
    uint16_t from, to, word;
  };
  std::vector<Cand> cands;
  std::set<uint16_t> seen;  // a jump site has one target: dedup by source
  for (const cfa::LoggedEdge& e : benign.edges) {
    if (e.irq || e.reset || e.update) continue;
    if (!cfg.has_jump_edge(e.from, e.to)) continue;
    if (!unit.image.contains(e.from)) continue;
    const uint16_t w = unit.image.word_at(e.from);
    if ((w & 0xE000) != 0x2000) continue;
    if (!seen.insert(e.from).second) continue;
    cands.push_back({e.from, e.to, w});
  }
  if (cands.empty()) return std::nullopt;
  const Cand c = cands[rng_.below(cands.size())];

  std::vector<uint16_t> targets;
  for (const cfa::Site& site : cfg.sites()) {
    const uint16_t a = site.pc;
    const int off = (static_cast<int>(a) - (static_cast<int>(c.from) + 2)) / 2;
    if (off < -512 || off > 511) continue;
    if (a == c.to) continue;  // the legitimate target
    // A jump to its own fall-through takes the branch to exactly where
    // not taking it lands: no control-transfer callout fires, nothing
    // is logged, and the "attack" would leave no evidence to convict.
    if (a == static_cast<uint16_t>(c.from + 2)) continue;
    if (cfg.has_jump_edge(c.from, a)) continue;  // still a legal edge
    targets.push_back(a);
  }
  if (targets.empty()) return std::nullopt;
  const uint16_t nt = targets[rng_.below(targets.size())];
  const int off = (static_cast<int>(nt) - (static_cast<int>(c.from) + 2)) / 2;

  PmemPatch p;
  p.addr = c.from;
  p.old_word = c.word;
  // Keep the opcode + condition bits: the mutated branch triggers at
  // the same dynamic instant the benign one did, so the first taken
  // instance logs the diverted edge before anything else can diverge.
  p.new_word = static_cast<uint16_t>((c.word & 0xFC00) |
                                     (static_cast<uint16_t>(off) & 0x3FF));
  p.from = c.from;
  p.old_to = c.to;
  p.new_to = nt;
  return p;
}

std::optional<PmemPatch> AttackMutator::plan_table_diversion(
    const masm::AssembledUnit& unit, const cfa::Cfg& cfg, int slot) {
  const auto it = unit.symbols.find("tab_" + std::to_string(slot));
  if (it == unit.symbols.end()) return std::nullopt;
  const uint16_t tab_addr = it->second;
  if (!unit.image.contains(tab_addr)) return std::nullopt;
  const uint16_t old_target = unit.image.word_at(tab_addr);

  // Scan PMEM below the vector table for gadget entry points that are
  // not sanctioned call targets: the classic code-reuse redirection a
  // dispatch-table overwrite buys.
  const auto gadgets = attacks::find_gadgets(
      unit.image, sim::kPmemStart, static_cast<uint16_t>(sim::kVectorBase - 1));
  std::vector<uint16_t> bad;
  for (const attacks::Gadget& g : gadgets) {
    if (g.addr % 2 != 0) continue;
    if (cfg.is_call_target(g.addr)) continue;
    if (g.addr == old_target || g.addr == tab_addr) continue;
    bad.push_back(g.addr);
  }
  if (bad.empty()) return std::nullopt;

  PmemPatch p;
  p.addr = tab_addr;
  p.old_word = old_target;
  p.new_word = bad[rng_.below(bad.size())];
  p.from = tab_addr;
  p.old_to = old_target;
  p.new_to = p.new_word;
  return p;
}

std::optional<cfa::Report> AttackMutator::tamper_report(
    const cfa::Report& report, ReportTamper kind) {
  cfa::Report t = report;
  switch (kind) {
    case ReportTamper::kEdgeTargetFlip: {
      if (t.edges.empty()) return std::nullopt;
      cfa::LoggedEdge& e = t.edges[rng_.below(t.edges.size())];
      e.to ^= static_cast<uint16_t>(1u << rng_.below(16));
      return t;
    }
    case ReportTamper::kEdgeDrop: {
      if (t.edges.empty()) return std::nullopt;
      t.edges.erase(t.edges.begin() +
                    static_cast<long>(rng_.below(t.edges.size())));
      return t;
    }
    case ReportTamper::kEdgeDuplicate: {
      if (t.edges.empty()) return std::nullopt;
      const size_t i = rng_.below(t.edges.size());
      t.edges.insert(t.edges.begin() + static_cast<long>(i), t.edges[i]);
      return t;
    }
    case ReportTamper::kEdgeSwap: {
      if (t.edges.size() < 2) return std::nullopt;
      for (int tries = 0; tries < 32; ++tries) {
        const size_t i = rng_.below(t.edges.size());
        const size_t j = rng_.below(t.edges.size());
        if (i != j && !(t.edges[i] == t.edges[j])) {
          std::swap(t.edges[i], t.edges[j]);
          return t;
        }
      }
      return std::nullopt;  // all edges identical: a swap changes nothing
    }
    case ReportTamper::kSeqBump:
      t.seq += 1;
      return t;
    case ReportTamper::kCycleBump:
      t.cycle += 1 + rng_.below(1000);
      return t;
    case ReportTamper::kDroppedBump:
      t.dropped += 1 + static_cast<uint32_t>(rng_.below(8));
      return t;
  }
  return std::nullopt;
}

size_t AttackMutator::flip_package_bit(std::vector<uint8_t>& bytes) {
  const size_t bit = rng_.below(bytes.size() * 8);
  bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  return bit;
}

void AttackMutator::flip_chunk_payload(casu::TransferChunk& chunk,
                                       bool fix_checksum) {
  if (chunk.payload.empty()) {
    chunk.checksum ^= 1;  // nothing else to corrupt
    return;
  }
  const size_t bit = rng_.below(chunk.payload.size() * 8);
  chunk.payload[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  if (fix_checksum) chunk.checksum = casu::chunk_checksum(chunk);
}

void AttackMutator::scramble_chunk_geometry(casu::TransferChunk& chunk) {
  // index >= total is inconsistent regardless of receiver state; the
  // checksum is recomputed so the transport CRC cannot mask the check
  // under test.
  chunk.index = chunk.total;
  chunk.checksum = casu::chunk_checksum(chunk);
}

}  // namespace eilid::fuzz
