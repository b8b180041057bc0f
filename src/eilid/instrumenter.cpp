#include "eilid/instrumenter.h"

#include <cctype>
#include <optional>
#include <set>

#include "common/error.h"
#include "common/hex.h"
#include "common/strings.h"
#include "masm/emulated.h"
#include "masm/parser.h"

namespace eilid::core {
namespace {

constexpr const char* kUnit = "<instrumenter>";

bool is_ns_symbol(const std::string& sym) {
  return starts_with(sym, "NS_EILID_");
}

// Classify a parsed statement as a call site.
enum class CallKind { kNone, kVeneer, kDirect, kIndirect };

CallKind call_kind(const masm::Statement& stmt) {
  if (stmt.kind != masm::Statement::Kind::kInstruction || stmt.mnemonic != "call") {
    return CallKind::kNone;
  }
  if (stmt.operands.size() != 1) return CallKind::kNone;
  const auto& op = stmt.operands[0];
  if (op.kind == masm::OperandExpr::Kind::kImmediate) {
    if (!op.expr.is_literal() && is_ns_symbol(op.expr.symbol)) {
      return CallKind::kVeneer;
    }
    return CallKind::kDirect;
  }
  return CallKind::kIndirect;
}

// Text of the source operand for an indirect call's target load
// ("mov <target>, r6").
std::optional<std::string> indirect_target_text(const masm::OperandExpr& op,
                                                std::vector<std::string>* warnings) {
  using K = masm::OperandExpr::Kind;
  switch (op.kind) {
    case K::kReg:
      return "r" + std::to_string(op.reg);
    case K::kIndirect:
      warnings->push_back(
          "indirect call through memory (@rN): target re-read at call time");
      return "@r" + std::to_string(op.reg);
    case K::kIndexed: {
      warnings->push_back(
          "indirect call through memory (X(rN)): target re-read at call time");
      std::string idx = op.expr.is_literal() ? std::to_string(op.expr.offset)
                                             : op.expr.symbol;
      return idx + "(r" + std::to_string(op.reg) + ")";
    }
    case K::kIndirectInc:
      warnings->push_back(
          "indirect call with auto-increment cannot be checked; skipping P3 here");
      return std::nullopt;
    default:
      warnings->push_back("unsupported indirect call operand; skipping P3 here");
      return std::nullopt;
  }
}

// Does this (emulated-expanded) instruction write the given register?
bool writes_reg(const masm::Statement& expanded, uint8_t reg) {
  using K = masm::OperandExpr::Kind;
  if (expanded.kind != masm::Statement::Kind::kInstruction) return false;
  const auto& m = expanded.mnemonic;
  // Source auto-increment modifies its register.
  for (const auto& op : expanded.operands) {
    if (op.kind == K::kIndirectInc && op.reg == reg) return true;
  }
  if (expanded.operands.empty()) return false;
  const auto& dst = expanded.operands.back();
  if (dst.kind != K::kReg || dst.reg != reg) return false;
  // Compare-style instructions do not write their destination.
  if (m == "cmp" || m == "bit") return false;
  // call writes PC/SP only; push writes memory.
  if (m == "call" || m == "push" || m == "reti") return false;
  return true;
}

// A free scratch register for the reserved-register rewrite: any of
// r8-r15 the instruction does not reference (an instruction names at
// most two registers, so one always exists).
int pick_scratch_reg(const masm::Statement& stmt) {
  using K = masm::OperandExpr::Kind;
  bool used[16] = {};
  for (const auto& op : stmt.operands) {
    if (op.kind == K::kReg || op.kind == K::kIndirect ||
        op.kind == K::kIndirectInc || op.kind == K::kIndexed) {
      used[op.reg & 0xF] = true;
    }
  }
  for (int r = 15; r >= 8; --r) {
    if (!used[r]) return r;
  }
  return -1;
}

// Replace whole-token occurrences of register `from` (e.g. "r5") in an
// instruction's text with `to`. Token boundaries keep symbols like
// "var5" and registers like "r15" intact.
std::string substitute_reg_token(const std::string& text,
                                 const std::string& from,
                                 const std::string& to) {
  auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    const bool starts = text.compare(i, from.size(), from) == 0 ||
                        (std::tolower(static_cast<unsigned char>(text[i])) ==
                             from[0] &&
                         text.compare(i + 1, from.size() - 1,
                                      from.substr(1)) == 0);
    if (starts && (i == 0 || !word(text[i - 1])) &&
        (i + from.size() >= text.size() || !word(text[i + from.size()]))) {
      out += to;
      i += from.size();
    } else {
      out += text[i++];
    }
  }
  return out;
}

}  // namespace

InstrumentResult Instrumenter::instrument(
    const std::vector<std::string>& original,
    const masm::Listing* prev_listing) const {
  InstrumentResult result;

  if (!config_.label_mode && prev_listing == nullptr) {
    throw InstrumentError(
        "numeric mode requires the previous iteration's listing (Fig. 2)");
  }

  // --- Parse the original source. ---
  std::vector<masm::Statement> stmts;
  stmts.reserve(original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    stmts.push_back(
        masm::parse_line(original[i], kUnit, static_cast<int>(i + 1)));
  }

  // --- Collect metadata. ---
  std::string reset_handler;
  std::set<std::string> isr_labels;
  std::vector<std::string> functions;  // ordered, unique
  std::set<std::string> function_set;
  auto add_function = [&](const std::string& sym) {
    if (function_set.insert(sym).second) functions.push_back(sym);
  };

  bool has_indirect_sites = false;
  for (const auto& stmt : stmts) {
    if (stmt.kind == masm::Statement::Kind::kDirective &&
        stmt.directive == "vector" && stmt.args.size() == 2) {
      int slot = -1;
      try {
        slot = static_cast<int>(parse_number(stmt.args[0]));
      } catch (const std::invalid_argument&) {
        continue;  // the assembler reports this properly
      }
      if (slot == sim::kResetVectorIndex) {
        reset_handler = stmt.args[1];
      } else {
        isr_labels.insert(stmt.args[1]);
      }
    }
    if (stmt.kind == masm::Statement::Kind::kDirective &&
        stmt.directive == "func") {
      for (const auto& f : stmt.args) add_function(f);
    }
    if (call_kind(stmt) == CallKind::kIndirect) has_indirect_sites = true;
    if (call_kind(stmt) == CallKind::kDirect &&
        config_.table_policy == TablePolicy::kAllFunctions) {
      const auto& op = stmt.operands[0];
      if (!op.expr.is_literal()) add_function(op.expr.symbol);
    }
  }
  if (reset_handler.empty()) {
    throw InstrumentError("application has no reset vector (.vector 15, ...)");
  }
  if (has_indirect_sites && functions.empty() && config_.forward_edge) {
    result.warnings.push_back(
        "indirect calls present but no .func declarations: every indirect "
        "call will reset the device");
  }
  // The boot block (init + table registration) is needed only when the
  // P3 table is used: the hardware reset already zeroes registers and
  // secure DMEM, so shadow-stack state needs no software init.
  const bool need_boot_block = config_.forward_edge && has_indirect_sites;

  // --- Numeric mode: return addresses & symbol values from the
  // previous listing (the K-th real call site in the listing matches
  // the K-th call site of the original source). ---
  std::vector<uint16_t> ra_list;
  if (!config_.label_mode) {
    for (size_t i = 0; i < prev_listing->lines.size(); ++i) {
      const auto& line = prev_listing->lines[i];
      if (!line.is_instruction || line.mnemonic != "call") continue;
      masm::Statement s = masm::parse_line(line.source, kUnit, line.line_no);
      if (call_kind(s) == CallKind::kVeneer) continue;
      ra_list.push_back(prev_listing->next_address(i));
    }
  }
  auto symbol_addr = [&](const std::string& sym) -> uint16_t {
    auto it = prev_listing->symbols.find(sym);
    if (it == prev_listing->symbols.end()) {
      throw InstrumentError("symbol not in previous listing: " + sym);
    }
    return it->second;
  };

  // --- Emit. ---
  std::vector<std::string>& out = result.lines;
  out.push_back("; instrumented by EILIDinst");
  size_t call_index = 0;  // K: call-site ordinal
  int ra_label_counter = 0;
  bool boot_insert_pending = false;
  bool veneers_emitted = false;

  // The NS_* stubs live in the ROM entry section; the app references
  // them as constants (they are not part of the app binary, which is
  // why the paper's binaries grow by only tens of bytes).
  auto emit_veneers = [&]() {
    if (veneers_emitted) return;
    veneers_emitted = true;
    out.push_back("");
    out.push_back("; ---- EILIDsw entry-section stubs (in secure ROM) ----");
    for (const char* name : kVeneerNames) {
      auto it = rom_symbols_.find(name);
      if (it == rom_symbols_.end()) {
        throw InstrumentError(std::string("ROM symbol missing: ") + name);
      }
      out.push_back(".equ " + std::string(name) + ", " + hex16(it->second));
    }
  };

  auto emit_boot_block = [&]() {
    if (!need_boot_block) return;
    out.push_back("    ; EILID boot: init shadow state, register functions");
    out.push_back("    call #NS_EILID_init");
    for (const auto& f : functions) {
      if (config_.label_mode) {
        out.push_back("    mov #" + f + ", r6");
      } else {
        out.push_back("    mov #" + hex16(symbol_addr(f)) + ", r6");
      }
      out.push_back("    call #NS_EILID_store_ind");
      ++result.sites.functions_registered;
    }
  };

  auto emit_store_ra = [&](size_t site_index) {
    if (config_.label_mode) {
      out.push_back("    mov #__eilid_ra_" + std::to_string(ra_label_counter) +
                    ", r6");
    } else {
      out.push_back("    mov #" + hex16(ra_list.at(site_index)) + ", r6");
    }
    out.push_back("    call #NS_EILID_store_ra");
  };

  for (size_t i = 0; i < original.size(); ++i) {
    const masm::Statement& stmt = stmts[i];
    const std::string& raw = original[i];

    // .end must come after the veneers.
    if (stmt.kind == masm::Statement::Kind::kDirective &&
        stmt.directive == "end") {
      emit_veneers();
      out.push_back(raw);
      continue;
    }

    // Split "label: insn" so that prologue insertions can sit between.
    bool has_insn = stmt.kind == masm::Statement::Kind::kInstruction;
    std::string insn_text = stmt.text;
    if (!stmt.label.empty()) {
      out.push_back(stmt.label + ":");
      // Remove the label from the text we may re-emit.
      size_t colon = insn_text.find(':');
      insn_text = trim(colon == std::string::npos ? ""
                                                  : insn_text.substr(colon + 1));
      if (isr_labels.count(stmt.label) && config_.interrupt_edge) {
        out.push_back("    ; EILID P2: save caller args, store ISR context");
        out.push_back("    push r6");
        out.push_back("    push r7");
        out.push_back("    mov 6(r1), r6");
        out.push_back("    mov 4(r1), r7");
        out.push_back("    call #NS_EILID_store_rfi");
        ++result.sites.isr_prologues;
      }
      if (stmt.label == reset_handler) boot_insert_pending = true;
      if (!has_insn) {
        if (!trim(insn_text).empty()) out.push_back("    " + insn_text);
        continue;
      }
    } else if (!has_insn) {
      out.push_back(raw);
      continue;
    }

    // --- Instruction statement: insert before/around/after. ---
    CallKind kind = call_kind(stmt);
    bool emitted_ra_site = false;

    if (kind == CallKind::kDirect) {
      if (config_.backward_edge) {
        emit_store_ra(call_index);
        emitted_ra_site = true;
        ++result.sites.direct_calls;
      }
      ++call_index;
    } else if (kind == CallKind::kIndirect) {
      if (config_.forward_edge) {
        auto target = indirect_target_text(stmt.operands[0], &result.warnings);
        if (target) {
          out.push_back("    mov " + *target + ", r6");
          out.push_back("    call #NS_EILID_check_ind");
          ++result.sites.indirect_calls;
        }
      }
      if (config_.backward_edge) {
        emit_store_ra(call_index);
        emitted_ra_site = true;
      }
      ++call_index;
    } else if (stmt.mnemonic == "ret") {
      if (config_.backward_edge) {
        out.push_back("    mov @r1, r6");
        out.push_back("    call #NS_EILID_check_ra");
        ++result.sites.returns;
      }
    } else if (stmt.mnemonic == "reti") {
      if (config_.interrupt_edge) {
        out.push_back("    mov 6(r1), r6");
        out.push_back("    mov 4(r1), r7");
        out.push_back("    call #NS_EILID_check_rfi");
        out.push_back("    pop r7");
        out.push_back("    pop r6");
        ++result.sites.isr_epilogues;
      }
    }

    // Reserved-register spill (paper §V): the shadow index r5 must
    // survive application writes when it is register-backed. The
    // rewrite must leave r5 intact at EVERY instruction boundary, not
    // just after the site: the original push r5 / insn / pop r5
    // sandwich had a one-instruction window where r5 held the
    // application's value, and an interrupt landing there made the
    // instrumented ISR prologue index the shadow stack with garbage —
    // convicting a benign program (found by the scenario fuzzer, seed
    // 0x17b; tests/test_fuzz_regressions.cpp pins it). Instead the
    // instruction is re-targeted at a scratch register seeded with
    // r5's value: reads see the same value the sandwich produced
    // (the index), the discarded-by-design write lands in the
    // scratch, and r5 is never written at all.
    bool spill_r5 = false;
    if (index_in_register_) {
      masm::Statement expanded = stmt;
      if (expanded.kind == masm::Statement::Kind::kInstruction) {
        masm::expand_emulated(expanded, kUnit);
      }
      spill_r5 = writes_reg(expanded, kIndexReg);
    }

    if (spill_r5) {
      ++result.sites.spills;
      result.warnings.push_back(
          "line " + std::to_string(stmt.line_no) +
          ": application writes reserved r5; re-targeted at a scratch "
          "register (the application value does not survive)");
      const int scratch = pick_scratch_reg(stmt);
      if (scratch < 0) {
        throw InstrumentError("line " + std::to_string(stmt.line_no) +
                              ": no free scratch register for reserved-r5 "
                              "rewrite");
      }
      const std::string rs = "r" + std::to_string(scratch);
      out.push_back("    push " + rs);
      out.push_back("    mov r5, " + rs);
      out.push_back("    " + substitute_reg_token(insn_text, "r5", rs));
      out.push_back("    pop " + rs);
    } else {
      out.push_back("    " + insn_text);
    }

    if (emitted_ra_site && config_.label_mode) {
      out.push_back("__eilid_ra_" + std::to_string(ra_label_counter) + ":");
      ++ra_label_counter;
    }

    if (boot_insert_pending) {
      emit_boot_block();
      boot_insert_pending = false;
    }
  }

  emit_veneers();
  return result;
}

}  // namespace eilid::core
