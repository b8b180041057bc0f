// ISA layer tests: encoding, decoding, round trips, constant
// generators, disassembly and the cycle model.
#include <gtest/gtest.h>

#include "common/error.h"
#include "isa/cycles.h"
#include "isa/decoder.h"
#include "isa/disasm.h"
#include "isa/encoder.h"
#include "isa/registers.h"

namespace eilid::isa {
namespace {

Decoded decode_one(const std::vector<uint16_t>& words, uint16_t addr = 0xE000) {
  std::array<uint16_t, 3> buffer{};
  for (size_t i = 0; i < words.size() && i < 3; ++i) buffer[i] = words[i];
  auto decoded = decode(buffer, addr);
  EXPECT_TRUE(decoded.has_value());
  return *decoded;
}

TEST(Encoder, MovRegisterToRegister) {
  auto words = encode(Instruction::double_op(Opcode::kMov, Operand::make_reg(10),
                                             Operand::make_reg(11)),
                      0xE000);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0x4A0B);
}

TEST(Encoder, CanonicalNop) {
  // mov #0, r3 must encode to the canonical NOP 0x4303 (CG2 source).
  auto words = encode(Instruction::double_op(Opcode::kMov, Operand::make_imm(0),
                                             Operand::make_reg(3)),
                      0xE000);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0x4303);
}

TEST(Encoder, ConstantGeneratorValues) {
  // Each CG-eligible immediate encodes without an extension word.
  for (int v : {0, 1, 2, 4, 8, -1}) {
    auto insn = Instruction::double_op(Opcode::kMov, Operand::make_imm(v),
                                       Operand::make_reg(10));
    EXPECT_EQ(encoded_size_words(insn), 1u) << "value " << v;
  }
  // Non-CG immediates need the extension word.
  for (int v : {3, 5, 7, 16, 0x1234, -2}) {
    auto insn = Instruction::double_op(Opcode::kMov, Operand::make_imm(v),
                                       Operand::make_reg(10));
    EXPECT_EQ(encoded_size_words(insn), 2u) << "value " << v;
  }
}

TEST(Encoder, CgSuppressedWhenDisallowed) {
  auto insn = Instruction::double_op(Opcode::kMov, Operand::make_imm(2),
                                     Operand::make_reg(10));
  EncodeOptions opts;
  opts.allow_cg = false;
  auto words = encode(insn, 0xE000, opts);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[1], 2u);
  // Decodes back to the same immediate.
  auto decoded = decode_one({words[0], words[1]});
  EXPECT_EQ(decoded.insn.src.mode, AddrMode::kImmediate);
  EXPECT_EQ(decoded.insn.src.value, 2);
}

TEST(Encoder, JumpOffsetsAndRange) {
  auto words = encode(Instruction::jump(Opcode::kJnz, -1), 0xE000);
  ASSERT_EQ(words.size(), 1u);
  auto decoded = decode_one({words[0]});
  EXPECT_EQ(decoded.insn.jump_offset, -1);
  EXPECT_EQ(decoded.jump_target(), 0xE000u);  // self-loop

  EXPECT_THROW(encode(Instruction::jump(Opcode::kJmp, 512), 0xE000), Error);
  EXPECT_THROW(encode(Instruction::jump(Opcode::kJmp, -513), 0xE000), Error);
  EXPECT_NO_THROW(encode(Instruction::jump(Opcode::kJmp, 511), 0xE000));
  EXPECT_NO_THROW(encode(Instruction::jump(Opcode::kJmp, -512), 0xE000));
}

TEST(Encoder, SymbolicUsesPcRelativeExtension) {
  // Symbolic operand at address A with ext word at A+2 stores
  // target - (A+2).
  auto insn = Instruction::double_op(Opcode::kMov, Operand::make_symbolic(0xE100),
                                     Operand::make_reg(10));
  auto words = encode(insn, 0xE000);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[1], static_cast<uint16_t>(0xE100 - 0xE002));
  auto decoded = decode_one({words[0], words[1]});
  EXPECT_EQ(decoded.insn.src.mode, AddrMode::kSymbolic);
  EXPECT_EQ(decoded.insn.src.value, 0xE100);
}

TEST(Encoder, RejectsUnencodableOperands) {
  // @r3 is a constant-generator pattern, not a real operand.
  EXPECT_THROW(encode(Instruction::double_op(Opcode::kMov,
                                             Operand::make_indirect(3),
                                             Operand::make_reg(10)),
                      0xE000),
               Error);
  // Indexed destination via r0 must be expressed as symbolic.
  EXPECT_THROW(encode(Instruction::double_op(Opcode::kMov, Operand::make_reg(4),
                                             Operand::make_indexed(0, 4)),
                      0xE000),
               Error);
  // swpb has no byte form.
  EXPECT_THROW(encode(Instruction::single(Opcode::kSwpb, Operand::make_reg(4),
                                          /*byte=*/true),
                      0xE000),
               Error);
}

TEST(Decoder, RejectsUnassignedOpcodes) {
  EXPECT_FALSE(decode({0x0000, 0, 0}, 0xE000).has_value());  // 0x0xxx
  EXPECT_FALSE(decode({0x1FFF, 0, 0}, 0xE000).has_value());  // above Format II
  EXPECT_FALSE(decode({0x1380, 0, 0}, 0xE000).has_value());  // minor opcode 7
}

TEST(Decoder, RetiDecodes) {
  auto decoded = decode_one({0x1300});
  EXPECT_EQ(decoded.insn.op, Opcode::kReti);
  EXPECT_EQ(decoded.size_words, 1);
}

struct RoundTripCase {
  const char* name;
  Instruction insn;
};

// Without this gtest prints the case as raw bytes, pointer included, so
// the listed test name would change from one process to the next.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class RoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTrip, EncodeDecodeEncode) {
  const Instruction& insn = GetParam().insn;
  auto words = encode(insn, 0xE100);
  std::array<uint16_t, 3> buffer{};
  for (size_t i = 0; i < words.size(); ++i) buffer[i] = words[i];
  auto decoded = decode(buffer, 0xE100);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size_words, words.size());
  auto rewords = encode(decoded->insn, 0xE100);
  EXPECT_EQ(words, rewords);
}

INSTANTIATE_TEST_SUITE_P(
    Instructions, RoundTrip,
    ::testing::Values(
        RoundTripCase{"mov_rr", Instruction::double_op(Opcode::kMov,
                                                       Operand::make_reg(4),
                                                       Operand::make_reg(15))},
        RoundTripCase{"add_imm", Instruction::double_op(
                                     Opcode::kAdd, Operand::make_imm(0x1234),
                                     Operand::make_reg(7))},
        RoundTripCase{"addc_cg4", Instruction::double_op(Opcode::kAddc,
                                                         Operand::make_imm(4),
                                                         Operand::make_reg(9))},
        RoundTripCase{"sub_idx_src",
                      Instruction::double_op(Opcode::kSub,
                                             Operand::make_indexed(10, -6),
                                             Operand::make_reg(11))},
        RoundTripCase{"cmp_abs_dst",
                      Instruction::double_op(Opcode::kCmp, Operand::make_reg(5),
                                             Operand::make_absolute(0x0122))},
        RoundTripCase{"dadd_b", Instruction::double_op(Opcode::kDadd,
                                                       Operand::make_reg(8),
                                                       Operand::make_reg(9),
                                                       true)},
        RoundTripCase{"bit_ind", Instruction::double_op(
                                     Opcode::kBit, Operand::make_indirect(12),
                                     Operand::make_reg(13))},
        RoundTripCase{"bic_inc", Instruction::double_op(
                                     Opcode::kBic, Operand::make_indirect_inc(6),
                                     Operand::make_reg(4))},
        RoundTripCase{"bis_both_ext",
                      Instruction::double_op(Opcode::kBis,
                                             Operand::make_indexed(4, 2),
                                             Operand::make_indexed(5, 8))},
        RoundTripCase{"xor_sym", Instruction::double_op(
                                     Opcode::kXor, Operand::make_symbolic(0xE200),
                                     Operand::make_reg(14))},
        RoundTripCase{"and_b_abs",
                      Instruction::double_op(Opcode::kAnd, Operand::make_imm(3),
                                             Operand::make_absolute(0x0200),
                                             true)},
        RoundTripCase{"rrc", Instruction::single(Opcode::kRrc,
                                                 Operand::make_reg(10))},
        RoundTripCase{"rra_b_idx", Instruction::single(
                                       Opcode::kRra, Operand::make_indexed(4, 2),
                                       true)},
        RoundTripCase{"swpb", Instruction::single(Opcode::kSwpb,
                                                  Operand::make_reg(15))},
        RoundTripCase{"sxt_abs", Instruction::single(
                                     Opcode::kSxt, Operand::make_absolute(0x0210))},
        RoundTripCase{"push_imm", Instruction::single(Opcode::kPush,
                                                      Operand::make_imm(0x55AA))},
        RoundTripCase{"call_imm", Instruction::single(Opcode::kCall,
                                                      Operand::make_imm(0xE400))},
        RoundTripCase{"call_reg", Instruction::single(Opcode::kCall,
                                                      Operand::make_reg(13))},
        RoundTripCase{"jz_fwd", Instruction::jump(Opcode::kJz, 5)},
        RoundTripCase{"jge_back", Instruction::jump(Opcode::kJge, -100)}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return info.param.name;
    });

TEST(Cycles, RepresentativeTimings) {
  // SLAU049 spot checks.
  EXPECT_EQ(instruction_cycles(Instruction::double_op(
                Opcode::kMov, Operand::make_reg(4), Operand::make_reg(5))),
            1u);
  EXPECT_EQ(instruction_cycles(Instruction::double_op(
                Opcode::kMov, Operand::make_imm(0x1234), Operand::make_reg(5))),
            2u);
  // CG immediates time like register sources.
  EXPECT_EQ(instruction_cycles(Instruction::double_op(
                Opcode::kMov, Operand::make_imm(1), Operand::make_reg(5))),
            1u);
  EXPECT_EQ(instruction_cycles(Instruction::double_op(
                Opcode::kMov, Operand::make_indexed(4, 2),
                Operand::make_indexed(5, 4))),
            6u);
  // RET = mov @sp+, pc: 3 cycles.
  EXPECT_EQ(instruction_cycles(Instruction::double_op(
                Opcode::kMov, Operand::make_indirect_inc(1),
                Operand::make_reg(0))),
            3u);
  EXPECT_EQ(instruction_cycles(Instruction::single(Opcode::kCall,
                                                   Operand::make_imm(0xE000))),
            5u);
  EXPECT_EQ(instruction_cycles(Instruction::single(Opcode::kPush,
                                                   Operand::make_reg(10))),
            3u);
  EXPECT_EQ(instruction_cycles(Instruction::jump(Opcode::kJmp, 3)), 2u);
  Instruction reti;
  reti.op = Opcode::kReti;
  EXPECT_EQ(instruction_cycles(reti), 5u);
}

TEST(Disasm, CanonicalText) {
  EXPECT_EQ(disassemble(Instruction::double_op(Opcode::kMov,
                                               Operand::make_imm(0x1234),
                                               Operand::make_reg(6))),
            "mov #0x1234, r6");
  EXPECT_EQ(disassemble(Instruction::single(Opcode::kCall,
                                            Operand::make_imm(0xE200))),
            "call #0xe200");
  EXPECT_EQ(disassemble(Instruction::double_op(Opcode::kAdd,
                                               Operand::make_indirect_inc(1),
                                               Operand::make_reg(0))),
            "add @r1+, r0");
}

TEST(Registers, Parsing) {
  EXPECT_EQ(parse_reg("r0"), 0);
  EXPECT_EQ(parse_reg("R15"), 15);
  EXPECT_EQ(parse_reg("pc"), 0);
  EXPECT_EQ(parse_reg("sp"), 1);
  EXPECT_EQ(parse_reg("sr"), 2);
  EXPECT_EQ(parse_reg("r16"), -1);
  EXPECT_EQ(parse_reg("rx"), -1);
  EXPECT_EQ(parse_reg(""), -1);
}

}  // namespace
}  // namespace eilid::isa
