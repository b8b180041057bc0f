// Generative workload source for the scenario fuzzer: seeded,
// guaranteed-terminating masm programs drawn from a constrained subset
// of the ISA's control-flow vocabulary -- direct calls/returns in a
// DAG, bounded counted loops, unconditional jumps, indirect calls
// through a .word dispatch table, peripheral I/O and timer-IRQ arming.
//
// Every program is first a ProgramSpec -- an explicit, shrinkable
// blueprint -- and only then masm text (render()). The shrinker works
// at the spec level (drop an op, halve a loop, drop a function), so a
// minimized failure re-renders to exactly the source a regression test
// commits.
//
// Construction rules that make the free oracles sound:
//   - terminates: ops are finite, loops are counted with a dedicated
//     counter register no other op touches, calls form a DAG (a
//     function only calls higher indices; indirect calls exist only in
//     main and dispatch to non-main functions), the timer IRQ is
//     disarmed (dint) before the halt spin, and the ISR does constant
//     work with a period far above its cost,
//   - replays clean: every emitted transfer has a CFA replay rule --
//     direct jumps land on their kJump site's target, indirect calls
//     target .func-declared functions (Cfg::call_targets), rets balance
//     calls, reti balances the vectored timer ISR. No bare indirect
//     branches: `br rN` has no replay rule and would self-convict,
//   - instrumentable: r6/r7 (EILIDinst scratch) are never used, main's
//     first instruction sets the stack pointer (the P3 boot-hook
//     anchor), so the same spec builds plain and instrumented.
#ifndef EILID_FUZZ_PROGRAM_GENERATOR_H
#define EILID_FUZZ_PROGRAM_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace eilid::fuzz {

// One operation in a generated function body. `a`/`b`/`c` are
// kind-specific parameters (selectors, register indices, immediates);
// the generator fills them and render() maps them onto the legal
// instruction forms, so every spec -- including every shrunk spec --
// renders to an assemblable program.
struct Op {
  enum class Kind : uint8_t {
    kAlu,           // scratch-register arithmetic, no control flow
    kMemRw,         // store + reload a private RAM word
    kPeriph,        // peripheral register I/O (GPIO, UART-TX, ADC)
    kLoop,          // bounded counted loop around a straight-line body
    kJumpOver,      // unconditional jmp over a short dead block
    kCallDirect,    // call #fn_<a> (a > index of the containing function)
    kCallIndirect,  // load dispatch-table slot `a` and call through it
  };
  Kind kind = Kind::kAlu;
  int a = 0;
  int b = 0;
  int c = 0;

  bool operator==(const Op&) const = default;
};

struct FunctionSpec {
  std::vector<Op> ops;

  bool operator==(const FunctionSpec&) const = default;
};

// Blueprint of one generated program. functions[0] is main's body;
// fn_1..fn_{N-1} are .func-declared helpers forming a call DAG.
struct ProgramSpec {
  uint64_t seed = 0;
  std::vector<FunctionSpec> functions;
  // Dispatch-table entries: index of the (non-main) function each
  // tab_<k> word resolves to. Empty = no table, no indirect calls.
  std::vector<int> table;
  bool timer_irq = false;
  int irq_period = 400;  // timer compare value while armed

  bool operator==(const ProgramSpec&) const = default;

  std::string name() const;    // "fuzz-<seed in hex>"
  std::string render() const;  // masm source for Fleet::build()
  size_t op_count() const;
};

struct GeneratorOptions {
  int max_helper_functions = 4;  // fn_1..fn_N beyond main
  int max_ops = 10;              // ops per function body
  int max_loop_iters = 12;
  int max_table_entries = 4;
  int max_calls_per_function = 2;  // caps dynamic call fan-out (termination)
  bool allow_irq = true;
  bool allow_indirect = true;
};

class ProgramGenerator {
 public:
  explicit ProgramGenerator(GeneratorOptions options = {})
      : options_(options) {}

  // Pure function of (options, seed): the same seed always yields the
  // same spec, which renders to byte-identical source.
  ProgramSpec generate(uint64_t seed) const;

 private:
  GeneratorOptions options_;
};

// All specs one shrink step smaller than `spec`, each still satisfying
// the construction rules above (a function is only dropped while
// nothing calls or dispatches to it). The harness greedily walks these
// while a failure predicate keeps reproducing.
std::vector<ProgramSpec> shrink_candidates(const ProgramSpec& spec);

}  // namespace eilid::fuzz

#endif  // EILID_FUZZ_PROGRAM_GENERATOR_H
