// Scenario-fuzzer suites: generator determinism and soundness, the
// spec-level shrinker, and the bounded differential corpus that CI
// runs on every push (the full soak lives in bench/bench_fuzz_soak).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fuzz/attack_mutator.h"
#include "fuzz/harness.h"
#include "fuzz/program_generator.h"

namespace eilid::fuzz {
namespace {

// ------------------------------------------------------------ generator

TEST(ProgramGenerator, SameSeedSameSpecSameSource) {
  ProgramGenerator gen;
  for (uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    const ProgramSpec a = gen.generate(seed);
    const ProgramSpec b = gen.generate(seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(a.render(), b.render()) << "seed " << seed;
  }
}

TEST(ProgramGenerator, DistinctSeedsExploreDistinctPrograms) {
  ProgramGenerator gen;
  std::set<std::string> sources;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    sources.insert(gen.generate(seed).render());
  }
  // Not all 32 need be unique, but a generator that collapses to a
  // handful of shapes is not exploring the space.
  EXPECT_GE(sources.size(), 24u);
}

TEST(ProgramGenerator, SpecsRespectConstructionRules) {
  ProgramGenerator gen;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const ProgramSpec spec = gen.generate(seed);
    ASSERT_FALSE(spec.functions.empty());
    const int n = static_cast<int>(spec.functions.size());
    for (int i = 0; i < n; ++i) {
      for (const Op& op : spec.functions[i].ops) {
        if (op.kind == Op::Kind::kCallDirect) {
          // Call DAG: only higher indices, so recursion is impossible.
          EXPECT_GT(op.a, i) << "seed " << seed;
          EXPECT_LT(op.a, n) << "seed " << seed;
        }
        if (op.kind == Op::Kind::kCallIndirect) {
          // Indirect dispatch exists only in main and through a real
          // table slot.
          EXPECT_EQ(i, 0) << "seed " << seed;
          ASSERT_LT(static_cast<size_t>(op.a), spec.table.size())
              << "seed " << seed;
        }
      }
    }
    for (int target : spec.table) {
      EXPECT_GT(target, 0) << "seed " << seed;  // never main
      EXPECT_LT(target, n) << "seed " << seed;
    }
  }
}

// ------------------------------------------------------------- shrinker

TEST(Shrinker, CandidatesAreStrictlySmaller) {
  ProgramGenerator gen;
  const ProgramSpec spec = gen.generate(7);
  for (const ProgramSpec& cand : shrink_candidates(spec)) {
    const bool fewer_ops = cand.op_count() < spec.op_count();
    const bool fewer_fns = cand.functions.size() < spec.functions.size();
    const bool smaller_table = cand.table.size() < spec.table.size();
    const bool irq_disarmed = spec.timer_irq && !cand.timer_irq;
    bool smaller_loop = false;
    for (size_t f = 0; f < cand.functions.size(); ++f) {
      for (size_t o = 0; o < cand.functions[f].ops.size(); ++o) {
        const Op& before = spec.functions[f].ops[o];
        const Op& after = cand.functions[f].ops[o];
        if (before.kind == Op::Kind::kLoop && after.kind == Op::Kind::kLoop &&
            after.a < before.a) {
          smaller_loop = true;
        }
      }
    }
    EXPECT_TRUE(fewer_ops || fewer_fns || smaller_table || irq_disarmed ||
                smaller_loop);
  }
}

TEST(Shrinker, GreedyShrinkConvergesToMinimalReproducer) {
  ProgramGenerator gen;
  DifferentialHarness harness;
  const ProgramSpec spec = gen.generate(11);
  ASSERT_GE(spec.op_count(), 2u);
  // Failure predicate: "the program still contains a loop". The
  // minimized spec must keep exactly what the predicate needs and
  // nothing else shrinkable around it.
  const auto has_loop = [](const ProgramSpec& s) {
    for (const auto& fn : s.functions) {
      for (const Op& op : fn.ops) {
        if (op.kind == Op::Kind::kLoop) return true;
      }
    }
    return false;
  };
  // Seed 11 is pinned because it rolls a loop; a generator change that
  // stops it from doing so must fail here, not quietly skip.
  ASSERT_TRUE(has_loop(spec)) << "seed 11 no longer rolls a loop";
  const ProgramSpec minimal = harness.shrink(spec, has_loop);
  EXPECT_TRUE(has_loop(minimal));
  // Nothing one step smaller still reproduces: that is what "minimal"
  // means for the greedy walk.
  for (const ProgramSpec& cand : shrink_candidates(minimal)) {
    EXPECT_FALSE(has_loop(cand));
  }
}

// ------------------------------------------------- differential corpus

TEST(DifferentialCorpus, BoundedCorpusRunsCleanAcrossEnginesAndPolicies) {
  // The CI-bounded corpus: every generated program across 3 engines x
  // 4 policies with bit-identical state + evidence, pooled == serial
  // sweeps, every mutated case convicted or refused. The full-size
  // smoke corpus is pinned exactly below.
  DifferentialHarness harness;  // defaults: 24 programs, 16 mutation seeds
  const HarnessReport report = harness.run();
  for (const std::string& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_EQ(report.programs, 24);
  EXPECT_EQ(report.engine_runs, 24 * 12);
  EXPECT_GT(report.mutation_cases, 0);
  // Both conviction paths must actually fire across the corpus:
  // convictions prove CFA replay catches diverted control flow,
  // refusals prove MAC/EILID/transport checks reject the rest.
  EXPECT_GT(report.convicted, 0);
  EXPECT_GT(report.refused, 0);
  EXPECT_EQ(report.convicted + report.refused, report.mutation_cases);
}

TEST(DifferentialCorpus, SmokeCorpusCountsAreExact) {
  // The CI-sized corpus (base seed 1, 500 programs, 24 mutation
  // seeds), with every count pinned: the harness is fully
  // deterministic, so a change that moves any verdict -- a mutated case
  // flipping between convicted and refused, a mutator planning fewer
  // cases, an engine diverging -- fails here instead of in a bench log.
  HarnessOptions options;
  options.programs = 500;
  options.mutations = 24;
  const HarnessReport report = DifferentialHarness(options).run();
  for (const std::string& failure : report.failures) {
    ADD_FAILURE() << failure;
  }
  EXPECT_EQ(report.programs, 500);
  EXPECT_EQ(report.engine_runs, 6000);
  EXPECT_EQ(report.mutation_cases, 335);
  EXPECT_EQ(report.convicted, 23);
  EXPECT_EQ(report.refused, 312);
  EXPECT_TRUE(report.failures.empty());
}

TEST(DifferentialCorpus, SingleSeedReproducesDeterministically) {
  // The reproduce handle printed on failure -- `--seed N --programs 1
  // --mutations 1` -- must rerun the exact case: two harnesses over
  // the same seed agree in every counter.
  HarnessOptions options;
  options.seed = 1234;
  HarnessReport a, b;
  DifferentialHarness(options).check_program(options.seed, a);
  DifferentialHarness(options).check_program(options.seed, b);
  EXPECT_EQ(a.engine_runs, b.engine_runs);
  EXPECT_EQ(a.failures, b.failures);
  DifferentialHarness(options).check_mutation(options.seed, a);
  DifferentialHarness(options).check_mutation(options.seed, b);
  EXPECT_EQ(a.mutation_cases, b.mutation_cases);
  EXPECT_EQ(a.convicted, b.convicted);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_EQ(a.failures, b.failures);
}

}  // namespace
}  // namespace eilid::fuzz
