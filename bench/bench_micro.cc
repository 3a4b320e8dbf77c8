// Google-benchmark microbenchmarks of the core operations: completion
// runs at several sizes, DL parsing + translation, concept evaluation
// over interpretations, CQ containment, and the sharded verdict memo's
// hit, miss and fill-then-free paths. Complements the table-style
// experiment binaries with statistically sampled timings.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/strings.h"
#include "calculus/memo_cache.h"
#include "calculus/subsumption.h"
#include "cq/cq.h"
#include "dl/analyzer.h"
#include "dl/translate.h"
#include "gen/generators.h"
#include "interp/eval.h"
#include "interp/model_gen.h"
#include "interp/signature.h"
#include "ql/term_factory.h"

namespace {

using namespace oodb;

// Chain subsumption: A_0 ⊑ ∃(p:A_1)…(p:A_n) under a necessary/∀ chain.
void BM_SubsumptionChain(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  Symbol p = symbols.Intern("p");
  auto a = [&](size_t i) { return symbols.Intern(StrCat("A", i)); };
  for (size_t i = 0; i < n; ++i) {
    (void)sigma.AddNecessary(a(i), p);
    (void)sigma.AddValueRestriction(a(i), p, a(i + 1));
  }
  std::vector<ql::Restriction> steps;
  for (size_t i = 1; i <= n; ++i) {
    steps.push_back(ql::Restriction{ql::Attr{p, false},
                                    terms.Primitive(a(i))});
  }
  ql::ConceptId c = terms.Primitive(a(0));
  ql::ConceptId d = terms.Exists(terms.MakePath(std::move(steps)));
  calculus::SubsumptionChecker checker(sigma);

  size_t individuals = 0;
  for (auto _ : state) {
    auto outcome = checker.SubsumesDetailed(c, d);
    benchmark::DoNotOptimize(outcome);
    individuals = outcome->stats.individuals;
  }
  state.counters["individuals"] = static_cast<double>(individuals);
}
BENCHMARK(BM_SubsumptionChain)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// Random-instance subsumption at growing concept sizes.
void BM_SubsumptionRandom(benchmark::State& state) {
  Rng rng(42);
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
  gen::ConceptGenOptions options;
  options.max_conjuncts = static_cast<size_t>(state.range(0));
  ql::ConceptId c = gen::GenerateConcept(sig, &terms, rng, options);
  ql::ConceptId d = gen::WeakenConcept(sigma, &terms, c, rng, 2);
  calculus::SubsumptionChecker checker(sigma);
  for (auto _ : state) {
    auto verdict = checker.Subsumes(c, d);
    benchmark::DoNotOptimize(verdict);
  }
}
BENCHMARK(BM_SubsumptionRandom)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// DL front end: tokenize + parse + analyze + translate the medical schema.
void BM_DlFrontEnd(benchmark::State& state) {
  constexpr const char* kSource = R"(
Class Person with
  attribute, necessary, single
    name: String
end Person
Class Patient isA Person with
  attribute
    takes: Drug
    consults: Doctor
  attribute, necessary
    suffers: Disease
  constraint:
    not (this in Doctor)
end Patient
QueryClass Q isA Patient with
  derived
    l1: (consults: Doctor).(takes: Drug)
    l2: (suffers: Disease)
  where
    l1 = l2
end Q
)";
  for (auto _ : state) {
    SymbolTable symbols;
    ql::TermFactory terms(&symbols);
    schema::Schema sigma(&terms);
    auto model = dl::ParseAndAnalyze(kSource, &symbols);
    dl::Translator translator(*model, &terms);
    (void)translator.BuildSchema(&sigma);
    auto q = translator.QueryConcept(symbols.Find("Q"));
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_DlFrontEnd);

// Concept evaluation over a random interpretation.
void BM_ConceptEval(benchmark::State& state) {
  Rng rng(4711);
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng);
  ql::ConceptId c = gen::GenerateConcept(sig, &terms, rng);
  interp::Signature isig = interp::CollectSignature(terms, {c}, &sigma);
  interp::ModelGenOptions options;
  options.domain_size = static_cast<size_t>(state.range(0));
  auto model = interp::GenerateModel(sigma, isig, options, rng);
  for (auto _ : state) {
    auto extent = interp::ConceptEval(*model, terms, c);
    benchmark::DoNotOptimize(extent);
  }
}
BENCHMARK(BM_ConceptEval)->Arg(16)->Arg(64)->Arg(256);

// Chandra–Merlin containment on random QL-translated queries.
void BM_CqContainment(benchmark::State& state) {
  Rng rng(271828);
  SymbolTable symbols;
  ql::TermFactory terms(&symbols);
  schema::Schema sigma(&terms);
  gen::SchemaGenOptions no_axioms;
  no_axioms.isa_prob = 0;
  no_axioms.value_restrictions = 0;
  no_axioms.typing_prob = 0;
  gen::GeneratedSchema sig = gen::GenerateSchema(&sigma, rng, no_axioms);
  ql::ConceptId c = gen::GenerateConcept(sig, &terms, rng);
  ql::ConceptId d = gen::WeakenConcept(sigma, &terms, c, rng, 2);
  auto q1 = *cq::ConceptToCq(terms, c, &symbols);
  auto q2 = *cq::ConceptToCq(terms, d, &symbols);
  for (auto _ : state) {
    bool contained = cq::CqContained(q1, q2);
    benchmark::DoNotOptimize(contained);
  }
}
BENCHMARK(BM_CqContainment);

// The memo's key set: (c << 32 | d) pair keys over a 220-query catalog,
// 48,400 keys, about the verdicts a cold catalog scan memoizes.
std::vector<uint64_t> MemoKeys() {
  std::vector<uint64_t> keys;
  for (uint64_t c = 0; c < 220; ++c) {
    for (uint64_t d = 0; d < 220; ++d) keys.push_back(c << 32 | d);
  }
  return keys;
}

// Lookup of a present key (a warm CHECK's memo step).
void BM_MemoCacheHit(benchmark::State& state) {
  const std::vector<uint64_t> keys = MemoKeys();
  calculus::ShardedMemoCache cache;
  for (uint64_t key : keys) cache.Insert(key, (key & 1) != 0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(keys[i]));
    if (++i == keys.size()) i = 0;
  }
}
BENCHMARK(BM_MemoCacheHit);

// Lookup of an absent key in a filled cache (a cold scan's memo step).
void BM_MemoCacheMiss(benchmark::State& state) {
  const std::vector<uint64_t> keys = MemoKeys();
  calculus::ShardedMemoCache cache;
  for (uint64_t key : keys) cache.Insert(key, (key & 1) != 0);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(keys[i] | uint64_t{1} << 31));
    if (++i == keys.size()) i = 0;
  }
}
BENCHMARK(BM_MemoCacheMiss);

// Fills a fresh cache with every key, then destroys it: the memo's share
// of a LOAD that replaces a scanned session.
void BM_MemoCacheInsertFresh(benchmark::State& state) {
  const std::vector<uint64_t> keys = MemoKeys();
  for (auto _ : state) {
    auto cache = std::make_unique<calculus::ShardedMemoCache>();
    for (uint64_t key : keys) cache->Insert(key, (key & 1) != 0);
    benchmark::DoNotOptimize(cache->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_MemoCacheInsertFresh)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
