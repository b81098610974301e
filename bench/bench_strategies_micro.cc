// E12 — allocation-engine scalability: per-task cost of CHOOSERESOURCES()
// + UPDATE() for every strategy as the corpus grows. This is the ablation
// behind the priority-structure choices (ordered sets, Fenwick tree):
// all strategies must stay O(log n) per task.

#include <benchmark/benchmark.h>

#include "sim/dataset.h"
#include "strategy/engine.h"

namespace {

using namespace itag;  // NOLINT

void RunEngineLoop(benchmark::State& state, strategy::StrategyKind kind) {
  size_t n = static_cast<size_t>(state.range(0));
  sim::DeliciousConfig cfg;
  cfg.num_resources = static_cast<uint32_t>(n);
  cfg.vocab_size = 2000;
  cfg.initial_posts = static_cast<uint32_t>(2 * n);
  cfg.seed = 97;
  sim::SyntheticWorkload wl = sim::GenerateDelicious(cfg);
  Rng rng(3);

  for (auto _ : state) {
    state.PauseTiming();
    strategy::EngineOptions eopts;
    eopts.budget = 2000;
    eopts.seed = 13;
    strategy::AllocationEngine engine(wl.corpus.get(),
                                      strategy::MakeStrategy(kind), eopts);
    state.ResumeTiming();
    for (int task = 0; task < 2000; ++task) {
      auto chosen = engine.ChooseNext();
      if (!chosen.ok()) break;
      sim::GeneratedPost gp = wl.tagger->Generate(
          chosen.value(), 0.92, task, 1, &rng);
      (void)wl.corpus->AddPost(chosen.value(), gp.post);
      engine.NotifyPost(chosen.value());
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}

void BM_EngineFC(benchmark::State& state) {
  RunEngineLoop(state, strategy::StrategyKind::kFreeChoice);
}
void BM_EngineFP(benchmark::State& state) {
  RunEngineLoop(state, strategy::StrategyKind::kFewestPostsFirst);
}
void BM_EngineMU(benchmark::State& state) {
  RunEngineLoop(state, strategy::StrategyKind::kMostUnstableFirst);
}
void BM_EngineFPMU(benchmark::State& state) {
  RunEngineLoop(state, strategy::StrategyKind::kHybridFpMu);
}
void BM_EngineEG(benchmark::State& state) {
  RunEngineLoop(state, strategy::StrategyKind::kEstimatedGain);
}

BENCHMARK(BM_EngineFC)->Arg(500)->Arg(5000);
BENCHMARK(BM_EngineFP)->Arg(500)->Arg(5000);
BENCHMARK(BM_EngineMU)->Arg(500)->Arg(5000);
BENCHMARK(BM_EngineFPMU)->Arg(500)->Arg(5000);
BENCHMARK(BM_EngineEG)->Arg(500)->Arg(5000);

}  // namespace

BENCHMARK_MAIN();
