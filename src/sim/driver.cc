#include "sim/driver.h"

#include <cassert>
#include <unordered_map>

#include "common/logging.h"

namespace itag::sim {

using strategy::AllocationEngine;
using strategy::EngineOptions;
using tagging::ResourceId;

namespace {

/// Takes one sample of both quality views.
QualitySample Sample(const tagging::Corpus& corpus,
                     const quality::QualityModel& stability,
                     const quality::GroundTruthQuality& truth,
                     double threshold, uint32_t tasks) {
  QualitySample s;
  s.tasks = tasks;
  s.q_stability = stability.CorpusQuality(corpus);
  s.q_truth = truth.CorpusQuality(corpus);
  s.above_threshold = truth.CountAboveThreshold(corpus, threshold);
  return s;
}

}  // namespace

RunResult RunDirect(SyntheticWorkload* workload,
                    std::unique_ptr<strategy::Strategy> strat,
                    const RunOptions& options) {
  assert(workload != nullptr);
  tagging::Corpus& corpus = *workload->corpus;

  quality::StabilityQuality stability;
  quality::GroundTruthQuality truth(workload->truth);

  EngineOptions eopts;
  eopts.budget = options.budget;
  eopts.seed = options.seed;
  AllocationEngine engine(&corpus, std::move(strat), eopts);

  Rng rng(options.seed ^ 0x9E3779B97F4A7C15ULL);

  RunResult result;
  result.initial_q_truth = truth.CorpusQuality(corpus);
  result.initial_q_stability = stability.CorpusQuality(corpus);
  result.series.push_back(Sample(corpus, stability, truth,
                                 options.quality_threshold, 0));

  uint32_t done = 0;
  while (engine.budget_remaining() > 0) {
    Result<ResourceId> chosen = engine.ChooseNext();
    if (!chosen.ok()) break;  // nothing eligible
    ResourceId r = chosen.value();
    std::optional<GeneratedPost> replayed;
    if (options.replay_pool != nullptr) replayed = options.replay_pool->Pop(r);
    GeneratedPost gp =
        replayed.has_value()
            ? std::move(*replayed)
            : workload->tagger->Generate(r, options.worker_reliability,
                                         static_cast<Tick>(done),
                                         /*tagger=*/done % 1000, &rng);
    Status s = corpus.AddPost(r, gp.post);
    assert(s.ok());
    (void)s;
    engine.NotifyPost(r);
    ++done;
    if (options.step_hook) options.step_hook(engine, done);
    if (done % options.sample_every == 0) {
      result.series.push_back(Sample(corpus, stability, truth,
                                     options.quality_threshold, done));
    }
  }
  if (result.series.back().tasks != done) {
    result.series.push_back(
        Sample(corpus, stability, truth, options.quality_threshold, done));
  }
  result.tasks_completed = done;
  result.assignment = engine.assignment();
  result.final_q_truth = truth.CorpusQuality(corpus);
  result.final_q_stability = stability.CorpusQuality(corpus);
  return result;
}

RunResult RunWithPlatform(SyntheticWorkload* workload,
                          crowd::CrowdPlatform* platform,
                          std::unique_ptr<strategy::Strategy> strat,
                          const PlatformRunOptions& options) {
  assert(workload != nullptr);
  assert(platform != nullptr);
  tagging::Corpus& corpus = *workload->corpus;

  quality::StabilityQuality stability;
  quality::GroundTruthQuality truth(workload->truth);

  EngineOptions eopts;
  eopts.budget = options.base.budget;
  eopts.seed = options.base.seed;
  AllocationEngine engine(&corpus, std::move(strat), eopts);

  Rng rng(options.base.seed ^ 0xD1B54A32D192ED03ULL);

  RunResult result;
  result.initial_q_truth = truth.CorpusQuality(corpus);
  result.initial_q_stability = stability.CorpusQuality(corpus);
  result.series.push_back(Sample(corpus, stability, truth,
                                 options.base.quality_threshold, 0));

  std::unordered_map<crowd::TaskId, ResourceId> task_resource;
  Tick now = 0;
  uint32_t approved = 0;
  size_t in_flight = 0;

  auto post_more = [&]() {
    while (in_flight < options.max_open_tasks &&
           engine.budget_remaining() > 0) {
      Result<ResourceId> chosen = engine.ChooseNext();
      if (!chosen.ok()) break;
      crowd::TaskSpec spec;
      spec.project = 1;
      spec.resource = chosen.value();
      spec.pay_cents = options.pay_cents;
      Result<crowd::TaskId> tid = platform->PostTask(spec);
      if (!tid.ok()) break;
      task_resource[tid.value()] = chosen.value();
      ++in_flight;
    }
  };

  post_more();
  while ((in_flight > 0 || engine.budget_remaining() > 0) &&
         now < options.max_ticks) {
    if (in_flight == 0) {
      // Budget remains but nothing could be posted (no eligible resources).
      break;
    }
    now += options.tick_stride;
    std::vector<crowd::TaskEvent> events = platform->AdvanceTo(now);
    for (const crowd::TaskEvent& ev : events) {
      if (ev.kind != crowd::TaskEventKind::kSubmitted) continue;
      auto it = task_resource.find(ev.task);
      if (it == task_resource.end()) continue;
      ResourceId r = it->second;
      task_resource.erase(it);
      --in_flight;

      const auto& profiles = platform->worker_profiles();
      double reliability = ev.worker < profiles.size()
                               ? profiles[ev.worker].reliability
                               : 0.9;
      GeneratedPost gp = workload->tagger->Generate(r, reliability, ev.time,
                                                    ev.worker, &rng);
      bool approve = gp.conscientious
                         ? rng.Bernoulli(options.approve_good_prob)
                         : rng.Bernoulli(options.approve_bad_prob);
      if (approve) {
        Status s = platform->Approve(ev.task);
        assert(s.ok());
        (void)s;
        s = corpus.AddPost(r, gp.post);
        assert(s.ok());
        engine.NotifyPost(r);
        ++approved;
        if (options.base.step_hook) options.base.step_hook(engine, approved);
        if (approved % options.base.sample_every == 0) {
          result.series.push_back(Sample(corpus, stability, truth,
                                         options.base.quality_threshold,
                                         approved));
        }
      } else {
        Status s = platform->Reject(ev.task);
        assert(s.ok());
        (void)s;
        ++result.tasks_rejected;
        // Refund and retry the same resource (§III-B: pay only on approval).
        engine.AddBudget(1);
        (void)engine.Promote(r);
      }
    }
    post_more();
  }

  if (result.series.back().tasks != approved) {
    result.series.push_back(Sample(corpus, stability, truth,
                                   options.base.quality_threshold, approved));
  }
  result.tasks_completed = approved;
  result.ticks_elapsed = now;
  result.assignment = engine.assignment();
  result.final_q_truth = truth.CorpusQuality(corpus);
  result.final_q_stability = stability.CorpusQuality(corpus);
  return result;
}

}  // namespace itag::sim
