#include <gtest/gtest.h>

#include <set>

#include "common/binio.h"
#include "crowd/ledger.h"
#include "crowd/mturk_sim.h"
#include "crowd/social_sim.h"

namespace itag::crowd {
namespace {

std::vector<WorkerProfile> SmallPool(uint32_t n, double reliability = 0.9,
                                     double activity = 0.5) {
  std::vector<WorkerProfile> pool;
  for (uint32_t i = 0; i < n; ++i) {
    WorkerProfile w;
    w.id = i;
    w.reliability = reliability;
    w.mean_service_ticks = 3.0;
    w.activity = activity;
    pool.push_back(w);
  }
  return pool;
}

TaskSpec Spec(uint32_t pay = 5, ProjectRef project = 1) {
  TaskSpec s;
  s.project = project;
  s.resource = 0;
  s.pay_cents = pay;
  return s;
}

// ------------------------------------------------------------- worker pool

TEST(WorkerPoolTest, GeneratesRequestedCount) {
  Rng rng(1);
  WorkerPoolConfig cfg;
  cfg.num_workers = 37;
  auto pool = GenerateWorkerPool(cfg, &rng);
  EXPECT_EQ(pool.size(), 37u);
  for (const auto& w : pool) {
    EXPECT_GT(w.reliability, 0.0);
    EXPECT_LT(w.reliability, 1.0);
    EXPECT_GT(w.activity, 0.0);
    EXPECT_LE(w.activity, 1.0);
    EXPECT_GT(w.mean_service_ticks, 0.0);
  }
}

TEST(WorkerPoolTest, SpammerFractionRoughlyHonoured) {
  Rng rng(2);
  WorkerPoolConfig cfg;
  cfg.num_workers = 2000;
  cfg.spammer_fraction = 0.2;
  auto pool = GenerateWorkerPool(cfg, &rng);
  int spammy = 0;
  for (const auto& w : pool) spammy += w.reliability < 0.5;
  EXPECT_NEAR(spammy / 2000.0, 0.2, 0.03);
}

TEST(WorkerStatsTest, ApprovalRate) {
  WorkerStats s;
  EXPECT_EQ(s.ApprovalRate(), 1.0);  // optimistic before evidence
  s.approved = 3;
  s.rejected = 1;
  EXPECT_NEAR(s.ApprovalRate(), 0.75, 1e-12);
}

// ------------------------------------------------------------- ledger

TEST(LedgerTest, TracksFlows) {
  PaymentLedger ledger;
  ledger.Pay(5);
  ledger.Pay(7);
  ledger.Pay(3);
  EXPECT_EQ(ledger.TotalPaid(), 15u);
  EXPECT_EQ(ledger.PaymentCount(), 3u);
}

// ------------------------------------------------------------- lifecycle

TEST(MTurkSimTest, TaskLifecycleTransitions) {
  PaymentLedger ledger;
  MTurkSim sim(SmallPool(3), &ledger);
  TaskId id = sim.PostTask(Spec()).value();
  EXPECT_EQ(sim.GetTaskState(id).value(), TaskState::kOpen);
  EXPECT_EQ(sim.OpenTaskCount(), 1u);

  // Approve/Reject before submission must fail.
  EXPECT_TRUE(sim.Approve(id).IsFailedPrecondition());
  EXPECT_TRUE(sim.Reject(id).IsFailedPrecondition());

  // Run the marketplace until the task is submitted.
  Tick t = 0;
  while (sim.GetTaskState(id).value() != TaskState::kSubmitted && t < 2000) {
    sim.AdvanceTo(++t);
  }
  ASSERT_EQ(sim.GetTaskState(id).value(), TaskState::kSubmitted);
  EXPECT_EQ(sim.PendingDecisionCount(), 1u);

  ASSERT_TRUE(sim.Approve(id).ok());
  // The decision settles the task: the platform forgets it.
  EXPECT_TRUE(sim.GetTaskState(id).status().IsNotFound());
  EXPECT_EQ(sim.PendingDecisionCount(), 0u);
  EXPECT_EQ(ledger.TotalPaid(), 5u);
  // A second decision finds no task.
  EXPECT_TRUE(sim.Approve(id).IsNotFound());
  EXPECT_TRUE(sim.Reject(id).IsNotFound());
}

TEST(MTurkSimTest, CancelOnlyWhileOpen) {
  PaymentLedger ledger;
  MTurkSim sim(SmallPool(2), &ledger);
  TaskId id = sim.PostTask(Spec()).value();
  ASSERT_TRUE(sim.CancelTask(id).ok());
  EXPECT_TRUE(sim.GetTaskState(id).status().IsNotFound());
  EXPECT_TRUE(sim.CancelTask(id).IsNotFound());
  EXPECT_EQ(sim.OpenTaskCount(), 0u);
  // Cancelled tasks are never picked up.
  sim.AdvanceTo(500);
  EXPECT_TRUE(sim.GetTaskState(id).status().IsNotFound());
}

// A blob written before settled tasks were erased still lists them next to
// the live ones. Restoring it keeps only the live records, so the next
// encode is one task record (53 bytes) shorter than the blob.
TEST(MTurkSimTest, RestoreDropsSettledRecordsOfAnOlderBlob) {
  PaymentLedger ledger;
  MTurkSim sim(SmallPool(2), &ledger);
  ByteWriter w;
  w.I64(40);  // clock
  w.U64(3);   // next task id
  w.U32(2);   // task records
  auto task = [&w](TaskId id, TaskState state, WorkerId worker) {
    w.U64(id);
    w.U64(1);    // project
    w.U32(0);    // resource
    w.U32(5);    // pay_cents
    w.F64(1.0);  // requester approval rate
    w.U8(static_cast<uint8_t>(state));
    w.U32(worker);
    w.I64(worker == kNoWorker ? 0 : 10);  // accepted at
    w.I64(worker == kNoWorker ? 0 : 20);  // completes at
  };
  task(1, TaskState::kOpen, kNoWorker);
  task(2, TaskState::kApproved, 0);
  w.U32(2);  // worker statistics: worker 0 submitted and was approved once
  for (uint32_t decided : {1u, 0u}) {
    w.U32(decided);
    w.U32(decided);
    w.U32(0);
  }
  w.U64(0x853c49e6748fea9bULL);  // RNG state
  w.U64(0xda3e39cb94b95bdbULL);  // RNG increment
  const std::string blob = w.Take();

  ASSERT_TRUE(sim.RestoreState(blob));
  EXPECT_EQ(sim.GetTaskState(1).value(), TaskState::kOpen);
  EXPECT_TRUE(sim.GetTaskState(2).status().IsNotFound());
  EXPECT_EQ(sim.OpenTaskCount(), 1u);
  EXPECT_EQ(sim.EncodeState().size() + 53, blob.size());
}

TEST(MTurkSimTest, UnknownTaskAndWorker) {
  PaymentLedger ledger;
  MTurkSim sim(SmallPool(1), &ledger);
  EXPECT_TRUE(sim.GetTaskState(99).status().IsNotFound());
  EXPECT_TRUE(sim.GetWorkerStats(99).status().IsNotFound());
  EXPECT_TRUE(sim.CancelTask(99).IsNotFound());
  EXPECT_TRUE(sim.Approve(99).IsNotFound());
}

TEST(MTurkSimTest, RejectionPaysNothing) {
  PaymentLedger ledger;
  MTurkSim sim(SmallPool(2), &ledger);
  TaskId id = sim.PostTask(Spec()).value();
  Tick t = 0;
  while (sim.GetTaskState(id).value() != TaskState::kSubmitted && t < 2000) {
    sim.AdvanceTo(++t);
  }
  ASSERT_TRUE(sim.Reject(id).ok());
  EXPECT_EQ(ledger.TotalPaid(), 0u);
  WorkerStats stats;
  for (WorkerId w = 0; w < 2; ++w) {
    auto s = sim.GetWorkerStats(w);
    if (s.ok() && s.value().rejected > 0) stats = s.value();
  }
  EXPECT_EQ(stats.rejected, 1u);
}

TEST(MTurkSimTest, AllPostedTasksEventuallyComplete) {
  PaymentLedger ledger;
  MTurkSim sim(SmallPool(10), &ledger);
  std::vector<TaskId> ids;
  for (int i = 0; i < 30; ++i) {
    ids.push_back(sim.PostTask(Spec()).value());
  }
  int submitted = 0;
  for (Tick t = 1; t <= 5000 && submitted < 30; ++t) {
    for (const TaskEvent& ev : sim.AdvanceTo(t)) {
      if (ev.kind == TaskEventKind::kSubmitted) {
        ++submitted;
        ASSERT_TRUE(sim.Approve(ev.task).ok());
      }
    }
  }
  EXPECT_EQ(submitted, 30);
  EXPECT_EQ(ledger.TotalPaid(), 30u * 5u);
}

TEST(MTurkSimTest, HigherPayAcceptedFirst) {
  PaymentLedger ledger;
  // One worker, low activity so acceptance order is visible.
  MTurkSim sim(SmallPool(1, 0.9, 1.0), &ledger);
  TaskId cheap = sim.PostTask(Spec(2)).value();
  TaskId rich = sim.PostTask(Spec(50)).value();
  // First acceptance must be the 50-cent task.
  Tick t = 0;
  for (; t < 100; ++t) {
    auto events = sim.AdvanceTo(t + 1);
    bool accepted_rich = false;
    for (const TaskEvent& ev : events) {
      if (ev.kind == TaskEventKind::kAccepted) {
        EXPECT_EQ(ev.task, rich);
        accepted_rich = true;
      }
    }
    if (accepted_rich) break;
  }
  EXPECT_EQ(sim.GetTaskState(cheap).value(), TaskState::kOpen);
}

TEST(MTurkSimTest, PayFloorRespected) {
  PaymentLedger ledger;
  auto pool = SmallPool(1, 0.9, 1.0);
  pool[0].min_pay_cents = 10;
  MTurkSim sim(std::move(pool), &ledger);
  TaskId id = sim.PostTask(Spec(5)).value();
  sim.AdvanceTo(200);
  EXPECT_EQ(sim.GetTaskState(id).value(), TaskState::kOpen);  // never taken
}

TEST(MTurkSimTest, QualificationBarsRejectedWorkers) {
  PaymentLedger ledger;
  MTurkSimOptions opts;
  opts.qualification_min_approval = 0.6;
  opts.qualification_min_decisions = 3;
  // Single worker: after 3 rejections they are barred.
  MTurkSim sim(SmallPool(1, 0.9, 1.0), &ledger, opts);
  for (int i = 0; i < 3; ++i) {
    TaskId id = sim.PostTask(Spec()).value();
    Tick t = 0;
    while (sim.GetTaskState(id).value() != TaskState::kSubmitted &&
           t < 2000) {
      sim.AdvanceTo(++t);
    }
    ASSERT_TRUE(sim.Reject(id).ok());
  }
  // A new task now sits unaccepted: the only worker is disqualified.
  TaskId id = sim.PostTask(Spec()).value();
  sim.AdvanceTo(10000);
  EXPECT_EQ(sim.GetTaskState(id).value(), TaskState::kOpen);
}

TEST(MTurkSimTest, RequesterApprovalFloorRespected) {
  PaymentLedger ledger;
  auto pool = SmallPool(1, 0.9, 1.0);
  pool[0].min_requester_approval = 0.8;
  MTurkSim sim(std::move(pool), &ledger);
  TaskSpec spec = Spec();
  spec.requester_approval_rate = 0.5;  // stingy provider
  TaskId id = sim.PostTask(spec).value();
  sim.AdvanceTo(200);
  EXPECT_EQ(sim.GetTaskState(id).value(), TaskState::kOpen);
}

// ------------------------------------------------------------- social sim

TEST(SocialNetSimTest, GraphIsSmallWorld) {
  PaymentLedger ledger;
  SocialNetSimOptions opts;
  opts.ring_neighbors = 2;
  SocialNetSim sim(SmallPool(50), &ledger, opts);
  const auto& graph = sim.graph();
  ASSERT_EQ(graph.size(), 50u);
  size_t edges = 0;
  for (const auto& adj : graph) edges += adj.size();
  // Ring with k=2 per side: 2 directed entries per undirected edge, 2n edges.
  EXPECT_EQ(edges, 2u * 2u * 50u);
}

TEST(SocialNetSimTest, ExposureSpreadsVirally) {
  PaymentLedger ledger;
  SocialNetSimOptions opts;
  opts.seed_exposure = 0.05;
  opts.share_prob = 0.8;
  SocialNetSim sim(SmallPool(100, 0.9, 0.6), &ledger, opts);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(sim.PostTask(Spec(5, /*project=*/7)).ok());
  }
  size_t exposed_early = 0;
  int submitted = 0;
  for (Tick t = 1; t <= 800; ++t) {
    for (const TaskEvent& ev : sim.AdvanceTo(t)) {
      if (ev.kind == TaskEventKind::kSubmitted) {
        ++submitted;
        ASSERT_TRUE(sim.Approve(ev.task).ok());
      }
    }
    if (t == 5) exposed_early = sim.ExposedCount(7);
  }
  EXPECT_GT(submitted, 0);
  EXPECT_GT(sim.ExposedCount(7), exposed_early)
      << "shares must widen exposure";
}

TEST(SocialNetSimTest, UnexposedWorkersDoNotAccept) {
  PaymentLedger ledger;
  SocialNetSimOptions opts;
  opts.seed_exposure = 0.0;  // nobody ever exposed organically...
  opts.share_prob = 0.0;
  SocialNetSim sim(SmallPool(10, 0.9, 1.0), &ledger, opts);
  TaskId id = sim.PostTask(Spec()).value();
  sim.AdvanceTo(100);
  // ...except the mandatory minimum seed of 1 worker, so the task is
  // eventually taken by exactly that worker or stays open; either way no
  // crash and state is consistent.
  TaskState st = sim.GetTaskState(id).value();
  EXPECT_TRUE(st == TaskState::kOpen || st == TaskState::kAccepted ||
              st == TaskState::kSubmitted);
  EXPECT_LE(sim.ExposedCount(1), 1u);
}

}  // namespace
}  // namespace itag::crowd
