#include <gtest/gtest.h>

#include "dag/compute_model.h"
#include "dag/taskgraph.h"
#include "eventsim/simulator.h"
#include "moe/models.h"

namespace mixnet::dag {
namespace {

// -------------------------------------------------------- compute model ----

TEST(ComputeModel, MixtralCalibrationAnchors) {
  // DESIGN.md: Mixtral 8x7B @ mbs 8 must give >100 ms expert compute and an
  // attention+gate window that hides a 25 ms reconfiguration (Fig. 3, §4.1).
  const auto m = moe::mixtral_8x7b();
  const auto p = moe::default_parallelism(m);
  const LayerTimes t = forward_layer_times(m, p);
  EXPECT_GT(ns_to_ms(t.expert), 100.0);
  EXPECT_LT(ns_to_ms(t.expert), 200.0);
  EXPECT_GT(ns_to_ms(t.attention + t.gate), 25.0);
  EXPECT_LT(ns_to_ms(t.attention), 80.0);
  EXPECT_GT(t.expert, t.attention);  // experts dominate (Fig. 3)
  EXPECT_LT(t.gate, t.attention);    // gate is small
}

TEST(ComputeModel, TimesScaleLinearlyWithMicroBatch) {
  const auto m = moe::mixtral_8x7b();
  auto p = moe::default_parallelism(m);
  const LayerTimes t8 = forward_layer_times(m, p);
  p.micro_batch = 32;
  const LayerTimes t32 = forward_layer_times(m, p);
  EXPECT_NEAR(static_cast<double>(t32.expert) / t8.expert, 4.0, 0.05);
  EXPECT_NEAR(static_cast<double>(t32.attention) / t8.attention, 4.0, 0.05);
}

TEST(ComputeModel, TpPartitionsCompute) {
  const auto m = moe::mixtral_8x22b();
  auto p = moe::default_parallelism(m);
  const double f8 = expert_flops_per_gpu(m, p);
  p.tp = 4;
  EXPECT_NEAR(expert_flops_per_gpu(m, p) / f8, 2.0, 1e-9);
}

TEST(ComputeModel, EpSpreadsExpertWork) {
  const auto m = moe::qwen_moe();
  auto p = moe::default_parallelism(m);
  p.ep = 16;
  const double f16 = expert_flops_per_gpu(m, p);
  p.ep = 32;
  EXPECT_NEAR(f16 / expert_flops_per_gpu(m, p), 2.0, 1e-9);
}

TEST(ComputeModel, QwenTimelineCommunicationHeavy) {
  // Qwen-MoE has tiny experts: expert compute per layer must be far below
  // Mixtral's (this is why EP communication dominates, Fig. 17b).
  const auto tq =
      forward_layer_times(moe::qwen_moe(), moe::default_parallelism(moe::qwen_moe()));
  const auto tm = forward_layer_times(moe::mixtral_8x7b(),
                                      moe::default_parallelism(moe::mixtral_8x7b()));
  EXPECT_LT(tq.expert * 4, tm.expert);
}

// ------------------------------------------------------------ taskgraph ----

TEST(TaskGraph, AcyclicDetection) {
  TaskGraph g;
  TaskId a = g.add({"a", 1, -1, 0, {}});
  TaskId b = g.add({"b", 1, -1, 0, {}});
  g.add_dep(b, a);
  EXPECT_TRUE(g.is_acyclic());
  g.add_dep(a, b);
  EXPECT_FALSE(g.is_acyclic());
}

TEST(Executor, ChainSumsDurations) {
  TaskGraph g;
  TaskId prev = -1;
  for (int i = 0; i < 5; ++i) {
    TaskId t = g.add({"t", 10, -1, 0, {}});
    if (prev >= 0) g.add_dep(t, prev);
    prev = t;
  }
  eventsim::Simulator sim;
  Executor ex(sim, g);
  ex.start();
  sim.run();
  EXPECT_TRUE(ex.all_done());
  EXPECT_EQ(ex.makespan(), 50);
}

TEST(Executor, IndependentTasksRunConcurrently) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add({"t", 100, -1, 0, {}});
  eventsim::Simulator sim;
  Executor ex(sim, g);
  ex.start();
  sim.run();
  EXPECT_EQ(ex.makespan(), 100);
}

TEST(Executor, ResourceSerializesTasks) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add({"t", 100, /*resource=*/0, 0, {}});
  eventsim::Simulator sim;
  Executor ex(sim, g);
  ex.start();
  sim.run();
  EXPECT_EQ(ex.makespan(), 400);
}

TEST(Executor, PriorityPicksBackwardFirst) {
  TaskGraph g;
  TaskId gate_task = g.add({"gate", 10, -1, 0, {}});
  TaskId low = g.add({"fwd", 100, 0, 0, {}});
  TaskId high = g.add({"bwd", 100, 0, 1, {}});
  g.add_dep(low, gate_task);
  g.add_dep(high, gate_task);
  eventsim::Simulator sim;
  Executor ex(sim, g);
  ex.start();
  sim.run();
  // Both become ready at t=10; the high-priority one must finish first.
  EXPECT_EQ(ex.task_finish_time(high), 110);
  EXPECT_EQ(ex.task_finish_time(low), 210);
}

TEST(Executor, PipelineOverlapBeatsSerial) {
  // Two stages, 4 micro-batches: compute(stage, mb) with a comm task between.
  // With overlap the makespan is well below the fully serial sum.
  TaskGraph g;
  const TimeNs comp = 100, comm = 50;
  std::vector<TaskId> tail0, tail1;
  for (int m = 0; m < 4; ++m) {
    TaskId c0 = g.add({"s0", comp, 0, 0, {}});
    if (m > 0) g.add_dep(c0, tail0.back());
    tail0.push_back(c0);
    TaskId send = g.add({"pp", comm, -1, 0, {}});
    g.add_dep(send, c0);
    TaskId c1 = g.add({"s1", comp, 1, 0, {}});
    g.add_dep(c1, send);
    if (m > 0) g.add_dep(c1, tail1.back());
    tail1.push_back(c1);
  }
  eventsim::Simulator sim;
  Executor ex(sim, g);
  ex.start();
  sim.run();
  const TimeNs serial = 4 * (comp + comm + comp);
  EXPECT_LT(ex.makespan(), serial);
  // Ideal: 100 + 50 + 4*100 = 550.
  EXPECT_EQ(ex.makespan(), 550);
}

TEST(Executor, DiamondDependency) {
  TaskGraph g;
  TaskId a = g.add({"a", 10, -1, 0, {}});
  TaskId b = g.add({"b", 20, -1, 0, {}});
  TaskId c = g.add({"c", 30, -1, 0, {}});
  TaskId d = g.add({"d", 5, -1, 0, {}});
  g.add_dep(b, a);
  g.add_dep(c, a);
  g.add_dep(d, b);
  g.add_dep(d, c);
  eventsim::Simulator sim;
  Executor ex(sim, g);
  ex.start();
  sim.run();
  EXPECT_EQ(ex.makespan(), 10 + 30 + 5);
}

}  // namespace
}  // namespace mixnet::dag
