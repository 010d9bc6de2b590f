// The parallel-determinism witness (DESIGN.md §7): the same seeded sweep
// run with jobs=1 and jobs=8 must produce byte-identical CSV/JSON exports
// — results are keyed by run index, never by completion order. Also the
// cache behavior contract: a second run of an unchanged plan is all hits
// and still byte-identical.
#include "runtime/runner.hpp"

#include "runtime/replicate.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "exp/export.hpp"
#include "temp_dir.hpp"

namespace tls::runtime {
namespace {

namespace fs = std::filesystem;

/// Small contended sweep mirroring tests/integration/determinism_test.cpp:
/// colocated PSes and a slow link so runs are long enough to genuinely
/// overlap and finish out of submission order under the pool.
exp::ExperimentConfig small_contended(core::PolicyKind policy) {
  exp::ExperimentConfig c;
  c.num_hosts = 6;
  c.workload.num_jobs = 6;
  c.workload.workers_per_job = 5;
  c.workload.local_batch_size = 1;
  c.workload.step_overhead = tls::sim::Time{0};
  c.workload.global_step_target = 5L * 8;
  c.fabric.link_rate = net::gbps(2.5);
  c.placement = cluster::table1(1, 6);
  c.controller.policy = policy;
  c.controller.rotation_interval = 2 * sim::kSecond;
  c.seed = 17;
  return c;
}

/// A seeded multi-entry plan: 3 policies x 2 seeds.
RunPlan seeded_sweep() {
  RunPlan plan;
  for (core::PolicyKind policy :
       {core::PolicyKind::kFifo, core::PolicyKind::kTlsOne,
        core::PolicyKind::kTlsRR}) {
    for (std::uint64_t seed : {17u, 18u}) {
      exp::ExperimentConfig c = small_contended(policy);
      c.seed = seed;
      plan.add(std::string(core::to_string(policy)) + "/seed" +
                   std::to_string(seed),
               c);
    }
  }
  return plan;
}

/// Every export surface of every run, concatenated in plan order.
std::string full_export(const RunReport& report) {
  std::string out;
  for (const exp::ExperimentResult& r : report.results) {
    out += exp::jobs_csv(r) + "\n" + exp::barriers_csv(r) + "\n" +
           exp::to_json(r) + "\n";
  }
  return out;
}

RunOptions with_jobs(int jobs) {
  RunOptions o;
  o.jobs = jobs;
  o.cache_dir.clear();  // caching off unless a test opts in
  return o;
}

TEST(Runner, ParallelExportIsByteIdenticalToSerial) {
  RunPlan plan = seeded_sweep();
  RunReport serial = run_plan(plan, with_jobs(1));
  RunReport parallel = run_plan(plan, with_jobs(8));
  EXPECT_EQ(serial.jobs_used, 1);
  EXPECT_EQ(parallel.jobs_used, 6);  // clamped to the 6 plan entries
  ASSERT_EQ(serial.results.size(), plan.size());
  ASSERT_EQ(parallel.results.size(), plan.size());
  EXPECT_EQ(full_export(serial), full_export(parallel));
  EXPECT_EQ(serial.labels, parallel.labels);
}

TEST(Runner, SecondRunIsAllCacheHitsAndIdentical) {
  fs::path dir = tls::testutil::temp_dir() / "tls_runner_cache";
  fs::remove_all(dir);
  RunPlan plan = seeded_sweep();

  RunOptions options = with_jobs(2);
  options.cache_dir = dir.string();
  RunReport first = run_plan(plan, options);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_stores, plan.size());

  RunReport second = run_plan(plan, options);
  EXPECT_EQ(second.cache_hits, plan.size());
  EXPECT_EQ(second.cache_stores, 0u);
  EXPECT_EQ(full_export(first), full_export(second));

  // A config change (new seed) misses and reruns.
  RunPlan changed = plan;
  changed.entries[0].config.seed = 99;
  RunReport third = run_plan(changed, options);
  EXPECT_EQ(third.cache_hits, plan.size() - 1);
  EXPECT_EQ(third.cache_stores, 1u);
  fs::remove_all(dir);
}

TEST(Runner, ReplicatedPlanMatchesRunReplicatedContract) {
  exp::ExperimentConfig base = small_contended(core::PolicyKind::kTlsRR);
  RunPlan plan = RunPlan::replicated(base, 3);
  ASSERT_EQ(plan.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.entries[static_cast<std::size_t>(i)].config.seed,
              base.seed + static_cast<std::uint64_t>(i));
  }
  // runtime::run_replicated rides on this plan; results must agree with
  // direct runs at each seed.
  std::vector<exp::ExperimentResult> replicas = runtime::run_replicated(base, 2);
  exp::ExperimentConfig direct = base;
  direct.seed = base.seed + 1;
  EXPECT_EQ(exp::to_json(exp::run_experiment(direct)),
            exp::to_json(replicas[1]));
}

TEST(Runner, PolicyComparisonPlanIsFifoFirst) {
  exp::ExperimentConfig base = small_contended(core::PolicyKind::kFifo);
  RunPlan plan = RunPlan::policy_comparison(base);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.entries[0].config.controller.policy, core::PolicyKind::kFifo);
  EXPECT_EQ(plan.entries[1].config.controller.policy,
            core::PolicyKind::kTlsOne);
  EXPECT_EQ(plan.entries[2].config.controller.policy, core::PolicyKind::kTlsRR);

  std::vector<exp::ExperimentResult> results = runtime::compare(base);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].policy_name, "FIFO");
}

TEST(Runner, PlacementSweepIsRowMajor) {
  exp::ExperimentConfig base = small_contended(core::PolicyKind::kFifo);
  RunPlan plan = RunPlan::placement_sweep(
      base, {1, 2}, {core::PolicyKind::kFifo, core::PolicyKind::kTlsOne});
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.entries[0].config.placement.index, 1);
  EXPECT_EQ(plan.entries[1].config.placement.index, 1);
  EXPECT_EQ(plan.entries[1].config.controller.policy,
            core::PolicyKind::kTlsOne);
  EXPECT_EQ(plan.entries[2].config.placement.index, 2);
}

TEST(Runner, ProgressLinesGoToTheGivenStream) {
  RunPlan plan;
  plan.add("only", small_contended(core::PolicyKind::kFifo));
  std::ostringstream progress;
  RunOptions options = with_jobs(1);
  options.progress = true;
  options.progress_stream = &progress;
  RunReport report = run_plan(plan, options);
  EXPECT_EQ(report.results.size(), 1u);
  EXPECT_NE(progress.str().find("only"), std::string::npos);
  EXPECT_NE(progress.str().find("1/1"), std::string::npos);
}

TEST(Runner, EmptyPlanIsANoOp) {
  RunReport report = run_plan(RunPlan{}, with_jobs(4));
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.cache_hits, 0u);
}

}  // namespace
}  // namespace tls::runtime
