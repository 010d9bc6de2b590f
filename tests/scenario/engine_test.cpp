#include "scenario/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scenario/export.hpp"
#include "temp_dir.hpp"

namespace tls::scenario {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Generated-trace config small enough to finish in tens of milliseconds.
Config small_config() {
  Config c;
  c.num_hosts = 4;
  c.cores_per_host = 4;
  c.trace.num_jobs = 6;
  c.trace.mean_interarrival_s = 3;
  c.trace.min_workers = 2;
  c.trace.max_workers = 3;
  c.trace.min_iterations = 3;
  c.trace.max_iterations = 5;
  c.trace.local_batch_size = 1;
  c.trace.seed = 5;
  c.seed = 9;
  c.controller.policy = core::PolicyKind::kTlsOne;
  c.sample_period = sim::Time{0};
  return c;
}

/// Hand-built burst: `n` jobs arriving in the first half second on a
/// 2-host cluster (workers clamp to 1), so a band limit of 1 exhausts
/// admission after a single running job.
Config burst_config(int n, cluster::AdmissionPolicy admission) {
  Config c;
  c.num_hosts = 2;
  c.cores_per_host = 4;
  c.admission = admission;
  c.ps_band_limit = 1;
  c.seed = 3;
  c.controller.policy = core::PolicyKind::kTlsOne;
  c.sample_period = sim::Time{0};
  for (int j = 0; j < n; ++j) {
    TraceJob job;
    job.job_id = j;
    job.arrival = j * 100 * sim::kMillisecond;
    job.num_workers = 1;
    job.local_batch_size = 1;
    job.iterations = 3;
    c.replay.jobs.push_back(job);
  }
  return c;
}

TEST(ScenarioEngine, RepeatedRunsAreByteIdentical) {
  Config c = small_config();
  Result a = run_scenario(c);
  Result b = run_scenario(c);
  EXPECT_EQ(scenario_json(a), scenario_json(b));
  EXPECT_EQ(scenario_csv(a), scenario_csv(b));
}

TEST(ScenarioEngine, SmallTlsOneScenarioMatchesGolden) {
  Config c = small_config();
  std::string got = scenario_json(run_scenario(c));
  ASSERT_FALSE(got.empty());

  fs::path golden = fs::path(TLS_SCENARIO_GOLDEN_DIR) / "scenario_v1_small.json";
  if (std::getenv("TLS_REGOLDEN") != nullptr) {
    fs::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    out << got;
    GTEST_SKIP() << "regenerated " << golden;
  }
  std::string want = read_file(golden);
  ASSERT_FALSE(want.empty())
      << "missing golden " << golden << " — regenerate with TLS_REGOLDEN=1";
  EXPECT_EQ(got, want)
      << "scenario-v1 export or engine behaviour drifted; if intentional, "
         "regenerate the golden with TLS_REGOLDEN=1";
}

TEST(ScenarioEngine, AllJobsCompleteOnAnUncontendedCluster) {
  Result r = run_scenario(small_config());
  EXPECT_TRUE(r.trace_drained);
  EXPECT_EQ(r.completed, 6u);
  EXPECT_EQ(r.evicted, 0u);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_EQ(r.jct.count, 6u);
  EXPECT_GT(r.jct.mean, 0);
  EXPECT_GT(r.cluster_cpu_util, 0);
  EXPECT_GT(r.sim_events, 0u);
  for (const JobOutcome& o : r.jobs) {
    EXPECT_EQ(o.status, JobStatus::kCompleted);
    EXPECT_EQ(o.iterations_done, o.iterations_target);
    EXPECT_GE(o.band_at_admit, 0);  // TLs-One assigns a band at admission
    EXPECT_GE(o.finish_s, o.admit_s);
  }
}

TEST(ScenarioEngine, QueueAdmissionHoldsOverflowUntilDeparture) {
  Result r = run_scenario(burst_config(4, cluster::AdmissionPolicy::kQueue));
  EXPECT_TRUE(r.trace_drained);
  EXPECT_EQ(r.completed, 4u);
  EXPECT_EQ(r.rejected, 0u);
  // Later arrivals waited for the head job's departure.
  EXPECT_GT(r.queue_wait.max, 0);
  // FIFO retry: admissions happen in arrival order.
  for (std::size_t i = 1; i < r.jobs.size(); ++i) {
    EXPECT_GE(r.jobs[i].admit_s, r.jobs[i - 1].admit_s);
  }
  // The band limit held: never more than one PS job per host.
  EXPECT_LE(r.peak_ps_colocation, 1);
}

TEST(ScenarioEngine, RejectAdmissionRefusesOverflow) {
  Result r = run_scenario(burst_config(4, cluster::AdmissionPolicy::kReject));
  EXPECT_TRUE(r.trace_drained);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.completed + r.rejected, 4u);
  for (const JobOutcome& o : r.jobs) {
    if (o.status == JobStatus::kRejected) {
      EXPECT_EQ(o.admit_s, -1);
      EXPECT_EQ(o.jct_s, -1);
      EXPECT_GE(o.finish_s, 0);  // resolution time is recorded
    }
  }
}

TEST(ScenarioEngine, ShareBandAdmitsPastTheLimit) {
  Result r = run_scenario(burst_config(4, cluster::AdmissionPolicy::kShareBand));
  EXPECT_TRUE(r.trace_drained);
  EXPECT_EQ(r.completed, 4u);
  // Everything was admitted on arrival; colocation blew past the budget.
  EXPECT_EQ(r.queue_wait.max, 0);
  EXPECT_GT(r.peak_ps_colocation, 1);
}

TEST(ScenarioEngine, TimeLimitMarksUnfinishedJobs) {
  Config c = burst_config(4, cluster::AdmissionPolicy::kShareBand);
  c.time_limit = 500 * sim::kMillisecond;  // cuts into the burst
  Result r = run_scenario(c);
  EXPECT_FALSE(r.trace_drained);
  EXPECT_GT(r.unfinished, 0u);
  EXPECT_LE(r.horizon_s, 0.5 + 1e-9);
}

TEST(ScenarioEngine, FifoLeavesBandsUnassigned) {
  Config c = small_config();
  c.controller.policy = core::PolicyKind::kFifo;
  Result r = run_scenario(c);
  EXPECT_EQ(r.completed, 6u);
  for (const JobOutcome& o : r.jobs) EXPECT_EQ(o.band_at_admit, -1);
  EXPECT_EQ(r.tc_commands, 0u);
}

TEST(ScenarioEngine, LifetimeEvictsMidFlight) {
  Config c = burst_config(2, cluster::AdmissionPolicy::kShareBand);
  for (TraceJob& j : c.replay.jobs) {
    j.iterations = 10000;  // would run far past the lifetime
    j.lifetime = 1 * sim::kSecond;
  }
  Result r = run_scenario(c);
  EXPECT_TRUE(r.trace_drained);
  EXPECT_EQ(r.evicted, 2u);
  EXPECT_EQ(r.jct.count, 0u);  // evicted jobs are excluded from the JCT summary
  for (const JobOutcome& o : r.jobs) {
    EXPECT_EQ(o.status, JobStatus::kEvicted);
    EXPECT_LT(o.iterations_done, o.iterations_target);
    EXPECT_NEAR(o.jct_s, 1.0, 0.1);
  }
}

TEST(ScenarioEngine, CsvHasHeaderAndOneRowPerJob) {
  Result r = run_scenario(small_config());
  std::string csv = scenario_csv(r);
  std::istringstream in(csv);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "job_id,model,workers,iters_target,iters_done,arrival_s,admit_s,"
            "finish_s,queue_wait_s,jct_s,band,status");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, r.jobs.size());
}

TEST(ScenarioEngine, JsonDeclaresSchemaAndPolicy) {
  Result r = run_scenario(small_config());
  std::string json = scenario_json(r);
  EXPECT_NE(json.find("\"schema\": \"scenario-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"TLs-One\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs_detail\""), std::string::npos);
}

TEST(ScenarioEngine, WritesMetricsTimeseriesWhenAsked) {
  fs::path dir = tls::testutil::temp_dir() / "tls_scenario_metrics";
  fs::create_directories(dir);
  Config c = small_config();
  c.sample_period = 1 * sim::kSecond;
  c.metrics_path = (dir / "metrics.csv").string();
  run_scenario(c);
  std::string csv = read_file(c.metrics_path);
  EXPECT_NE(csv.find("scenario_active_jobs"), std::string::npos);
  EXPECT_NE(csv.find("scenario_band_jobs"), std::string::npos);
}

TEST(ScenarioEngine, RejectsBadConfigs) {
  Config c = small_config();
  c.num_hosts = 1;
  EXPECT_THROW(run_scenario(c), std::invalid_argument);

  c = small_config();
  c.cores_per_host = 0;
  EXPECT_THROW(run_scenario(c), std::invalid_argument);

  c = small_config();
  TraceJob bad;
  bad.model = "no_such_model";
  c.replay.jobs.push_back(bad);
  EXPECT_THROW(run_scenario(c), std::invalid_argument);
}

TEST(ScenarioEngine, JobStatusNames) {
  EXPECT_STREQ(to_string(JobStatus::kCompleted), "completed");
  EXPECT_STREQ(to_string(JobStatus::kEvicted), "evicted");
  EXPECT_STREQ(to_string(JobStatus::kRejected), "rejected");
  EXPECT_STREQ(to_string(JobStatus::kUnfinished), "unfinished");
}

}  // namespace
}  // namespace tls::scenario
