// End-to-end observability tests: the golden-file trace for a small
// 2-host/2-job scenario, and the byte-identity contract — repeated seeded
// runs and serial-vs-parallel RunSets must write identical artifact files.
//
// Regenerate the golden after an intentional format or scenario change:
//   TLS_REGOLDEN=1 ./test_obs --gtest_filter='ObsGolden.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/experiment.hpp"
#include "obs/trace.hpp"
#include "runtime/runner.hpp"
#include "temp_dir.hpp"

namespace tls {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Tiny but complete scenario: 2 hosts, 2 jobs sharing one PS host and one
/// worker host, a toy model small enough that the whole trace stays
/// reviewable, TLs-RR so rotation/band-assign events appear.
exp::ExperimentConfig small_scenario() {
  exp::ExperimentConfig c;
  c.num_hosts = 2;
  c.cores_per_host = 4;
  c.workload.num_jobs = 2;
  c.workload.workers_per_job = 1;
  c.workload.local_batch_size = 1;
  c.workload.step_overhead = tls::sim::Time{0};
  c.workload.global_step_target = 2;  // two sync iterations per job
  c.workload.model = dl::ModelSpec{"toy", 64'000, 5.0};
  c.placement = cluster::table1(1, 2);
  c.controller.policy = core::PolicyKind::kTlsRR;
  c.controller.rotation_interval = 50 * sim::kMillisecond;
  c.stagger = 10 * sim::kMillisecond;
  c.seed = 7;
  c.obs.sample_period = 20 * sim::kMillisecond;
  return c;
}

/// Attaches all three artifact paths under `dir`.
exp::ExperimentConfig with_artifacts(exp::ExperimentConfig c,
                                     const fs::path& dir) {
  fs::create_directories(dir);
  c.obs.trace_path = (dir / "trace.json").string();
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  c.obs.metrics_path = (dir / "metrics.csv").string();
  return c;
}

TEST(ObsGolden, TwoHostTwoJobTraceMatchesGolden) {
  fs::path dir = tls::testutil::temp_dir() / "tls_obs_golden_run";
  fs::remove_all(dir);
  exp::ExperimentConfig c = with_artifacts(small_scenario(), dir);
  exp::ExperimentResult result = exp::run_experiment(c);
  ASSERT_TRUE(result.all_finished);
  std::string got = read_file(dir / "trace.json");
  ASSERT_FALSE(got.empty());

  fs::path golden = fs::path(TLS_OBS_GOLDEN_DIR) / "trace_2h2j.json";
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
      << "trace format or scenario drifted; if intentional, regenerate the "
         "golden with TLS_REGOLDEN=1";
}

/// Fig. 2-shaped FIFO scenario, shrunk: multiple jobs contending through
/// the default pfifo qdisc (the kFifo policy installs nothing), so the
/// trace exercises the exact hot path the simulator core optimizes —
/// FIFO chunk interleaving at a shared egress NIC. Golden generated by the
/// seed binary-heap build; byte-equality here certifies every later event
/// queue replays the identical event order.
exp::ExperimentConfig fig2_small_scenario() {
  exp::ExperimentConfig c;
  c.num_hosts = 5;
  c.cores_per_host = 4;
  c.workload.num_jobs = 4;
  c.workload.workers_per_job = 3;
  c.workload.local_batch_size = 1;
  c.workload.step_overhead = tls::sim::Time{0};
  c.workload.global_step_target = 8;  // two sync iterations per job
  c.workload.model = dl::ModelSpec{"toy", 64'000, 5.0};
  c.placement = cluster::table1(1, 4);
  c.controller.policy = core::PolicyKind::kFifo;
  c.stagger = 5 * sim::kMillisecond;
  c.seed = 11;
  c.obs.sample_period = 20 * sim::kMillisecond;
  return c;
}

TEST(ObsGolden, Fig2SmallFifoTraceMatchesGolden) {
  fs::path dir = tls::testutil::temp_dir() / "tls_obs_golden_fig2s";
  fs::remove_all(dir);
  exp::ExperimentConfig c = with_artifacts(fig2_small_scenario(), dir);
  exp::ExperimentResult result = exp::run_experiment(c);
  ASSERT_TRUE(result.all_finished);
  std::string got = read_file(dir / "trace.json");
  ASSERT_FALSE(got.empty());

  fs::path golden = fs::path(TLS_OBS_GOLDEN_DIR) / "trace_fig2_small.json";
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
      << "event order or trace format drifted from the binary-heap build; "
         "if intentional, regenerate the golden with TLS_REGOLDEN=1";
}

TEST(ObsGolden, TraceLooksLikeWellFormedChromeJson) {
  fs::path dir = tls::testutil::temp_dir() / "tls_obs_wellformed";
  fs::remove_all(dir);
  exp::ExperimentConfig c = with_artifacts(small_scenario(), dir);
  exp::run_experiment(c);
  std::string json = read_file(dir / "trace.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // No string payload contains braces, so brace balance is a faithful
  // structural check here (the CI smoke test runs a real JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // The scenario exercises every layer: NIC chunks, qdisc service,
  // controller assignment, barriers, and periodic gauges.
  for (const char* name :
       {"chunk_enqueue", "chunk_dequeue", "band_assign", "barrier_release",
        "gauge_sample"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(ObsDeterminism, RepeatedSeededRunsWriteIdenticalArtifacts) {
  fs::path a = tls::testutil::temp_dir() / "tls_obs_det_a";
  fs::path b = tls::testutil::temp_dir() / "tls_obs_det_b";
  fs::remove_all(a);
  fs::remove_all(b);
  exp::run_experiment(with_artifacts(small_scenario(), a));
  exp::run_experiment(with_artifacts(small_scenario(), b));
  for (const char* file : {"trace.json", "trace.csv", "metrics.csv"}) {
    std::string first = read_file(a / file);
    ASSERT_FALSE(first.empty()) << file;
    EXPECT_EQ(first, read_file(b / file)) << file << " differs across runs";
  }
}

/// Value of the run-end counter row `name` in a metrics CSV, or -1.
long long counter_value(const std::string& csv, const std::string& name) {
  std::string needle = "," + name + ",counter,";
  std::size_t at = csv.find(needle);
  if (at == std::string::npos) return -1;
  std::size_t line_end = csv.find('\n', at);
  std::size_t value_at = csv.rfind(',', line_end) + 1;
  return std::stoll(csv.substr(value_at, line_end - value_at));
}

TEST(ObsMetrics, EventQueuePeakPendingIsBoundedBySchedules) {
  fs::path dir = tls::testutil::temp_dir() / "tls_obs_eventq";
  fs::remove_all(dir);
  exp::run_experiment(with_artifacts(small_scenario(), dir));
  std::string csv = read_file(dir / "metrics.csv");
  long long peak = counter_value(csv, "eventq_peak_pending");
  long long scheduled = counter_value(csv, "eventq_scheduled");
  EXPECT_GT(peak, 0);
  EXPECT_LE(peak, scheduled);
}

TEST(ObsDeterminism, SerialAndParallelRunSetsWriteIdenticalArtifacts) {
  // The same 3-policy comparison executed with one worker and with eight
  // must produce byte-identical per-run artifact files: each simulation is
  // single-threaded and owns its label-derived paths.
  fs::path serial_dir = tls::testutil::temp_dir() / "tls_obs_serial";
  fs::path parallel_dir = tls::testutil::temp_dir() / "tls_obs_parallel";
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);

  auto run_with = [&](const fs::path& dir, int jobs) {
    runtime::RunPlan plan = runtime::RunPlan::policy_comparison(
        with_artifacts(small_scenario(), dir));
    runtime::RunOptions options;
    options.jobs = jobs;
    options.cache_dir = "";  // isolate from any $TLS_CACHE_DIR
    return runtime::run_plan(plan, options);
  };
  runtime::RunReport serial = run_with(serial_dir, 1);
  runtime::RunReport parallel = run_with(parallel_dir, 8);
  ASSERT_EQ(serial.labels, parallel.labels);

  for (const std::string& label : serial.labels) {
    for (const char* base : {"trace.json", "trace.csv", "metrics.csv"}) {
      std::string name =
          fs::path(obs::per_run_path(base, label)).filename().string();
      std::string first = read_file(serial_dir / name);
      ASSERT_FALSE(first.empty()) << name;
      EXPECT_EQ(first, read_file(parallel_dir / name))
          << name << " differs between jobs=1 and jobs=8";
    }
  }
}

TEST(ObsDeterminism, ArtifactsDoNotPerturbResults) {
  // A traced run must report exactly the metrics an untraced run does —
  // observability reads simulation state, never steers it. With every
  // artifact on, sim_events may differ (the gauge sampler adds timer
  // events), so compare exports. An inert tracer (trace path set, every
  // category masked off, no sampler) adds no event at all, so there the
  // event count must match too: this is the gate for the disabled column
  // of bench_obs_overhead. Both pfifo (FIFO) and htb (TLs-RR) data planes
  // are covered.
  fs::path dir = tls::testutil::temp_dir() / "tls_obs_perturb";
  fs::remove_all(dir);
  for (core::PolicyKind policy :
       {core::PolicyKind::kTlsRR, core::PolicyKind::kFifo}) {
    exp::ExperimentConfig plain = small_scenario();
    plain.controller.policy = policy;
    exp::ExperimentConfig traced = with_artifacts(plain, dir);
    exp::ExperimentConfig inert = plain;
    inert.obs.trace_path = (dir / "inert.json").string();
    inert.obs.trace_categories = 0;
    inert.obs.sample_period = sim::Time{0};
    exp::ExperimentResult a = exp::run_experiment(plain);
    exp::ExperimentResult b = exp::run_experiment(traced);
    exp::ExperimentResult c = exp::run_experiment(inert);
    EXPECT_EQ(a.sim_events, c.sim_events);
    for (const exp::ExperimentResult* r : {&b, &c}) {
      SCOPED_TRACE(r == &b ? "all artifacts" : "inert tracer");
      EXPECT_EQ(a.avg_jct_s, r->avg_jct_s);
      EXPECT_EQ(a.rotations, r->rotations);
      EXPECT_EQ(a.tc_commands, r->tc_commands);
      ASSERT_EQ(a.jobs.size(), r->jobs.size());
      for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].jct_s, r->jobs[i].jct_s) << "job " << i;
        EXPECT_EQ(a.jobs[i].iterations, r->jobs[i].iterations) << "job " << i;
      }
    }
  }
}

}  // namespace
}  // namespace tls
