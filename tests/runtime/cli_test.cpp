#include "runtime/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "temp_dir.hpp"

namespace tls::runtime {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun cli(std::initializer_list<std::string> args) {
  std::ostringstream out, err;
  int code = run_cli(std::vector<std::string>(args), out, err);
  return {code, out.str(), err.str()};
}

// Small-but-contended base flags so CLI tests run in milliseconds.
#define SMALL "--hosts", "6", "--jobs", "6", "--workers", "5", \
              "--batch", "1", "--iters", "6", "--link-gbps", "2.5"

TEST(CliParse, FlagsAndPositionals) {
  CliArgs args;
  std::string error;
  ASSERT_TRUE(parse_args({"run", "--hosts", "8", "--csv", "--seed=9"}, &args,
                         &error));
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "run");
  EXPECT_EQ(args.get("hosts"), "8");
  EXPECT_EQ(args.get("seed"), "9");
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.get("csv"), "true");
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
}

TEST(CliParse, LastFlagWins) {
  CliArgs args;
  std::string error;
  ASSERT_TRUE(parse_args({"--seed", "1", "--seed", "2"}, &args, &error));
  EXPECT_EQ(args.get("seed"), "2");
}

TEST(CliParse, EmptyFlagRejected) {
  CliArgs args;
  std::string error;
  EXPECT_FALSE(parse_args({"--"}, &args, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Cli, HelpByDefaultAndExplicit) {
  CliRun r = cli({});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage: tlsim"), std::string::npos);
  EXPECT_EQ(cli({"help"}).code, 0);
}

TEST(Cli, UnknownCommandFails) {
  CliRun r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, RunProducesTable) {
  CliRun r = cli({"run", SMALL, "--policy", "tls-one"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("TLs-One"), std::string::npos);
  EXPECT_NE(r.out.find("avg JCT"), std::string::npos);
}

TEST(Cli, RunCsvOutput) {
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--csv"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("policy,avg JCT (s)"), std::string::npos);
  EXPECT_NE(r.out.find("FIFO,"), std::string::npos);
}

TEST(Cli, RunReplicated) {
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--replicas", "2"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("across 2 seeds"), std::string::npos);
}

TEST(Cli, CompareShowsAllPolicies) {
  CliRun r = cli({"compare", SMALL});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("FIFO"), std::string::npos);
  EXPECT_NE(r.out.find("TLs-One"), std::string::npos);
  EXPECT_NE(r.out.find("TLs-RR"), std::string::npos);
}

TEST(Cli, BadPolicyRejected) {
  CliRun r = cli({"run", SMALL, "--policy", "wfq"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--policy"), std::string::npos);
}

TEST(Cli, BadNumberRejected) {
  EXPECT_EQ(cli({"run", "--hosts", "zero"}).code, 2);
  EXPECT_EQ(cli({"run", "--placement", "9"}).code, 2);
  EXPECT_EQ(cli({"run", "--bands", "16"}).code, 2);
}

TEST(Cli, WorkerHostConstraintEnforced) {
  CliRun r = cli({"run", "--hosts", "4", "--jobs", "2", "--workers", "4"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--workers"), std::string::npos);
}

TEST(Cli, ManyBandsSelectPrioPlane) {
  // 15 bands exceed htb's 8 prio levels; the CLI must switch data planes
  // rather than fail.
  CliRun r = cli({"run", SMALL, "--policy", "tls-one", "--bands", "15"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, BackgroundFlagAccepted) {
  CliRun r = cli({"run", SMALL, "--policy", "tls-rr", "--background"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(Cli, ExportPrefixWritesArtifacts) {
  std::string prefix =
      (tls::testutil::temp_dir() / "tlsim_cli_export").string();
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--export-prefix", prefix});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("exported"), std::string::npos);
  for (const char* suffix : {".jobs.csv", ".barriers.csv", ".json"}) {
    std::ifstream in(prefix + suffix);
    EXPECT_TRUE(in.good()) << suffix;
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_FALSE(first_line.empty()) << suffix;
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Cli, ExportToBadPathFails) {
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--export-prefix",
                  "/nonexistent-dir-xyz/out"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("export failed"), std::string::npos);
}

TEST(Cli, TraceFilterUnknownCategoryRejected) {
  CliRun r = cli({"run", SMALL, "--trace-filter", "chunk,bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bogus"), std::string::npos) << r.err;
  // The error lists every valid category so the user can self-serve.
  for (const char* name : {"chunk", "qdisc", "htb", "rotation", "barrier",
                           "straggler", "sample", "flow", "ingress",
                           "compute"}) {
    EXPECT_NE(r.err.find(name), std::string::npos) << name << ": " << r.err;
  }
}

TEST(Cli, ReportFlagsWriteAttributionArtifacts) {
  std::string prefix =
      (tls::testutil::temp_dir() / "tlsim_cli_report").string();
  CliRun r = cli({"run", SMALL, "--policy", "fifo",
                  "--report", prefix + ".txt",
                  "--report-csv", prefix + ".csv",
                  "--report-json", prefix + ".json"});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream text(prefix + ".txt");
  std::string first_line;
  std::getline(text, first_line);
  EXPECT_NE(first_line.find("tlsreport:"), std::string::npos);
  std::ifstream csv(prefix + ".csv");
  std::getline(csv, first_line);
  EXPECT_NE(first_line.find("job,iteration"), std::string::npos);
  std::ifstream json(prefix + ".json");
  std::getline(json, first_line);
  EXPECT_NE(first_line.find("\"schema\":\"tlsreport-v2\""), std::string::npos);
  for (const char* suffix : {".txt", ".csv", ".json"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Cli, ReportWorksWithNarrowTraceFilter) {
  // --report forces the analysis categories even when --trace-filter would
  // exclude them; the report must not silently degrade to all-`other`.
  std::string path =
      (tls::testutil::temp_dir() / "tlsim_cli_report_narrow.txt").string();
  CliRun r = cli({"run", SMALL, "--policy", "fifo", "--trace-filter", "none",
                  "--report", path});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  // Degraded analysis would attribute zero compute to every job's rollup.
  EXPECT_NE(buf.str().find("total wait"), std::string::npos);
  EXPECT_EQ(buf.str().find("compute 0 ("), std::string::npos) << buf.str();
  std::remove(path.c_str());
}

// Small dynamic-cluster scenario: finishes in well under a second.
#define SMALL_SCENARIO                                                  \
  "scenario", "--hosts", "4", "--cores", "4", "--scenario-jobs", "5",   \
      "--scenario-mean-s", "2", "--scenario-workers-min", "2",          \
      "--scenario-workers-max", "3", "--scenario-iters-min", "3",       \
      "--scenario-iters-max", "4", "--scenario-batch", "1",             \
      "--scenario-sample-s", "0"

TEST(Cli, ScenarioProducesTable) {
  CliRun r = cli({SMALL_SCENARIO, "--policy", "tls-one"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("policy"), std::string::npos);
  EXPECT_NE(r.out.find("mean JCT (s)"), std::string::npos);
  EXPECT_NE(r.out.find("TLs-One"), std::string::npos);
}

TEST(Cli, ScenarioCompareRunsAllPolicies) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-compare", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* policy : {"FIFO", "TLs-One", "TLs-RR"}) {
    EXPECT_NE(r.out.find(policy), std::string::npos) << policy << "\n" << r.out;
  }
}

TEST(Cli, ScenarioUnknownFlagRejectedWithValidList) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-bogus", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown flag --scenario-bogus"), std::string::npos)
      << r.err;
  // The error lists every valid scenario flag so the user can self-serve.
  EXPECT_NE(r.err.find("--scenario-jobs"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--scenario-csv"), std::string::npos) << r.err;
}

TEST(Cli, ScenarioBadArrivalsRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-arrivals", "weibull"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --scenario-arrivals 'weibull' (poisson|pareto)"),
            std::string::npos)
      << r.err;
}

TEST(Cli, ScenarioBadAdmissionRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-admission", "drop"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --scenario-admission 'drop'"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("share|queue|reject"), std::string::npos) << r.err;
}

TEST(Cli, ScenarioBadModelRejectedWithZooList) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-models", "resnet999"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad --scenario-models"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("unknown model 'resnet999'"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("resnet32_cifar10"), std::string::npos) << r.err;
}

TEST(Cli, ScenarioBadRangeRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-evict-frac", "1.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--scenario-evict-frac must be <= 1"),
            std::string::npos)
      << r.err;
}

TEST(Cli, ScenarioBadNumberRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-band-limit", "many"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("bad value for --scenario-band-limit"),
            std::string::npos)
      << r.err;
}

TEST(Cli, ScenarioWritesResultAndTraceArtifacts) {
  std::string prefix =
      (tls::testutil::temp_dir() / "tlsim_cli_scenario").string();
  CliRun r = cli({SMALL_SCENARIO, "--policy", "tls-one",
                  "--scenario-out", prefix + ".json",
                  "--scenario-csv", prefix + ".csv",
                  "--scenario-trace-out", prefix + "_trace.csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream json(prefix + ".json");
  std::string line;
  std::getline(json, line);
  EXPECT_EQ(line, "{");
  std::getline(json, line);
  EXPECT_NE(line.find("\"schema\": \"scenario-v1\""), std::string::npos);
  std::ifstream csv(prefix + ".csv");
  std::getline(csv, line);
  EXPECT_NE(line.find("job_id,model"), std::string::npos);
  std::ifstream trace(prefix + "_trace.csv");
  std::getline(trace, line);
  EXPECT_NE(line.find("job_id,arrival_s"), std::string::npos);
  for (const char* suffix : {".json", ".csv", "_trace.csv"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Cli, ScenarioTraceReplayRoundTrips) {
  // Export the generated trace, replay it, and check the replayed run
  // reports the same jobs.
  std::string path =
      (tls::testutil::temp_dir() / "tlsim_cli_scenario_replay.csv").string();
  CliRun gen = cli({SMALL_SCENARIO, "--policy", "fifo", "--csv",
                    "--scenario-trace-out", path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  CliRun replay = cli({SMALL_SCENARIO, "--policy", "fifo", "--csv",
                       "--scenario-trace", path});
  EXPECT_EQ(replay.code, 0) << replay.err;
  EXPECT_EQ(gen.out, replay.out);
  std::remove(path.c_str());
}

TEST(Cli, ScenarioMissingTraceFileRejected) {
  CliRun r = cli({SMALL_SCENARIO, "--scenario-trace", "/nonexistent/t.csv"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cannot open --scenario-trace file"), std::string::npos)
      << r.err;
}

TEST(Cli, SweepBatchRuns) {
  CliRun r = cli({"sweep-batch", "--hosts", "5", "--jobs", "4", "--workers",
                  "4", "--iters", "3", "--link-gbps", "2.5", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("batch,FIFO avg JCT (s)"), std::string::npos);
  // Five batch rows.
  EXPECT_NE(r.out.find("\n16,"), std::string::npos);
}

}  // namespace
}  // namespace tls::runtime
