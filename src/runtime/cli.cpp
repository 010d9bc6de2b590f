#include "runtime/cli.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "exp/experiment.hpp"
#include "exp/export.hpp"
#include "metrics/report.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario_runner.hpp"
#include "scenario/export.hpp"

namespace tls::runtime {

namespace {

using sim::FlagSpec;

// The flag table, in sections. A command accepts the rows of the sections
// it reads (kCommands); `tlsim help` renders them in this order.
constexpr FlagSpec kSharedFlags[] = {
    {"hosts", "N", "cluster hosts (21; scenario: 12)"},
    {"seed", "N", "simulation seed (1)"},
    {"policy", "P", "fifo|tls-one|tls-rr (tls-rr)"},
    {"strategy", "S", "priority order: arrival|random|smallest (arrival)"},
    {"bands", "N", "tc bands, 1-15; more than 8 selects prio (6)"},
    {"interval-s", "X", "TLs-RR rotation interval (10; scenario: 20)"},
    {"link-gbps", "X", "NIC line rate (10)"},
    {"threads", "N",
     "worker threads for independent runs (0 = $TLS_JOBS\n"
     "or hardware concurrency; 1 = serial)"},
    {"metrics", "PATH", "long-format metrics timeseries CSV"},
    {"csv", nullptr, "print the result table as CSV"},
};

constexpr FlagSpec kExperimentFlags[] = {
    {"jobs", "N", "training jobs (21)"},
    {"workers", "N", "workers per job, at most hosts - 1 (20)"},
    {"ps", "N", "parameter servers per job (1)"},
    {"batch", "N", "local batch size (4)"},
    {"iters", "N", "iterations per worker (60)"},
    {"placement", "IDX", "Table I PS placement, 1-8 (1)"},
    {"background", nullptr, "add Poisson background cross-traffic"},
    {"cache", "DIR",
     "content-addressed result cache\n"
     "(default: $TLS_CACHE_DIR; unset = off)"},
    {"no-cache", nullptr, "force the result cache off"},
    {"progress", nullptr, "per-run progress/ETA lines on stderr"},
    {"trace", "PATH", "Chrome trace-event JSON (Perfetto)"},
    {"trace-csv", "PATH", "same events in compact CSV form"},
    {"trace-filter", "CATS",
     "chunk,qdisc,htb,rotation,barrier,straggler,sample,\n"
     "flow,ingress,compute; all (default) or none"},
    {"trace-sample", "SPEC",
     "keep one event in N per category, e.g. qdisc=16,\n"
     "htb=8 (attribution categories are always exact)"},
    {"report", "PATH",
     "straggler-attribution report (critical-path\n"
     "decomposition + contention blame; tlsreport text)"},
    {"report-csv", "PATH", "same report as tidy long CSV"},
    {"report-json", "PATH", "same report as tlsreport-v2 JSON"},
    {"report-html", "PATH", "same report as a self-contained HTML dashboard"},
};

constexpr FlagSpec kRunFlags[] = {
    {"replicas", "N", "runs with consecutive seeds (1)"},
    {"export-prefix", "PATH",
     "write PATH.jobs.csv, PATH.barriers.csv and\n"
     "PATH.json for the first replica"},
};

constexpr FlagSpec kScenarioFlags[] = {
    {"cores", "N", "CPU cores per host (6)"},
    {"scenario-jobs", "N", "trace length (100)"},
    {"scenario-arrivals", "A", "poisson|pareto (poisson)"},
    {"scenario-mean-s", "X", "Poisson mean interarrival (30)"},
    {"scenario-pareto-alpha", "X", "bounded-Pareto interarrival shape (1.5)"},
    {"scenario-pareto-min-s", "X", "bounded-Pareto lower bound (2)"},
    {"scenario-pareto-max-s", "X", "bounded-Pareto upper bound (600)"},
    {"scenario-models", "LIST",
     "comma list of zoo models, or mix = all\n(resnet32_cifar10)"},
    {"scenario-workers-min", "N", "fewest workers per job (2)"},
    {"scenario-workers-max", "N", "most workers per job (8)"},
    {"scenario-iters-min", "N", "fewest iterations per job (20)"},
    {"scenario-iters-max", "N", "most iterations per job (80)"},
    {"scenario-batch", "N", "local batch size (4)"},
    {"scenario-evict-frac", "X", "fraction of jobs evicted mid-flight (0)"},
    {"scenario-evict-min-s", "X", "shortest evicted-job lifetime (30)"},
    {"scenario-evict-max-s", "X", "longest evicted-job lifetime (300)"},
    {"scenario-trace-seed", "N", "workload seed, fixed across --policy (1)"},
    {"scenario-admission", "A", "share|queue|reject (share)"},
    {"scenario-band-limit", "N",
     "PS jobs/host before admission kicks in\n"
     "(-1 = follow --bands, 0 = unlimited) (-1)"},
    {"scenario-time-limit-s", "X", "hard stop in simulated seconds (14400)"},
    {"scenario-sample-s", "X", "occupancy gauge period, 0 = off (10)"},
    {"scenario-compare", nullptr, "FIFO vs TLs-One vs TLs-RR, same trace"},
    {"scenario-trace", "PATH", "replay a trace CSV instead of generating"},
    {"scenario-trace-out", "PATH", "write the trace CSV actually used"},
    {"scenario-out", "PATH", "scenario-v1 JSON result"},
    {"scenario-csv", "PATH", "per-job outcome CSV"},
};

struct Section {
  const char* title;
  std::span<const FlagSpec> rows;
};

const Section kSections[] = {
    {"shared flags (defaults = the paper's testbed):", kSharedFlags},
    {"run, compare, sweep-placement and sweep-batch (artifacts never change\n"
     "results; multi-run commands derive per-run paths, e.g. trace.json ->\n"
     "trace.run-label.json):",
     kExperimentFlags},
    {"run only:", kRunFlags},
    {"scenario only:", kScenarioFlags},
};

struct Command {
  const char* name;
  const char* help;
  unsigned sections;  // bit i set = reads the flags of kSections[i]
};

constexpr Command kCommands[] = {
    {"run", "one experiment, full report", 0b0111},
    {"compare", "FIFO vs TLs-One vs TLs-RR on one configuration", 0b0011},
    {"sweep-placement", "Table I placements under every policy", 0b0011},
    {"sweep-batch", "local batch sizes {1,2,4,8,16} under every policy",
     0b0011},
    {"scenario", "trace-driven dynamic cluster: jobs arrive and depart",
     0b1001},
    {"help", "this text", 0},
};

std::string usage() {
  std::string text =
      "tlsim - TensorLights cluster simulator\n\n"
      "usage: tlsim <command> [flags]\n\ncommands:\n";
  for (const Command& c : kCommands) {
    std::string name = c.name;
    text += "  " + name + std::string(17 - name.size(), ' ') + c.help + "\n";
  }
  text +=
      "\nFlags are --name VALUE or --name=VALUE; a switch takes no value.\n"
      "Each command accepts only the flags of the sections it reads; every\n"
      "command but help reads the shared flags.\n";
  for (const Section& s : kSections) {
    text += std::string("\n") + s.title + "\n" + sim::flag_help(s.rows);
  }
  return text;
}

/// False with a message when `args` holds a positional argument or a flag
/// that `command` does not read.
bool check_command_args(const Command& command, const CliArgs& args,
                        std::string* error) {
  if (!args.positional.empty()) {
    *error = "unexpected argument '" + args.positional.front() + "'";
    return false;
  }
  for (const auto& [name, value] : args.given) {
    bool reads = false;
    for (std::size_t i = 0; i < std::size(kSections); ++i) {
      if ((command.sections >> i & 1u) == 0) continue;
      for (const FlagSpec& row : kSections[i].rows) reads |= name == row.name;
    }
    if (!reads) {
      *error = std::string(command.name) + " does not take --" + name +
               " (see tlsim help)";
      return false;
    }
  }
  return true;
}

/// The flags both configurations read: cluster size, seed, and the
/// controller and fabric knobs. The --hosts and --interval-s defaults and
/// the lower bound of --interval-s/--link-gbps differ between the paper's
/// testbed and the scenario engine.
template <typename Config>
bool build_shared(const CliArgs& args, long hosts, double interval_s,
                  double min_real, Config* config, std::string* error) {
  core::ControllerConfig& controller = config->controller;
  long seed, bands;
  double link_gbps;
  if (!args.integer("hosts", hosts, 2, 4096, &hosts, error) ||
      !args.integer("seed", 1, 0, INT64_MAX / 2, &seed, error) ||
      !args.integer("bands", 6, 1, 15, &bands, error) ||
      !args.real("interval-s", interval_s, min_real, &interval_s, error) ||
      !args.real("link-gbps", 10.0, min_real, &link_gbps, error) ||
      !args.choice("policy", core::PolicyKind::kTlsRR,
                   {{"fifo", core::PolicyKind::kFifo},
                    {"tls-one", core::PolicyKind::kTlsOne},
                    {"tls-rr", core::PolicyKind::kTlsRR}},
                   &controller.policy, error) ||
      !args.choice("strategy", core::AssignStrategy::kArrivalOrder,
                   {{"arrival", core::AssignStrategy::kArrivalOrder},
                    {"random", core::AssignStrategy::kRandom},
                    {"smallest", core::AssignStrategy::kSmallestModelFirst}},
                   &controller.strategy, error)) {
    return false;
  }
  config->num_hosts = static_cast<int>(hosts);
  config->seed = static_cast<std::uint64_t>(seed);
  config->fabric.link_rate = net::gbps(link_gbps);
  controller.max_bands = static_cast<int>(bands);
  controller.rotation_interval = sim::from_seconds(interval_s);
  // The prio data plane allows more bands than htb's 8 priority levels.
  if (bands > 8) controller.data_plane = core::DataPlane::kPrio;
  return true;
}

/// Builds the experiment configuration from flags; returns false with a
/// message on any invalid value.
bool build_config(const CliArgs& args, exp::ExperimentConfig* config,
                  std::string* error) {
  // The smallest positive double: --interval-s and --link-gbps must be > 0.
  constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  long jobs, workers, ps, batch, iters, placement;
  if (!build_shared(args, 21, 10.0, kPositive, config, error) ||
      !args.integer("jobs", 21, 1, 4096, &jobs, error) ||
      !args.integer("workers", 20, 1, 4095, &workers, error) ||
      !args.integer("ps", 1, 1, 64, &ps, error) ||
      !args.integer("batch", 4, 1, 65536, &batch, error) ||
      !args.integer("iters", 60, 1, 1000000, &iters, error) ||
      !args.integer("placement", 1, 1, 8, &placement, error)) {
    return false;
  }
  if (workers > config->num_hosts - 1) {
    *error = "--workers must be <= --hosts - 1";
    return false;
  }
  config->workload.num_jobs = static_cast<int>(jobs);
  config->workload.workers_per_job = static_cast<int>(workers);
  config->workload.ps_per_job = static_cast<int>(ps);
  config->workload.local_batch_size = static_cast<int>(batch);
  config->workload.global_step_target = workers * iters;
  config->placement =
      cluster::table1(static_cast<int>(placement), static_cast<int>(jobs));
  config->background = args.has("background");

  config->obs.trace_path = args.get("trace");
  config->obs.trace_csv_path = args.get("trace-csv");
  config->obs.metrics_path = args.get("metrics");
  config->obs.report_path = args.get("report");
  config->obs.report_csv_path = args.get("report-csv");
  config->obs.report_json_path = args.get("report-json");
  config->obs.report_html_path = args.get("report-html");
  std::string filter = args.get("trace-filter");
  if (!filter.empty() &&
      !obs::parse_categories(filter, &config->obs.trace_categories, error)) {
    return false;
  }
  std::string sample = args.get("trace-sample");
  if (!sample.empty()) {
    // Validate the spec here so a typo fails at flag parse, not mid-run;
    // the parsed rates are re-derived inside run_experiment.
    std::uint32_t every[obs::kNumCats];
    for (int i = 0; i < obs::kNumCats; ++i) every[i] = 1;
    if (!obs::parse_sampling(sample, every, error)) return false;
    config->obs.trace_sample = sample;
  }
  return true;
}

/// Host-execution options (threads / cache / progress) from flags; false
/// with a message on a malformed value.
bool build_run_options(const CliArgs& args, RunOptions* options,
                       std::string* error) {
  long threads;
  if (!args.integer("threads", 0, 0, 4096, &threads, error)) return false;
  options->jobs = static_cast<int>(threads);
  if (args.has("cache")) options->cache_dir = args.get("cache");
  if (args.has("no-cache")) options->cache_dir.clear();
  options->progress = args.has("progress");
  return true;
}

void emit(const metrics::Table& table, bool csv, std::ostream& out) {
  out << (csv ? table.csv() : table.str()) << "\n";
}

void add_result_row(metrics::Table* table, const exp::ExperimentResult& r,
                    double norm) {
  table->add_row({r.policy_name, metrics::fmt(r.avg_jct_s),
                  metrics::fmt(r.min_jct_s), metrics::fmt(r.max_jct_s),
                  metrics::fmt(norm, 3),
                  metrics::fmt(r.barrier_mean_summary.mean * 1e3, 1),
                  metrics::fmt(r.barrier_variance_summary.mean * 1e6, 0),
                  std::to_string(r.tc_commands)});
}

int cmd_run(const CliArgs& args, const exp::ExperimentConfig& config,
            const RunOptions& options, std::ostream& out,
            std::ostream& err) {
  // Any integer is accepted; fewer than one replica runs one.
  long replicas;
  std::string error;
  if (!args.integer("replicas", 1, std::numeric_limits<long>::min(),
                    std::numeric_limits<int>::max(), &replicas, &error)) {
    err << "tlsim: " << error << "\n";
    return 2;
  }
  replicas = std::max(replicas, 1L);
  RunPlan plan = RunPlan::replicated(config, static_cast<int>(replicas));
  RunReport report = run_plan(plan, options);
  std::vector<exp::ExperimentResult>& runs = report.results;
  metrics::Table table({"policy", "avg JCT (s)", "min", "max", "norm",
                        "barrier wait (ms)", "wait var (ms^2)", "tc cmds"});
  for (const auto& r : runs) add_result_row(&table, r, 1.0);
  emit(table, args.has("csv"), out);
  if (replicas > 1) {
    metrics::Summary s = exp::jct_across(runs);
    out << "avg JCT across " << replicas << " seeds: " << metrics::fmt(s.mean)
        << " +/- " << metrics::fmt(s.stddev) << " s\n";
  }
  // --export-prefix PATH writes PATH.jobs.csv / PATH.barriers.csv /
  // PATH.json for the first replica.
  std::string prefix = args.get("export-prefix");
  if (!prefix.empty()) {
    if (!obs::write_file(prefix + ".jobs.csv", exp::jobs_csv(runs.front()),
                         &error) ||
        !obs::write_file(prefix + ".barriers.csv",
                         exp::barriers_csv(runs.front()), &error) ||
        !obs::write_file(prefix + ".json", exp::to_json(runs.front()),
                         &error)) {
      err << "tlsim: export failed: " << error << "\n";
      return 1;
    }
    out << "exported " << prefix << ".{jobs.csv,barriers.csv,json}\n";
  }
  return 0;
}

int cmd_compare(const CliArgs& args, const exp::ExperimentConfig& config,
                const RunOptions& options, std::ostream& out) {
  metrics::Table table({"policy", "avg JCT (s)", "min", "max", "norm",
                        "barrier wait (ms)", "wait var (ms^2)", "tc cmds"});
  // Plan order is FIFO, TLs-One, TLs-RR; FIFO (index 0) is the baseline.
  RunReport report =
      run_plan(RunPlan::policy_comparison(config), options);
  const exp::ExperimentResult& fifo = report.results.front();
  for (const exp::ExperimentResult& r : report.results) {
    add_result_row(&table, r, exp::avg_normalized_jct(r, fifo));
  }
  emit(table, args.has("csv"), out);
  return 0;
}

/// sweep-placement (Table I indices) or sweep-batch (local batch sizes):
/// FIFO JCT and the normalized TLs JCTs per swept value.
int cmd_sweep(const CliArgs& args, const exp::ExperimentConfig& config,
              const RunOptions& options, bool placement, std::ostream& out) {
  const std::vector<int> values =
      placement ? std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}
                : std::vector<int>{1, 2, 4, 8, 16};
  const std::vector<core::PolicyKind> policies = RunPlan::default_policies();
  RunReport report = run_plan(
      placement ? RunPlan::placement_sweep(config, values, policies)
                : RunPlan::batch_sweep(config, values, policies),
      options);
  metrics::Table table({placement ? "placement" : "batch", "FIFO avg JCT (s)",
                        "TLs-One norm", "TLs-RR norm"});
  // Row-major: results[3*i + {0,1,2}] = values[i] under
  // {FIFO, TLs-One, TLs-RR}.
  for (std::size_t i = 0; i < values.size(); ++i) {
    const exp::ExperimentResult& fifo = report.results[3 * i];
    const exp::ExperimentResult& one = report.results[3 * i + 1];
    const exp::ExperimentResult& rr = report.results[3 * i + 2];
    table.add_row({(placement ? "#" : "") + std::to_string(values[i]),
                   metrics::fmt(fifo.avg_jct_s),
                   metrics::fmt(exp::avg_normalized_jct(one, fifo), 3),
                   metrics::fmt(exp::avg_normalized_jct(rr, fifo), 3)});
  }
  emit(table, args.has("csv"), out);
  return 0;
}

// ---------------------------------------------------------------------
// tlsim scenario — the dynamic-cluster workload engine front end.

bool build_scenario_config(const CliArgs& args, scenario::Config* config,
                           std::string* error) {
  scenario::TraceConfig& trace = config->trace;
  long cores, trace_seed, jobs, workers_min, workers_max, iters_min;
  long iters_max, batch, band_limit;
  double time_limit_s, sample_s;
  if (!build_shared(args, 12, 20.0, 1e-3, config, error) ||
      !args.integer("cores", 6, 1, 1024, &cores, error) ||
      !args.integer("scenario-trace-seed", 1, 0, INT64_MAX / 2, &trace_seed,
                    error) ||
      !args.integer("scenario-jobs", 100, 1, 100000, &jobs, error) ||
      !args.integer("scenario-workers-min", 2, 1, 4095, &workers_min, error) ||
      !args.integer("scenario-workers-max", 8, 1, 4095, &workers_max, error) ||
      !args.integer("scenario-iters-min", 20, 1, 1000000, &iters_min, error) ||
      !args.integer("scenario-iters-max", 80, 1, 1000000, &iters_max, error) ||
      !args.integer("scenario-batch", 4, 1, 65536, &batch, error) ||
      !args.integer("scenario-band-limit", -1, -1, 4096, &band_limit, error) ||
      !args.real("scenario-mean-s", 30.0, 1e-6, &trace.mean_interarrival_s,
                 error) ||
      !args.real("scenario-pareto-alpha", 1.5, 1e-6, &trace.pareto_alpha,
                 error) ||
      !args.real("scenario-pareto-min-s", 2.0, 1e-6, &trace.pareto_min_s,
                 error) ||
      !args.real("scenario-pareto-max-s", 600.0, 1e-6, &trace.pareto_max_s,
                 error) ||
      !args.real("scenario-evict-frac", 0.0, 0.0, &trace.evict_fraction,
                 error) ||
      !args.real("scenario-evict-min-s", 30.0, 1e-6, &trace.evict_min_s,
                 error) ||
      !args.real("scenario-evict-max-s", 300.0, 1e-6, &trace.evict_max_s,
                 error) ||
      !args.real("scenario-time-limit-s", 14400.0, 1.0, &time_limit_s, error) ||
      !args.real("scenario-sample-s", 10.0, 0.0, &sample_s, error) ||
      !args.choice("scenario-arrivals", scenario::ArrivalProcess::kPoisson,
                   {{"poisson", scenario::ArrivalProcess::kPoisson},
                    {"pareto", scenario::ArrivalProcess::kParetoBounded}},
                   &trace.process, error) ||
      !args.choice("scenario-admission", cluster::AdmissionPolicy::kShareBand,
                   {{"share", cluster::AdmissionPolicy::kShareBand},
                    {"queue", cluster::AdmissionPolicy::kQueue},
                    {"reject", cluster::AdmissionPolicy::kReject}},
                   &config->admission, error)) {
    return false;
  }
  config->cores_per_host = static_cast<int>(cores);
  config->ps_band_limit = static_cast<int>(band_limit);
  config->time_limit = sim::from_seconds(time_limit_s);
  config->sample_period = sim::from_seconds(sample_s);
  std::string models = args.get("scenario-models");
  if (!models.empty() &&
      !scenario::parse_model_mix(models, &trace.models, error)) {
    *error = "bad --scenario-models: " + *error;
    return false;
  }

  trace.num_jobs = static_cast<int>(jobs);
  trace.min_workers = static_cast<int>(workers_min);
  trace.max_workers = static_cast<int>(workers_max);
  trace.min_iterations = iters_min;
  trace.max_iterations = iters_max;
  trace.local_batch_size = static_cast<int>(batch);
  trace.seed = static_cast<std::uint64_t>(trace_seed);
  if (workers_min > workers_max) {
    *error = "--scenario-workers-min must be <= --scenario-workers-max";
    return false;
  }
  if (iters_min > iters_max) {
    *error = "--scenario-iters-min must be <= --scenario-iters-max";
    return false;
  }
  if (trace.evict_fraction > 1.0) {
    *error = "--scenario-evict-frac must be <= 1";
    return false;
  }
  config->metrics_path = args.get("metrics");

  std::string trace_path = args.get("scenario-trace");
  if (!trace_path.empty()) {
    std::ifstream in(trace_path, std::ios::binary);
    if (!in) {
      *error = "cannot open --scenario-trace file: " + trace_path;
      return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!scenario::parse_trace_csv(buffer.str(), &config->replay, error)) {
      return false;
    }
  }
  return true;
}

void add_scenario_row(metrics::Table* table, const std::string& label,
                      const scenario::Result& r) {
  table->add_row({label, std::to_string(r.jobs.size()),
                  std::to_string(r.completed), std::to_string(r.evicted),
                  std::to_string(r.rejected), std::to_string(r.unfinished),
                  metrics::fmt(r.jct.mean), metrics::fmt(r.jct.p99),
                  metrics::fmt(r.queue_wait.mean),
                  std::to_string(r.peak_ps_colocation),
                  metrics::fmt(r.cluster_cpu_util, 3),
                  std::to_string(r.rotations),
                  std::to_string(r.tc_commands)});
}

int cmd_scenario(const CliArgs& args, const RunOptions& options,
                 std::ostream& out, std::ostream& err) {
  scenario::Config config;
  std::string error;
  if (!build_scenario_config(args, &config, &error)) {
    err << "tlsim: " << error << "\n";
    return 2;
  }

  std::string trace_out = args.get("scenario-trace-out");
  if (!trace_out.empty()) {
    scenario::Trace trace = config.replay.jobs.empty()
                                ? scenario::generate_trace(config.trace)
                                : config.replay;
    if (!obs::write_file(trace_out, scenario::trace_csv(trace), &error)) {
      err << "tlsim: trace export failed: " << error << "\n";
      return 1;
    }
  }

  ScenarioPlan plan;
  if (args.has("scenario-compare")) {
    plan = ScenarioPlan::policy_comparison(config);
  } else {
    plan.add(core::to_string(config.controller.policy), config);
  }
  ScenarioReport report = run_scenario_plan(plan, options.jobs);

  metrics::Table table({"policy", "jobs", "done", "evict", "rej", "unfin",
                        "mean JCT (s)", "p99 JCT", "mean wait (s)",
                        "peak coloc", "cpu util", "rotations", "tc cmds"});
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    add_scenario_row(&table, report.labels[i], report.results[i]);
  }
  emit(table, args.has("csv"), out);

  // Multi-policy runs derive per-run paths (r.json -> r.<label>.json).
  using Render = std::string (*)(const scenario::Result&);
  const std::pair<std::string, Render> exports[] = {
      {args.get("scenario-out"), scenario::scenario_json},
      {args.get("scenario-csv"), scenario::scenario_csv}};
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    for (const auto& [base, render] : exports) {
      if (base.empty()) continue;
      std::string path = report.results.size() > 1
                             ? obs::per_run_path(base, report.labels[i])
                             : base;
      if (!obs::write_file(path, render(report.results[i]), &error)) {
        err << "tlsim: scenario export failed: " << error << "\n";
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace

bool parse_args(const std::vector<std::string>& raw, CliArgs* out,
                std::string* error) {
  static const std::vector<FlagSpec> all = [] {
    std::vector<FlagSpec> rows;
    for (const Section& s : kSections) {
      rows.insert(rows.end(), s.rows.begin(), s.rows.end());
    }
    return rows;
  }();
  return out->parse(raw, all, error);
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  // The command comes first; "tlsim" alone and "tlsim --help" mean help.
  std::string name = args.empty() ? "help" : args.front();
  if (name == "--help") name = "help";
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    if (name == c.name) command = &c;
  }
  if (command == nullptr) {
    err << "tlsim: unknown command '" << name << "'\n" << usage();
    return 2;
  }
  CliArgs parsed;
  std::string error;
  RunOptions options;
  if (!parse_args({args.begin() + (args.empty() ? 0 : 1), args.end()},
                  &parsed, &error) ||
      !check_command_args(*command, parsed, &error) ||
      !build_run_options(parsed, &options, &error)) {
    err << "tlsim: " << error << "\n";
    return 2;
  }
  if (name == "help") {
    out << usage();
    return 0;
  }

  // A failed artifact write inside a run surfaces as an exception.
  try {
    // The scenario command has its own configuration surface (dynamic
    // cluster, not the static testbed), so it skips build_config.
    if (name == "scenario") return cmd_scenario(parsed, options, out, err);

    exp::ExperimentConfig config;
    if (!build_config(parsed, &config, &error)) {
      err << "tlsim: " << error << "\n";
      return 2;
    }
    if (name == "run") return cmd_run(parsed, config, options, out, err);
    if (name == "compare") return cmd_compare(parsed, config, options, out);
    return cmd_sweep(parsed, config, options, name == "sweep-placement", out);
  } catch (const std::exception& e) {
    err << "tlsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace tls::runtime
