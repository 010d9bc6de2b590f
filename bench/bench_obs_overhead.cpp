// Observability overhead on the Figure-2 sweep: the same eight-placement
// FIFO run timed three ways —
//   off       no obs options; the tracer is never constructed, emission
//             sites cost one null-pointer check
//   disabled  tracer attached with an empty category mask and no registry
//             (the --trace-filter none path): sites additionally call
//             active() and skip
//   enabled   full event log + metrics registry + artifact export
//
// The three modes run as kRounds interleaved rounds, the order reversed
// every other round (off, disabled, enabled, then enabled, disabled, off),
// so drift on the host falls on every mode alike. Each mode reports the
// median and min-max of its sweep wall times, and the overhead columns
// compare medians. They are a report, not a gate: wall time on a shared
// host is too noisy to hold a 2% bar. That an inert tracer changes nothing
// is gated exactly, on event counts and JCTs, by the ctest
// ObsDeterminism.ArtifactsDoNotPerturbResults. Results land in
// BENCH_obs_overhead.json alongside the usual bench timing files.
#include <algorithm>
#include <array>
#include <chrono>  // host wall timing only — bench/ is outside the src/ lint
#include <filesystem>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Runs the fig2 sweep once with whatever obs options `decorate` installs
/// and returns the wall seconds. Caching is forced off so every mode pays
/// for real simulation work.
template <typename Decorate>
double timed_sweep(Decorate decorate) {
  using namespace tls;
  std::vector<exp::ExperimentConfig> configs;
  for (int index = 1; index <= 8; ++index) {
    exp::ExperimentConfig c = bench::paper_config();
    c.placement = cluster::table1(index, 21);
    c.controller.policy = core::PolicyKind::kFifo;
    decorate(c, index);
    configs.push_back(std::move(c));
  }
  runtime::RunPlan plan;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    plan.add("p" + std::to_string(i + 1), configs[i]);
  }
  runtime::RunOptions options;
  options.jobs = static_cast<int>(tls::bench::bench_jobs());
  options.cache_dir = "";  // cached runs would make the comparison vacuous
  options.progress = tls::bench::env_long("TLS_BENCH_PROGRESS", 0) != 0;
  Clock::time_point t0 = Clock::now();
  runtime::run_plan(plan, options);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kRounds = 5;

/// Median and range of one mode's sweep wall times.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> wall_s) {
  std::sort(wall_s.begin(), wall_s.end());
  return {wall_s[wall_s.size() / 2], wall_s.front(), wall_s.back()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tls;
  bench::init(argc, argv);
  bench::print_header(
      "Observability overhead - fig2 sweep: off vs disabled vs enabled",
      "trace/metrics hooks must be free when not requested");

  const std::string out_dir = "obs_overhead_artifacts";
  std::filesystem::create_directories(out_dir);

  enum Mode { kOff, kDisabled, kEnabled, kModes };
  auto run_mode = [&](int mode) {
    switch (mode) {
      case kOff:
        return timed_sweep([](exp::ExperimentConfig&, int) {});
      case kDisabled:
        return timed_sweep([&](exp::ExperimentConfig& c, int) {
          // Artifact requested but every category masked off and no
          // metrics: the tracer is attached yet inert, the
          // --trace-filter none path.
          c.obs.trace_path = out_dir + "/disabled.json";
          c.obs.trace_categories = 0;
          c.obs.sample_period = tls::sim::Time{0};
        });
      default:
        return timed_sweep([&](exp::ExperimentConfig& c, int) {
          c.obs.trace_path = out_dir + "/trace.json";
          c.obs.metrics_path = out_dir + "/metrics.csv";
          // Cap the in-memory event log so eight concurrent paper-scale
          // runs stay bounded; drops are counted, emission work still
          // happens.
          c.obs.max_events = 250'000;
        });
    }
  };
  std::array<std::vector<double>, kModes> wall_s;
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kModes; ++k) {
      const int mode = round % 2 == 0 ? k : kModes - 1 - k;
      wall_s[static_cast<std::size_t>(mode)].push_back(run_mode(mode));
    }
  }
  const Spread off = spread(wall_s[kOff]);
  const Spread disabled = spread(wall_s[kDisabled]);
  const Spread enabled = spread(wall_s[kEnabled]);

  double disabled_frac =
      off.median > 0 ? (disabled.median - off.median) / off.median : 0;
  double enabled_frac =
      off.median > 0 ? (enabled.median - off.median) / off.median : 0;

  auto range = [](const Spread& s) {
    return metrics::fmt(s.min, 2) + "-" + metrics::fmt(s.max, 2);
  };
  metrics::Table table(
      {"mode", "median wall (s)", "min-max (s)", "overhead vs off"});
  table.add_row({"off", metrics::fmt(off.median, 2), range(off), "-"});
  table.add_row({"disabled", metrics::fmt(disabled.median, 2), range(disabled),
                 metrics::fmt_percent(disabled_frac, 1)});
  table.add_row({"enabled", metrics::fmt(enabled.median, 2), range(enabled),
                 metrics::fmt_percent(enabled_frac, 1)});
  std::printf("%d interleaved rounds per mode\n%s\n", kRounds,
              table.str().c_str());
  std::printf(
      "Disabled vs off: %+.1f%% median wall clock (report only; an inert "
      "tracer is gated on exact event counts and JCTs by the ctest "
      "ObsDeterminism.ArtifactsDoNotPerturbResults)\n",
      100.0 * disabled_frac);

  const char* dir = std::getenv("TLS_BENCH_JSON_DIR");
  std::string path =
      std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
      "/BENCH_obs_overhead.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"obs_overhead\",\n"
                 "  \"wall_s_off_median\": %.6f,\n"
                 "  \"wall_s_off_min\": %.6f,\n"
                 "  \"wall_s_off_max\": %.6f,\n"
                 "  \"wall_s_disabled_median\": %.6f,\n"
                 "  \"wall_s_disabled_min\": %.6f,\n"
                 "  \"wall_s_disabled_max\": %.6f,\n"
                 "  \"wall_s_enabled_median\": %.6f,\n"
                 "  \"wall_s_enabled_min\": %.6f,\n"
                 "  \"wall_s_enabled_max\": %.6f,\n"
                 "  \"overhead_disabled_frac\": %.6f,\n"
                 "  \"overhead_enabled_frac\": %.6f,\n"
                 "  \"reps\": %d,\n"
                 "  \"runs_per_mode\": 8,\n"
                 "  \"jobs\": %lld,\n"
                 "  \"iters\": %lld,\n"
                 "  \"seed\": %llu\n"
                 "}\n",
                 off.median, off.min, off.max, disabled.median, disabled.min,
                 disabled.max, enabled.median, enabled.min, enabled.max,
                 disabled_frac, enabled_frac, kRounds,
                 static_cast<long long>(bench::resolved_jobs()),
                 static_cast<long long>(bench::bench_iters()),
                 static_cast<unsigned long long>(bench::bench_seed()));
    std::fclose(f);
  }
  return 0;
}
