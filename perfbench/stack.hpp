// The simulator stacks rebuilt from public APIs, with spans around the
// calls into each layer. exp::run_experiment and scenario::run_scenario
// are mirrored component for component, so a rebuilt run dispatches the
// same events and produces the same JCTs as the entry point on the same
// configuration; the driver checks exactly that.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "net/fabric.hpp"
#include "scenario/engine.hpp"

namespace perfbench {

namespace net = tls::net;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// One timed interval around a call into a layer. `parent` indexes the
/// enclosing span (-1 at top level); spans of one simulation share `sim`.
struct Span {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int sim = 0;
};

/// In-memory span recorder; written out once when the benchmark ends.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void set_sim(int sim) { sim_ = sim; }
  int begin(const char* name);
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of durations of spans called `name` from index `first` on.
  double total(const char* name, std::size_t first = 0) const;
  /// Same, minus the time their direct children cover.
  double self_total(const char* name, std::size_t first = 0) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int sim_ = 0;
};

/// RAII span; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->begin(name) : -1) {}
  ~Scope() {
    if (log_) log_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Per-job outcome compared bit for bit against the entry point.
struct JobTime {
  std::int32_t job_id = 0;
  double jct_s = -1;
  std::int64_t iterations = 0;
};

/// What one rebuilt simulation produced.
struct Rebuilt {
  std::uint64_t sim_events = 0;
  std::vector<JobTime> jobs;
  std::vector<std::string> tc_history;
  net::FabricConfig fabric;
  /// Deterministic per-layer counters of this simulation.
  std::map<std::string, double> counts;
  /// Host-time per-layer readings of this simulation (seconds unless the
  /// name says otherwise).
  std::map<std::string, double> times;
  /// Streaming attribution report (traced runs only).
  std::string report_text;
  std::string report_json;
  /// Checks that need the live stack (chunk conservation, streaming vs
  /// batch attribution); empty when all passed.
  std::vector<std::string> failures;
};

/// Mirrors exp::run_experiment. Supports the configurations the benchmark
/// uses: one PS per job, no background traffic, no coordinator, no sampling
/// or metrics export. When config.obs asks for a report, a tracer is
/// attached, the streaming report is rendered in memory instead of written,
/// and the batch obs::analyze report must equal it.
Rebuilt rebuild_experiment(const tls::exp::ExperimentConfig& config,
                           SpanLog* spans);

/// Mirrors scenario::run_scenario for a config with a replay trace.
/// `outcomes` receives the per-job statuses in trace order.
Rebuilt rebuild_scenario(const tls::scenario::Config& config, SpanLog* spans,
                         std::vector<tls::scenario::JobOutcome>* outcomes);

/// Replays a tc history through tc::parse_command and
/// TrafficControl::apply on a fresh fabric. Returns the failing lines.
std::vector<std::string> replay_tc(const std::vector<std::string>& history,
                                   const net::FabricConfig& fabric,
                                   double* seconds);

}  // namespace perfbench
