// perfbench_driver: runs one benchmark workload for a fixed host-time
// budget and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out-dir DIR [--size full|tiny] [--corrupt]
//
// --trace 0 times the program's entry points (tls::exp::run_experiment,
// scenario::run_scenario) and prints the end-to-end metrics. --trace 1
// also runs the stack rebuilt from public APIs (stack.hpp) with spans
// around each layer and prints the per-layer metrics. Both check every
// simulation's outputs; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --corrupt shifts one
// expected value so the self-test can see a check fire.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "scenario/engine.hpp"
#include "scenario/trace.hpp"
#include "stack.hpp"

// Live-heap accounting for the memory metric. Every C++ allocation in the
// process goes through the operators below; they count only while
// `g_heap.on`, which run_entry sets around each entry-point call. Counting
// costs about 3% of run_s on paper_fifo. Peak RSS is not used: it is the
// maximum over a run's simulations and varies by a third with the seed.
namespace {

struct HeapCount {
  bool on = false;
  std::int64_t live = 0;
  std::int64_t peak = 0;
} g_heap;

void* counted_alloc(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr && g_heap.on) {
    g_heap.live += static_cast<std::int64_t>(malloc_usable_size(p));
    g_heap.peak = std::max(g_heap.peak, g_heap.live);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr && g_heap.on) {
    g_heap.live -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

}  // namespace

// Every replaceable non-aligned form is replaced, so no allocation made by
// one of these is released by a library default (or a sanitizer's).
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace sim = tls::sim;
namespace scenario = tls::scenario;
using perfbench::Clock;
using perfbench::Rebuilt;
using perfbench::seconds_between;

namespace {

/// Simulations whose counters feed the deterministic metrics (counts and
/// sim_jct_s); every run makes at least this many.
constexpr int kReferenceSims = 3;
/// Set-ups measured before each simulation; setup_s is their median over
/// the run, so it samples the host's speed over the whole run as run_s does.
constexpr int kSetupsPerSim = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  bool tiny = false;
  bool corrupt = false;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seed of stream `stream` of simulation `index` under workload seed `seed`.
std::uint64_t derive(std::uint64_t seed, int index, int stream) {
  return mix(mix(seed) ^ (static_cast<std::uint64_t>(index) * 2 + stream));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Host-speed calibration for the untraced timings. Other tenants of the
/// host slow the simulator by up to 1.6x over stretches of seconds to tens
/// of minutes. This fixed kernel slows with them: random read-modify-writes
/// over a cache-sized and a memory-sized table, then a small discrete-event
/// loop (a binary heap, std::function handlers, small allocations). It is
/// the benchmark's own code, so no change to the program moves it.
class Calibration {
 public:
  /// Normalized times are host seconds scaled to a host on which one pass
  /// takes this long; a pass took 0.04-0.05 s on the 4-vCPU KVM guest the
  /// benchmark was written on.
  static constexpr double kReferenceS = 0.05;

  Calibration() : small_(std::size_t{1} << 19), large_(std::size_t{1} << 23) {}

  /// Host seconds of one pass.
  double pass() {
    Clock::time_point t0 = Clock::now();
    std::uint64_t x = 1;
    sink_ = walk(small_, 1'000'000, x) + walk(large_, 500'000, x) +
            events(200'000, x);
    return seconds_between(t0, Clock::now());
  }

 private:
  static std::uint64_t next(std::uint64_t& x) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 20;
  }

  static std::uint64_t walk(std::vector<std::uint64_t>& table, int n,
                            std::uint64_t& x) {
    const std::uint64_t mask = table.size() - 1;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) sum += table[next(x) & mask]++;
    return sum;
  }

  static std::uint64_t events(int n, std::uint64_t& x) {
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
    std::vector<std::unique_ptr<std::uint64_t[]>> objects(1 << 14);
    std::vector<std::function<void(std::uint32_t)>> handlers;
    for (std::uint32_t k = 0; k < 8; ++k) {
      handlers.push_back([&objects, k](std::uint32_t id) {
        auto& o = objects[(id * 2654435761u + k) & (objects.size() - 1)];
        o = std::make_unique<std::uint64_t[]>(8 + (id & 15));
        o[0] = id;
      });
    }
    for (std::uint32_t id = 0; id < 20'000; ++id) queue.push({next(x), id});
    for (int i = 0; i < n; ++i) {
      Event e = queue.top();
      queue.pop();
      handlers[e.second & 7](e.second);
      queue.push({e.first + (next(x) & 0xfffff) + 1, e.second});
    }
    return queue.top().first;
  }

  std::vector<std::uint64_t> small_;
  std::vector<std::uint64_t> large_;
  volatile std::uint64_t sink_ = 0;
};

/// One workload: which entry point, and its configuration for one
/// simulation.
struct Workload {
  bool churn = false;
  tls::exp::ExperimentConfig paper;
  scenario::Config scenario;
};

tls::exp::ExperimentConfig paper_config(const std::string& name, bool tiny,
                                        std::uint64_t seed,
                                        const std::string& report_base) {
  tls::exp::ExperimentConfig c;
  c.seed = seed;
  int jobs = tiny ? 5 : 21;
  int iterations = name == "traced_report" ? 20 : 60;
  if (tiny) iterations = 4;
  c.num_hosts = jobs;
  c.workload.num_jobs = jobs;
  c.workload.workers_per_job = tiny ? 4 : 20;
  c.workload.local_batch_size = 4;
  c.workload.global_step_target = iterations * c.workload.workers_per_job;
  c.placement = tls::cluster::table1(1, jobs);
  c.stagger = 100 * sim::kMillisecond;
  if (name == "paper_fifo") {
    c.controller.policy = tls::core::PolicyKind::kFifo;
  } else if (name == "paper_tlsrr") {
    c.controller.policy = tls::core::PolicyKind::kTlsRR;
    c.controller.rotation_interval = 10 * sim::kSecond;
  } else {
    c.controller.policy = tls::core::PolicyKind::kTlsOne;
    c.obs.report_path = report_base + ".txt";
    c.obs.report_json_path = report_base + ".json";
  }
  return c;
}

/// The churn trace is generated here, so the engine receives only the
/// trace; `gen_s` receives the generation time.
scenario::Config churn_config(bool tiny, std::uint64_t trace_seed,
                              std::uint64_t seed, double* gen_s) {
  scenario::Config c;
  c.num_hosts = 4;
  c.cores_per_host = 6;
  c.fabric.link_rate = tls::net::gbps(2.5);
  c.admission = tls::cluster::AdmissionPolicy::kShareBand;
  c.controller.policy = tls::core::PolicyKind::kTlsRR;
  c.controller.rotation_interval = 1 * sim::kSecond;
  c.seed = seed;
  scenario::TraceConfig t;
  t.num_jobs = tiny ? 10 : 300;
  t.mean_interarrival_s = 0.5;
  t.min_workers = 2;
  t.max_workers = 3;
  t.min_iterations = 20;
  t.max_iterations = 40;
  t.local_batch_size = 1;
  t.evict_fraction = 0.2;
  t.evict_min_s = 2;
  t.evict_max_s = 12;
  t.seed = trace_seed;
  Clock::time_point t0 = Clock::now();
  c.replay = scenario::generate_trace(t);
  *gen_s = seconds_between(t0, Clock::now());
  return c;
}

Workload make_workload(const Options& o, int index, double* gen_s) {
  Workload w;
  *gen_s = 0;
  if (o.workload == "churn_burst") {
    w.churn = true;
    w.scenario = churn_config(o.tiny, derive(o.seed, index, 0),
                              derive(o.seed, index, 1), gen_s);
  } else {
    // Simulation 0 keeps its own report files: the untraced run compares
    // them with the rebuilt stack after the timed window.
    std::string base = o.out_dir + "/" + o.workload + ".report" +
                       (index == 0 ? ".ref" : "");
    w.paper = paper_config(o.workload, o.tiny, derive(o.seed, index, 1), base);
  }
  return w;
}

/// What the entry point reported for one simulation.
struct EntryRun {
  double run_s = 0;
  double peak_heap_mb = 0;
  double horizon_s = 0;
  double mean_jct_s = 0;
  tls::exp::ExperimentResult paper;
  scenario::Result churn;
};

EntryRun run_entry(const Workload& w) {
  EntryRun e;
  g_heap = HeapCount{true, 0, 0};
  Clock::time_point t0 = Clock::now();
  if (w.churn) {
    e.churn = scenario::run_scenario(w.scenario);
  } else {
    e.paper = tls::exp::run_experiment(w.paper);
  }
  e.run_s = seconds_between(t0, Clock::now());
  g_heap.on = false;
  e.peak_heap_mb = static_cast<double>(g_heap.peak) / 1e6;
  e.horizon_s = w.churn ? e.churn.horizon_s : e.paper.sim_horizon_s;
  e.mean_jct_s = w.churn ? e.churn.jct.mean : e.paper.avg_jct_s;
  return e;
}

/// Checks on the entry point's own outputs.
void check_entry(const Workload& w, const EntryRun& e,
                 std::vector<std::string>& fail) {
  if (w.churn) {
    const scenario::Result& r = e.churn;
    std::size_t n = w.scenario.replay.jobs.size();
    if (!r.trace_drained) fail.push_back("trace not drained");
    if (r.jobs.size() != n ||
        r.completed + r.evicted + r.rejected + r.unfinished != n) {
      fail.push_back("outcome counts do not sum to the trace length");
    }
    if (r.completed == 0 || !(r.jct.mean > 0)) fail.push_back("no JCTs");
  } else {
    const tls::exp::ExperimentResult& r = e.paper;
    if (!r.all_finished) fail.push_back("not all jobs finished");
    if (static_cast<int>(r.jobs.size()) != w.paper.workload.num_jobs) {
      fail.push_back("job count");
    }
    for (const tls::exp::JobResult& j : r.jobs) {
      if (!j.finished || !(j.jct_s > 0)) {
        fail.push_back("job " + std::to_string(j.job_id) + " has no JCT");
      }
    }
  }
  if (!(e.horizon_s > 0)) fail.push_back("simulated horizon is 0");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Checks that the rebuilt stack reproduced the entry point, its tc
/// history re-applies, and the data plane conserved chunks. Returns the
/// tc replay time.
double check_rebuilt(const Options& o, const Workload& w, const EntryRun& e,
                     const Rebuilt& r,
                     const std::vector<scenario::JobOutcome>& outcomes,
                     std::vector<std::string>& fail) {
  fail.insert(fail.end(), r.failures.begin(), r.failures.end());
  std::uint64_t expected_events =
      (w.churn ? e.churn.sim_events : e.paper.sim_events) + (o.corrupt ? 1 : 0);
  if (r.sim_events != expected_events) {
    fail.push_back("rebuilt stack dispatched " + std::to_string(r.sim_events) +
                   " events, entry point " + std::to_string(expected_events));
  }
  std::uint64_t tc_commands =
      w.churn ? e.churn.tc_commands : e.paper.tc_commands;
  std::uint64_t rotations = w.churn ? e.churn.rotations : e.paper.rotations;
  if (r.tc_history.size() != tc_commands ||
      r.counts.at("tensorlights.rotations") != static_cast<double>(rotations)) {
    fail.push_back("tc command or rotation count differs");
  }
  if (w.churn) {
    bool same = outcomes.size() == e.churn.jobs.size() &&
                r.counts.at("cluster.peak_ps_colocation") ==
                    e.churn.peak_ps_colocation;
    for (std::size_t i = 0; same && i < outcomes.size(); ++i) {
      const scenario::JobOutcome& a = outcomes[i];
      const scenario::JobOutcome& b = e.churn.jobs[i];
      same = a.job_id == b.job_id && a.status == b.status &&
             a.jct_s == b.jct_s && a.finish_s == b.finish_s;
    }
    if (!same) fail.push_back("rebuilt job outcomes differ");
  } else {
    bool same = r.jobs.size() == e.paper.jobs.size();
    for (std::size_t i = 0; same && i < r.jobs.size(); ++i) {
      same = r.jobs[i].job_id == e.paper.jobs[i].job_id &&
             r.jobs[i].jct_s == e.paper.jobs[i].jct_s &&
             r.jobs[i].iterations == e.paper.jobs[i].iterations;
    }
    if (!same) fail.push_back("rebuilt JCTs differ");
    if (w.paper.obs.report_any() &&
        (read_file(w.paper.obs.report_path) != r.report_text ||
         read_file(w.paper.obs.report_json_path) != r.report_json)) {
      fail.push_back("rebuilt report differs from the entry point's files");
    }
  }
  double replay_s = 0;
  for (const std::string& line :
       perfbench::replay_tc(r.tc_history, r.fabric, &replay_s)) {
    fail.push_back("tc line does not re-apply: " + line);
  }
  return replay_s;
}

Rebuilt rebuild(const Workload& w, perfbench::SpanLog* spans,
                std::vector<scenario::JobOutcome>* outcomes) {
  return w.churn ? perfbench::rebuild_scenario(w.scenario, spans, outcomes)
                 : perfbench::rebuild_experiment(w.paper, spans);
}

/// Host seconds to set up one simulation: input generation plus the entry
/// point under a zero time limit, which builds every component, schedules
/// the first events and returns without dispatching one. The work after its
/// event loop, gathering an empty result, is timed too but is small. The
/// report is switched off here: rendering and writing an empty one would
/// take about four fifths of traced_report's figure, and dropping it leaves
/// out only the tracer's construction.
double measure_setup(const Options& o, int index) {
  double gen_s = 0;
  Workload w = make_workload(o, index, &gen_s);
  w.paper.obs = tls::exp::ObsOptions{};
  w.paper.time_limit = sim::Time{0};
  w.scenario.time_limit = sim::Time{0};
  Clock::time_point t0 = Clock::now();
  std::uint64_t events = w.churn ? scenario::run_scenario(w.scenario).sim_events
                                 : tls::exp::run_experiment(w.paper).sim_events;
  double s = seconds_between(t0, Clock::now());
  if (events != 0) throw std::logic_error("set-up run dispatched events");
  return gen_s + s;
}

// ---- Output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           fmt(metrics[i].value) + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Per-simulation samples of the traced run, for perfbench/diff.py.
std::string samples_json(const Options& o,
                         const std::map<std::string, double>& counts,
                         const std::map<std::string, std::vector<double>>& t) {
  std::string out = "{\"workload\": " + json_string(o.workload) +
                    ", \"seed\": " + std::to_string(o.seed) + ", \"counts\": {";
  bool first = true;
  for (const auto& [name, v] : counts) {
    out += (first ? "" : ", ") + json_string(name) + ": " + fmt(v);
    first = false;
  }
  out += "}, \"times\": {";
  first = true;
  for (const auto& [name, samples] : t) {
    out += (first ? "" : ", ") + json_string(name) + ": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      out += (i ? ", " : "") + fmt(samples[i]);
    }
    out += "]";
    first = false;
  }
  return out + "}}\n";
}

std::string spans_json(const perfbench::SpanLog& log) {
  std::string out = "[\n";
  const std::vector<perfbench::Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    out += "{\"id\": " + std::to_string(i) + ", \"sim\": " +
           std::to_string(s.sim) + ", \"name\": " + json_string(s.name) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"start_s\": " + fmt(s.start_s) + ", \"end_s\": " +
           fmt(s.end_s) + "}" + (i + 1 < spans.size() ? ",\n" : "\n");
  }
  return out + "]\n";
}

/// Per-layer metric names and units, in report order. Layers that do no
/// work in a workload report 0.
const std::vector<std::pair<const char*, const char*>>& layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"simcore.events", "count"},
      {"simcore.scheduled", "count"},
      {"simcore.cancelled", "count"},
      {"simcore.tombstones_skipped", "count"},
      {"simcore.overflow_pulls", "count"},
      {"simcore.window_jumps", "count"},
      {"simcore.loop_s", "s"},
      {"simcore.loop_ns_per_event", "ns"},
      {"simcore.events_per_loop_s", "1/s"},
      {"net.egress_chunks", "count"},
      {"net.ingress_chunks", "count"},
      {"net.qdisc_chunks_sent", "count"},
      {"net.ff_promotions", "count"},
      {"net.ff_polls", "count"},
      {"net.ff_hit_rate", "ratio"},
      {"net.htb_green_sends", "count"},
      {"net.htb_yellow_sends", "count"},
      {"net.htb_overlimits", "count"},
      {"net.peak_egress_backlog_mb", "MB"},
      {"tc.commands", "count"},
      {"tc.apply_us_per_command", "us"},
      {"tensorlights.rotations", "count"},
      {"tensorlights.listener_s", "s"},
      {"dl.iterations", "count"},
      {"dl.barrier_wait_s.mean", "s"},
      {"dl.barrier_wait_var_s2.mean", "s2"},
      {"cluster.launch_s", "s"},
      {"workload.gen_s", "s"},
      {"cluster.peak_ps_colocation", "count"},
      {"scenario.completed", "count"},
      {"scenario.evicted", "count"},
      {"scenario.rejected", "count"},
      {"scenario.unfinished", "count"},
      {"scenario.events_per_s", "1/s"},
      {"obs.trace_events", "count"},
      {"obs.trace_mb", "MB"},
      {"obs.peak_retained_records", "count"},
      {"obs.emit_overhead", "ratio"},
      {"obs.ingest_ns_per_event", "ns"},
      {"obs.finish_s", "s"},
      {"obs.render_s", "s"},
      {"bench.trace_overhead", "ratio"},
  };
  return names;
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o->workload = next();
    else if (a == "--seed") o->seed = std::stoull(next());
    else if (a == "--seconds") o->seconds = std::stod(next());
    else if (a == "--trace") o->trace = next() == "1";
    else if (a == "--out-dir") o->out_dir = next();
    else if (a == "--size") o->tiny = next() == "tiny";
    else if (a == "--corrupt") o->corrupt = true;
    else return false;
  }
  return o->workload == "paper_fifo" || o->workload == "paper_tlsrr" ||
         o->workload == "churn_burst" || o->workload == "traced_report";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload paper_fifo|paper_tlsrr|"
                 "churn_burst|traced_report --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR [--size tiny] [--corrupt]\n");
    return 2;
  }

  std::vector<bool> sim_failed;
  std::vector<double> run_s, norm_run_s, norm_sim_rate, cal_s, heap_mb,
      setup_s, ref_jct, rebuilt_run_s;
  // Untraced runs time a calibration pass after each simulation; a
  // simulation's time is normalized by the mean of the passes either side.
  std::optional<Calibration> calibration;
  if (!o.trace) {
    calibration.emplace();
    cal_s.push_back(calibration->pass());
  }
  std::map<std::string, double> count_sum;
  std::map<std::string, std::vector<double>> times;
  perfbench::SpanLog spans;
  EntryRun reference;
  Workload reference_workload;

  Clock::time_point start = Clock::now();
  for (int i = 0; i < kReferenceSims ||
                  seconds_between(start, Clock::now()) < o.seconds;
       ++i) {
    for (int k = 0; k < kSetupsPerSim; ++k) {
      setup_s.push_back(measure_setup(o, 1000 + i * kSetupsPerSim + k));
    }
    double gen_s = 0;
    Workload w = make_workload(o, i, &gen_s);
    // The traced run alternates which of the pair goes first, so neither
    // side of bench.trace_overhead always runs on a cold heap.
    EntryRun e;
    Rebuilt r;
    std::vector<scenario::JobOutcome> outcomes;
    spans.set_sim(i);
    if (o.trace && i % 2) r = rebuild(w, &spans, &outcomes);
    e = run_entry(w);
    if (o.trace && i % 2 == 0) r = rebuild(w, &spans, &outcomes);
    std::vector<std::string> fail;
    check_entry(w, e, fail);
    run_s.push_back(e.run_s);
    if (!o.trace) {
      cal_s.push_back(calibration->pass());
      double host = (cal_s[cal_s.size() - 2] + cal_s.back()) / 2;
      double norm = e.run_s * Calibration::kReferenceS / host;
      norm_run_s.push_back(norm);
      norm_sim_rate.push_back(e.horizon_s / norm);
    }
    heap_mb.push_back(e.peak_heap_mb);
    if (i < kReferenceSims) ref_jct.push_back(e.mean_jct_s);

    if (o.trace) {
      double replay_s = check_rebuilt(o, w, e, r, outcomes, fail);
      auto& t = r.times;
      t["workload.gen_s"] += gen_s;
      t["tc.apply_us_per_command"] =
          r.tc_history.empty() ? 0 : replay_s * 1e6 / r.tc_history.size();
      t["scenario.events_per_s"] =
          w.churn ? static_cast<double>(r.sim_events) / t["run_s"] : 0;
      if (!w.churn && w.paper.obs.any()) {
        // The same simulation without a tracer: the emission overhead,
        // and a check that tracing does not perturb the simulation.
        tls::exp::ExperimentConfig plain = w.paper;
        plain.obs = tls::exp::ObsOptions{};
        perfbench::SpanLog scratch;
        Rebuilt u = perfbench::rebuild_experiment(plain, &scratch);
        t["obs.emit_overhead"] =
            t["simcore.loop_s"] / u.times.at("simcore.loop_s");
        bool same = u.jobs.size() == r.jobs.size();
        for (std::size_t j = 0; same && j < u.jobs.size(); ++j) {
          same = u.jobs[j].jct_s == r.jobs[j].jct_s;
        }
        if (!same) fail.push_back("tracing changed the JCTs");
      }
      rebuilt_run_s.push_back(t["run_s"]);
      for (const auto& [name, v] : t) times[name].push_back(v);
      if (i < kReferenceSims) {
        for (const auto& [name, v] : r.counts) count_sum[name] += v;
      }
    } else if (i == 0) {
      reference = e;
      reference_workload = w;
    }
    sim_failed.push_back(!fail.empty());
    for (const std::string& f : fail) {
      std::fprintf(stderr, "check failed (sim %d): %s\n", i, f.c_str());
    }
  }

  // The untraced run deep-checks its first simulation outside the timed
  // window: rebuilt-stack reproduction, tc replay, chunk conservation.
  if (!o.trace) {
    std::vector<std::string> fail;
    std::vector<scenario::JobOutcome> outcomes;
    Rebuilt r = rebuild(reference_workload, nullptr, &outcomes);
    check_rebuilt(o, reference_workload, reference, r, outcomes, fail);
    if (!fail.empty()) sim_failed[0] = true;
    for (const std::string& f : fail) {
      std::fprintf(stderr, "check failed (sim 0): %s\n", f.c_str());
    }
  }
  const int attempted = static_cast<int>(sim_failed.size());
  const int failed = static_cast<int>(
      std::count(sim_failed.begin(), sim_failed.end(), true));

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {
        {"norm_run_s.p50", median(norm_run_s), "s"},
        {"norm_sim_s_per_host_s", median(norm_sim_rate), "s/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_heap_mb", median(heap_mb), "MB"},
        {"sim_jct_s", [&] {
           double sum = 0;
           for (double v : ref_jct) sum += v;
           return sum / static_cast<double>(ref_jct.size());
         }(), "s"},
    };
  } else {
    std::map<std::string, double> counts;
    for (const auto& [name, v] : count_sum) counts[name] = v / kReferenceSims;
    double ff = counts["net.ff_promotions"] + counts["net.ff_polls"];
    counts["net.ff_hit_rate"] = ff > 0 ? counts["net.ff_promotions"] / ff : 0;
    times["bench.trace_overhead"] = {median(rebuilt_run_s) / median(run_s)};
    for (const auto& [name, unit] : layer_metrics()) {
      double v = 0;
      if (counts.count(name)) {
        v = counts[name];
      } else if (times.count(name)) {
        v = median(times[name]);
      }
      metrics.push_back({name, v, unit});
    }
    write_text(o.out_dir + "/" + o.workload + ".layers.json",
               samples_json(o, counts, times));
    write_text(o.out_dir + "/" + o.workload + ".spans.json", spans_json(spans));
  }

  // Human-readable summary, then the result line.
  std::printf("workload %s, seed %llu, %d simulations (%d failed, "
              "failed_frac %.4f)\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              attempted, failed,
              static_cast<double>(failed) / static_cast<double>(attempted));
  if (!o.trace) {
    std::printf("run_s: n=%zu, raw p50 %.6f s, calibration pass p50 %.6f s; "
                "highest percentile with >=10 samples beyond it: %s\n",
                run_s.size(), median(run_s), median(cal_s),
                run_s.size() >= 20
                    ? ("p" + std::to_string(static_cast<int>(std::floor(
                                 100.0 * (1.0 - 10.0 / run_s.size())))))
                          .c_str()
                    : "none (p50 only)");
  }
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  return 0;
}
