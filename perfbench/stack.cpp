#include "stack.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>

#include "cluster/launcher.hpp"
#include "cluster/scheduler.hpp"
#include "dl/model.hpp"
#include "metrics/util_sampler.hpp"
#include "obs/analysis.hpp"
#include "obs/streaming.hpp"
#include "simcore/simulator.hpp"
#include "tc/parser.hpp"
#include "tc/tc.hpp"
#include "tensorlights/controller.hpp"

namespace perfbench {

namespace sim = tls::sim;
namespace obs = tls::obs;
namespace dl = tls::dl;
namespace cluster = tls::cluster;
namespace scenario = tls::scenario;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int SpanLog::begin(const char* name) {
  Span s;
  s.name = name;
  s.start_s = seconds_between(origin_, Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.sim = sim_;
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s =
      seconds_between(origin_, Clock::now());
  open_.pop_back();
}

double SpanLog::total(const char* name, std::size_t first) const {
  double sum = 0;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) {
      sum += spans_[i].end_s - spans_[i].start_s;
    }
  }
  return sum;
}

double SpanLog::self_total(const char* name, std::size_t first) const {
  double sum = 0;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 &&
        std::string_view(spans_[static_cast<std::size_t>(s.parent)].name) ==
            name) {
      sum -= s.end_s - s.start_s;
    }
    if (std::string_view(s.name) == name) sum += s.end_s - s.start_s;
  }
  return sum;
}

namespace {

/// Forwards job lifecycle events to the controller inside spans, so the
/// controller's reaction to arrivals and departures is timed from outside.
/// The controller replaces a host's root qdisc only from these calls, so
/// the listener also keeps the service counters of every qdisc it sees
/// replaced: net counters then cover each port's whole run. Chunks the
/// port had staged are migrated into the replacement and sent from it,
/// so they count once, as the replacement's.
class TimedListener : public cluster::JobEventListener {
 public:
  TimedListener(tls::core::Controller& inner, net::Fabric& fabric,
                SpanLog* spans)
      : inner_(inner), fabric_(fabric), spans_(spans) {}
  void on_job_arrival(const dl::JobSpec& spec,
                      const dl::JobPlacement& placement) override {
    snapshot();
    {
      Scope span(spans_, "tensorlights.on_job_arrival");
      inner_.on_job_arrival(spec, placement);
    }
    retire_replaced();
  }
  void on_job_departure(const dl::JobSpec& spec,
                        const dl::JobPlacement& placement) override {
    snapshot();
    {
      Scope span(spans_, "tensorlights.on_job_departure");
      inner_.on_job_departure(spec, placement);
    }
    retire_replaced();
  }

  /// Summed counters of the qdiscs replaced so far.
  const net::QdiscStats& retired() const { return retired_; }

 private:
  void snapshot() {
    before_.clear();
    for (net::HostId h{0}; h < net::HostId{fabric_.num_hosts()}; ++h) {
      const net::Qdisc& q = fabric_.egress(h).qdisc();
      before_.push_back({&q, q.stats(), q.backlog_chunks()});
    }
  }
  void retire_replaced() {
    for (net::HostId h{0}; h < net::HostId{fabric_.num_hosts()}; ++h) {
      const net::Qdisc& q = fabric_.egress(h).qdisc();
      const Before& b = before_[static_cast<std::size_t>(h.idx())];
      if (b.qdisc != &q || q.stats().chunks_sent < b.stats.chunks_sent) {
        // No chunk is submitted inside a controller call, so the new
        // qdisc holds or sent exactly the old backlog plus the staged
        // chunks; only the staged ones were counted as sent by the old.
        std::uint64_t staged =
            q.stats().chunks_sent + q.backlog_chunks() - b.backlog;
        const net::QdiscStats& stats = b.stats;
        retired_.chunks_sent += stats.chunks_sent - staged;
        retired_.green_sends += stats.green_sends;
        retired_.yellow_sends += stats.yellow_sends;
        retired_.overlimits += stats.overlimits;
      }
    }
  }

  tls::core::Controller& inner_;
  net::Fabric& fabric_;
  SpanLog* spans_;
  struct Before {
    const net::Qdisc* qdisc;
    net::QdiscStats stats;
    std::size_t backlog;
  };
  std::vector<Before> before_;
  net::QdiscStats retired_;
};

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Reads the deterministic counters every layer exposes after a run and
/// checks byte conservation across the data plane.
void read_layers(const sim::Simulator& simulator, net::Fabric& fabric,
                 const tls::tc::TrafficControl& control,
                 const tls::core::Controller& controller,
                 const TimedListener& listener,
                 const cluster::Launcher& launcher, Rebuilt& out) {
  auto& c = out.counts;
  const sim::EventQueue::Stats& qs = simulator.queue_stats();
  c["simcore.events"] = static_cast<double>(simulator.dispatched());
  c["simcore.scheduled"] = static_cast<double>(qs.scheduled);
  c["simcore.cancelled"] = static_cast<double>(qs.cancelled);
  c["simcore.tombstones_skipped"] = static_cast<double>(qs.tombstones_skipped);
  c["simcore.overflow_pulls"] = static_cast<double>(qs.overflow_pulls);
  c["simcore.window_jumps"] = static_cast<double>(qs.window_jumps);

  std::uint64_t egress = 0, ingress = 0, promotions = 0, polls = 0;
  std::uint64_t sent = listener.retired().chunks_sent;
  std::uint64_t green = listener.retired().green_sends;
  std::uint64_t yellow = listener.retired().yellow_sends;
  std::uint64_t overlimits = listener.retired().overlimits;
  double peak_backlog = 0;
  for (net::HostId h{0}; h < net::HostId{fabric.num_hosts()}; ++h) {
    const net::EgressPort& port = fabric.egress(h);
    const net::QdiscStats& qstats = port.qdisc().stats();
    egress += port.counters().chunks;
    ingress += fabric.ingress(h).counters().chunks;
    sent += qstats.chunks_sent;
    promotions += port.ff_promotions();
    polls += port.ff_polls();
    green += qstats.green_sends;
    yellow += qstats.yellow_sends;
    overlimits += qstats.overlimits;
    peak_backlog = std::max(
        peak_backlog, net::to_double(port.counters().peak_backlog_bytes));
  }
  c["net.egress_chunks"] = static_cast<double>(egress);
  c["net.ingress_chunks"] = static_cast<double>(ingress);
  c["net.qdisc_chunks_sent"] = static_cast<double>(sent);
  c["net.ff_promotions"] = static_cast<double>(promotions);
  c["net.ff_polls"] = static_cast<double>(polls);
  c["net.htb_green_sends"] = static_cast<double>(green);
  c["net.htb_yellow_sends"] = static_cast<double>(yellow);
  c["net.htb_overlimits"] = static_cast<double>(overlimits);
  c["net.peak_egress_backlog_mb"] = peak_backlog / 1e6;
  if (egress != ingress || egress != sent) {
    out.failures.push_back("chunk conservation: egress " +
                           std::to_string(egress) + ", ingress " +
                           std::to_string(ingress) + ", qdisc sent " +
                           std::to_string(sent));
  }

  c["tc.commands"] = static_cast<double>(control.history().size());
  c["tensorlights.rotations"] = static_cast<double>(controller.rotations());

  double iterations = 0;
  std::vector<double> means, vars;
  for (const auto& job : launcher.jobs()) {
    iterations += static_cast<double>(job->iteration());
    std::vector<double> m = job->barrier_log().mean_waits();
    std::vector<double> v = job->barrier_log().variances();
    means.insert(means.end(), m.begin(), m.end());
    vars.insert(vars.end(), v.begin(), v.end());
    JobTime jt;
    jt.job_id = job->spec().job_id;
    jt.iterations = job->iteration();
    if (job->finished()) jt.jct_s = sim::to_seconds(job->jct());
    out.jobs.push_back(jt);
  }
  c["dl.iterations"] = iterations;
  c["dl.barrier_wait_s.mean"] = mean_of(means);
  c["dl.barrier_wait_var_s2.mean"] = mean_of(vars);

  out.sim_events = simulator.dispatched();
  out.tc_history = control.history();
  out.fabric = fabric.config();
}

/// Layer times every workload reports; `first` is this simulation's
/// first span.
void read_times(const SpanLog& spans, std::size_t first, Rebuilt& out) {
  auto& t = out.times;
  double loop = spans.self_total("simcore.run", first);
  t["simcore.loop_s"] = loop;
  double events = out.counts["simcore.events"];
  t["simcore.loop_ns_per_event"] = events > 0 ? loop * 1e9 / events : 0;
  t["simcore.events_per_loop_s"] = loop > 0 ? events / loop : 0;
  t["tensorlights.listener_s"] =
      spans.total("tensorlights.on_job_arrival", first) +
      spans.total("tensorlights.on_job_departure", first);
  t["cluster.launch_s"] = spans.total("cluster.launch", first);
  t["workload.gen_s"] = spans.total("workload.gen", first);
}

}  // namespace

Rebuilt rebuild_experiment(const tls::exp::ExperimentConfig& config,
                           SpanLog* scratch_spans) {
  if (config.workload.ps_per_job > 1 || config.background ||
      config.coordinated_transport ||
      !config.obs.trace_sample.empty() || !config.obs.metrics_path.empty()) {
    throw std::invalid_argument("rebuild_experiment: unsupported config");
  }
  SpanLog local;
  SpanLog* spans = scratch_spans ? scratch_spans : &local;
  const std::size_t first = spans->spans().size();
  Rebuilt out;
  int total_span = spans->begin("exp.simulation");

  sim::Simulator simulator(config.seed);
  std::unique_ptr<obs::Tracer> tracer;
  if (config.obs.any()) {
    std::uint32_t cats = config.obs.trace_categories;
    if (config.obs.report_any()) cats |= obs::kAnalysisCats;
    tracer = std::make_unique<obs::Tracer>(cats);
    tracer->set_max_events(config.obs.max_events);
    simulator.set_tracer(tracer.get());
  }

  net::FabricConfig fabric_config = config.fabric;
  fabric_config.num_hosts = config.num_hosts;
  net::Fabric fabric(simulator, fabric_config);
  tls::tc::TrafficControl control(fabric);
  tls::core::Controller controller(simulator, control, config.controller);
  tls::metrics::BusyAccumulator busy(config.num_hosts);
  tls::metrics::NicSampler nic(simulator, fabric, config.nic_sample_period);

  cluster::Launcher launcher(simulator, fabric);
  TimedListener listener(controller, fabric, spans);
  launcher.add_listener(&listener);
  launcher.set_busy_sink([&busy](net::HostId h, sim::Time b, sim::Time e) {
    busy.add(h, b, e);
  });

  std::vector<dl::JobSpec> specs;
  {
    Scope span(spans, "workload.gen");
    specs = tls::workload::grid_search_jobs(config.workload);
  }
  std::vector<dl::JobPlacement> placements;
  {
    Scope span(spans, "cluster.launch");
    placements = cluster::assign_tasks(config.placement, config.num_hosts,
                                       config.workload.workers_per_job);
    cluster::LaunchConfig launch;
    launch.stagger = config.stagger;
    launcher.launch_all(std::move(specs), placements, launch);
  }
  std::vector<int> ps_per_host(static_cast<std::size_t>(config.num_hosts));
  for (const dl::JobPlacement& p : placements) {
    for (int s = 0; s < p.ps_count(); ++s) {
      ++ps_per_host[static_cast<std::size_t>(p.ps_shard_host(s).idx())];
    }
  }

  std::unique_ptr<sim::PeriodicTimer> obs_sampler;
  if (tracer && config.obs.sample_period > sim::Time{0}) {
    obs_sampler = std::make_unique<sim::PeriodicTimer>(
        simulator, config.obs.sample_period, [&] {
          for (net::HostId h{0}; h < net::HostId{config.num_hosts}; ++h) {
            tracer->gauge_sample(
                simulator.now(), "egress_backlog_bytes", h, -1,
                net::to_double(fabric.egress(h).qdisc().backlog_bytes()));
          }
          std::int64_t lead = 0;
          for (const auto& job : launcher.jobs()) {
            lead = std::max(lead, job->iteration());
          }
          for (const auto& job : launcher.jobs()) {
            tracer->gauge_sample(
                simulator.now(), "job_iteration_lag", net::kNoHost,
                job->spec().job_id,
                static_cast<double>(lead - job->iteration()));
          }
        });
    obs_sampler->start();
  }

  const sim::Time slice = 1 * sim::kSecond;
  while (!launcher.all_finished() && simulator.now() < config.time_limit &&
         !simulator.idle()) {
    Scope span(spans, "simcore.run");
    simulator.run(simulator.now() + slice);
  }

  if (tracer) {
    if (obs_sampler) obs_sampler->stop();
    obs::StreamingAnalyzer analyzer;
    {
      Scope span(spans, "obs.ingest");
      for (const obs::TraceEvent& e : tracer->events()) analyzer.ingest(e);
    }
    analyzer.set_health(tracer->health());
    obs::RunReport report;
    {
      Scope span(spans, "obs.finish");
      report = analyzer.finish();
    }
    {
      Scope span(spans, "obs.render");
      out.report_text = obs::report_text(report);
      out.report_json = obs::report_json(report);
    }
    out.counts["obs.trace_events"] = static_cast<double>(tracer->size());
    out.counts["obs.trace_mb"] = static_cast<double>(tracer->size()) *
                                 sizeof(obs::TraceEvent) / 1e6;
    out.counts["obs.peak_retained_records"] =
        static_cast<double>(analyzer.peak_retained_records());
  }
  spans->end(total_span);

  read_layers(simulator, fabric, control, controller, listener, launcher,
              out);
  out.counts["cluster.peak_ps_colocation"] =
      *std::max_element(ps_per_host.begin(), ps_per_host.end());
  read_times(*spans, first, out);
  out.times["run_s"] = spans->total("exp.simulation", first);
  if (tracer) {
    double events = static_cast<double>(tracer->size());
    out.times["obs.ingest_ns_per_event"] =
        events > 0 ? spans->total("obs.ingest", first) * 1e9 / events : 0;
    out.times["obs.finish_s"] = spans->total("obs.finish", first);
    out.times["obs.render_s"] = spans->total("obs.render", first);
    obs::RunReport batch = obs::analyze(tracer->events());
    batch.health = tracer->health();
    if (obs::report_json(batch) != out.report_json) {
      out.failures.push_back("streaming report differs from batch analyze");
    }
  }
  return out;
}

namespace {

/// scenario::run_scenario's engine, rebuilt. The occupancy sampler keeps
/// its timer (it is part of the event stream) but records nothing.
class ChurnStack {
 public:
  ChurnStack(const scenario::Config& config, SpanLog* spans)
      : config_(config),
        spans_(spans),
        sim_(config.seed),
        fabric_(sim_, fabric_config(config)),
        control_(fabric_),
        controller_(sim_, control_, config.controller),
        listener_(controller_, fabric_, spans),
        scheduler_(config.num_hosts, config.scheduler, config.admission,
                   config.ps_band_limit < 0 ? config.controller.max_bands
                                            : config.ps_band_limit),
        busy_(config.num_hosts),
        launcher_(sim_, fabric_) {
    launcher_.add_listener(&listener_);
    launcher_.set_busy_sink([this](net::HostId h, sim::Time b, sim::Time e) {
      busy_.add(h, b, e);
    });
  }

  void run(std::vector<scenario::JobOutcome>* outcomes, Rebuilt& out) {
    const std::vector<scenario::TraceJob>& trace = config_.replay.jobs;
    outcomes_.resize(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      outcomes_[i].job_id = trace[i].job_id;
      sim_.schedule_at(trace[i].arrival, [this, i] { on_arrival(i); });
    }
    std::unique_ptr<sim::PeriodicTimer> sampler;
    if (config_.sample_period > sim::Time{0}) {
      sampler = std::make_unique<sim::PeriodicTimer>(
          sim_, config_.sample_period, [] {});
      sampler->start();
    }

    const sim::Time slice = 1 * sim::kSecond;
    while (resolved_ < trace.size() && sim_.now() < config_.time_limit &&
           !sim_.idle()) {
      sim::Time until = sim_.now() + slice;
      if (until > config_.time_limit) until = config_.time_limit;
      Scope span(spans_, "simcore.run");
      sim_.run(until);
    }
    if (sampler) sampler->stop();

    read_layers(sim_, fabric_, control_, controller_, listener_, launcher_,
                out);
    auto& c = out.counts;
    c["cluster.peak_ps_colocation"] = peak_coloc_;
    double completed = 0, evicted = 0, rejected = 0, unfinished = 0;
    for (const scenario::JobOutcome& o : outcomes_) {
      switch (o.status) {
        case scenario::JobStatus::kCompleted: ++completed; break;
        case scenario::JobStatus::kEvicted: ++evicted; break;
        case scenario::JobStatus::kRejected: ++rejected; break;
        case scenario::JobStatus::kUnfinished: ++unfinished; break;
      }
    }
    c["scenario.completed"] = completed;
    c["scenario.evicted"] = evicted;
    c["scenario.rejected"] = rejected;
    c["scenario.unfinished"] = unfinished;
    if (outcomes) *outcomes = std::move(outcomes_);
  }

 private:
  static net::FabricConfig fabric_config(const scenario::Config& config) {
    net::FabricConfig fc = config.fabric;
    fc.num_hosts = config.num_hosts;
    return fc;
  }

  int clamped_workers(const scenario::TraceJob& tj) const {
    return std::max(1, std::min(tj.num_workers, config_.num_hosts - 1));
  }

  dl::JobSpec spec_for(const scenario::TraceJob& tj) const {
    dl::JobSpec spec;
    spec.job_id = tj.job_id;
    spec.model = *dl::zoo::by_name(tj.model);
    spec.num_workers = clamped_workers(tj);
    spec.local_batch_size = tj.local_batch_size;
    spec.global_step_target = tj.iterations * spec.num_workers;
    return spec;
  }

  void on_arrival(std::size_t index) {
    dl::JobSpec spec = spec_for(config_.replay.jobs[index]);
    cluster::Admission admission;
    {
      Scope span(spans_, "cluster.place");
      admission = scheduler_.try_place(spec);
    }
    peak_coloc_ = std::max(peak_coloc_, admission.ps_colocation);
    switch (admission.outcome) {
      case cluster::AdmissionOutcome::kPlaced:
        start_job(index, std::move(spec), std::move(admission.placement));
        break;
      case cluster::AdmissionOutcome::kQueued:
        pending_.push_back(index);
        break;
      case cluster::AdmissionOutcome::kRejected:
        outcomes_[index].status = scenario::JobStatus::kRejected;
        outcomes_[index].finish_s = sim::to_seconds(sim_.now());
        ++resolved_;
        break;
    }
  }

  void start_job(std::size_t index, dl::JobSpec spec,
                 dl::JobPlacement placement) {
    const scenario::TraceJob& tj = config_.replay.jobs[index];
    dl::JobRuntime* job = nullptr;
    {
      Scope span(spans_, "cluster.launch");
      job = &launcher_.admit(
          std::move(spec), std::move(placement), config_.launch,
          [this, index](const dl::JobRuntime& j) { on_departure(index, j); });
    }
    outcomes_[index].admit_s = sim::to_seconds(sim_.now());
    if (tj.lifetime > sim::Time{0}) {
      sim_.schedule_after(tj.lifetime, [this, job] {
        if (!job->finished()) launcher_.evict(*job);
      });
    }
  }

  void on_departure(std::size_t index, const dl::JobRuntime& job) {
    scenario::JobOutcome& o = outcomes_[index];
    o.finish_s = sim::to_seconds(sim_.now());
    o.jct_s = sim::to_seconds(job.jct());
    o.iterations_done = job.iteration();
    o.status = job.evicted() ? scenario::JobStatus::kEvicted
                             : scenario::JobStatus::kCompleted;
    scheduler_.remove(job.spec(), job.placement());
    ++resolved_;
    while (!pending_.empty()) {
      std::size_t next = pending_.front();
      dl::JobSpec spec = spec_for(config_.replay.jobs[next]);
      cluster::Admission admission;
      {
        Scope span(spans_, "cluster.place");
        admission = scheduler_.try_place(spec);
      }
      if (admission.outcome != cluster::AdmissionOutcome::kPlaced) break;
      pending_.pop_front();
      peak_coloc_ = std::max(peak_coloc_, admission.ps_colocation);
      start_job(next, std::move(spec), std::move(admission.placement));
    }
  }

  const scenario::Config& config_;
  SpanLog* spans_;
  sim::Simulator sim_;
  net::Fabric fabric_;
  tls::tc::TrafficControl control_;
  tls::core::Controller controller_;
  TimedListener listener_;
  cluster::OnlineScheduler scheduler_;
  tls::metrics::BusyAccumulator busy_;
  cluster::Launcher launcher_;
  std::deque<std::size_t> pending_;
  std::vector<scenario::JobOutcome> outcomes_;
  int peak_coloc_ = 0;
  std::size_t resolved_ = 0;
};

}  // namespace

Rebuilt rebuild_scenario(const scenario::Config& config, SpanLog* scratch_spans,
                         std::vector<scenario::JobOutcome>* outcomes) {
  if (config.replay.jobs.empty() || !config.metrics_path.empty()) {
    throw std::invalid_argument("rebuild_scenario: unsupported config");
  }
  SpanLog local;
  SpanLog* spans = scratch_spans ? scratch_spans : &local;
  const std::size_t first = spans->spans().size();
  Rebuilt out;
  {
    Scope span(spans, "scenario.simulation");
    ChurnStack stack(config, spans);
    stack.run(outcomes, out);
  }
  read_times(*spans, first, out);
  out.times["run_s"] = spans->total("scenario.simulation", first);
  return out;
}

std::vector<std::string> replay_tc(const std::vector<std::string>& history,
                                   const net::FabricConfig& fabric_config,
                                   double* seconds) {
  sim::Simulator simulator(1);
  net::Fabric fabric(simulator, fabric_config);
  tls::tc::TrafficControl control(fabric);
  std::vector<std::string> failed;
  Clock::time_point t0 = Clock::now();
  for (const std::string& line : history) {
    tls::tc::ParseResult parsed = tls::tc::parse_command(line);
    if (!parsed.ok || !control.apply(parsed.command)) failed.push_back(line);
  }
  *seconds = seconds_between(t0, Clock::now());
  return failed;
}

}  // namespace perfbench
