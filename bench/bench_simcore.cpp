// Simulator-core microbenchmark: the program's EventQueue (a 4-ary heap of
// 16-byte (time, tag) keys with callbacks in a slot table) against the seed
// binary-heap queue, plus a 1000-host synthetic fabric drain exercising the
// SoA chunk rings and the fast-forward lane.
//
// The seed queue is embedded below verbatim (modulo namespace) so the
// comparison always measures the actual seed behavior — in particular its
// O(n) cancel scan, which the slot table's O(1) cancel removes. Each mix
// runs as kReps interleaved queue/seed-heap pairs, alternating which side
// goes first, and reports the median and min–max of each side, so host
// noise shows as spread instead of flipping the ratio.
//
// Knobs:
//   TLS_BENCH_SIMCORE_OPS   reference op count per queue mix (default 20000;
//                           the CI sanitizer smoke uses a much smaller value)
//   TLS_BENCH_ITERS/--iters scales the fabric drain (bytes per flow)
//   TLS_BENCH_JSON_DIR      where BENCH_simcore.json lands
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "common.hpp"
#include "net/fabric.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/simulator.hpp"

namespace legacy {

using tls::sim::Time;
using tls::sim::kTimeMin;

struct EventId {
  std::uint64_t seq = 0;
};

/// The seed binary-heap queue, kept as the benchmark baseline. Cancellation
/// is an O(n) heap scan plus a sorted-insert tombstone set.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventId schedule(Time at, Callback cb) {
    std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{at, seq, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    ++live_;
    return EventId{seq};
  }

  bool cancel(EventId id) {
    if (id.seq == 0 || id.seq >= next_seq_) return false;
    if (is_cancelled(id.seq)) return false;
    // The event may already have fired; verify it is still in the heap.
    bool pending = std::any_of(heap_.begin(), heap_.end(),
                               [&](const Entry& e) { return e.seq == id.seq; });
    if (!pending) return false;
    auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), id.seq);
    cancelled_.insert(it, id.seq);
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  Time peek_time() {
    skim();
    return heap_.front().at;
  }

  std::pair<Time, Callback> pop() {
    skim();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    --live_;
    last_pop_time_ = e.at;
    return {e.at, std::move(e.cb)};
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    Callback cb;
    bool operator>(const Entry& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  bool is_cancelled(std::uint64_t seq) const {
    return std::binary_search(cancelled_.begin(), cancelled_.end(), seq);
  }

  void skim() {
    while (!heap_.empty() && is_cancelled(heap_.front().seq)) {
      std::uint64_t seq = heap_.front().seq;
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.pop_back();
      auto it = std::lower_bound(cancelled_.begin(), cancelled_.end(), seq);
      cancelled_.erase(it);
    }
  }

  std::vector<Entry> heap_;
  std::vector<std::uint64_t> cancelled_;  // sorted-insert small set
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  Time last_pop_time_ = kTimeMin;
};

}  // namespace legacy

namespace {

using tls::sim::Time;

/// Deterministic 64-bit LCG: both queues see the identical op stream.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

struct MixResult {
  std::uint64_t events = 0;  // schedules + cancels + pops performed
  double wall_s = 0.0;
  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  }
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Transmit-completion pattern: monotone near-future schedules interleaved
/// with pops — the shape a busy NIC drives.
template <class Q>
MixResult run_fifo_mix(std::size_t n) {
  Q q;
  Lcg rng{11};
  MixResult r;
  double t0 = now_s();
  Time horizon = tls::sim::Time{0};
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(horizon + static_cast<Time>(rng.next() % 4096), [] {});
    if (i % 2 == 1) {
      horizon = q.peek_time();
      q.pop();
    }
  }
  while (!q.empty()) q.pop();
  r.events = 2 * n;
  r.wall_s = now_s() - t0;
  return r;
}

/// Retry-timer pattern: a large standing set where half the handles are
/// cancelled before firing. This is the seed queue's quadratic path.
template <class Q>
MixResult run_cancel_heavy(std::size_t n) {
  Q q;
  Lcg rng{22};
  std::vector<decltype(q.schedule(Time{0}, [] {}))> ids;
  ids.reserve(n);
  MixResult r;
  double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(rng.next() % (1u << 26)), [] {}));
  }
  for (std::size_t i = 0; i < n; i += 2) q.cancel(ids[i]);
  while (!q.empty()) q.pop();
  r.events = 2 * n;  // n schedules + n/2 cancels + n/2 pops
  r.wall_s = now_s() - t0;
  return r;
}

/// Random mix over spread-out horizons with cancels interleaved: the
/// tombstone skip path under a churning pending set.
template <class Q>
MixResult run_mixed_horizon(std::size_t n) {
  Q q;
  Lcg rng{33};
  std::vector<decltype(q.schedule(Time{0}, [] {}))> ids;
  MixResult r;
  double t0 = now_s();
  Time horizon = tls::sim::Time{0};
  for (std::size_t op = 0; op < n; ++op) {
    std::uint64_t roll = rng.next() % 100;
    if (roll < 50 || q.empty()) {
      ids.push_back(q.schedule(
          horizon + static_cast<Time>(rng.next() % (1u << 20)), [] {}));
    } else if (roll < 70 && !ids.empty()) {
      q.cancel(ids[rng.next() % ids.size()]);
    } else {
      horizon = q.pop().first;
    }
  }
  while (!q.empty()) q.pop();
  r.events = n;
  r.wall_s = now_s() - t0;
  return r;
}

constexpr int kReps = 9;

/// Median and range of one side's events/sec over kReps runs.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread(std::vector<double> eps) {
  std::sort(eps.begin(), eps.end());
  return {eps[eps.size() / 2], eps.front(), eps.back()};
}

struct MixRow {
  const char* name;
  Spread queue;
  Spread seed_heap;
  double speedup() const {
    return seed_heap.median > 0 ? queue.median / seed_heap.median : 0.0;
  }
};

using MixFn = MixResult (*)(std::size_t);

/// Runs `queue` and `seed_heap` as kReps interleaved pairs, alternating
/// which goes first so drift on the host falls on both sides alike.
MixRow measure(const char* name, MixFn queue, MixFn seed_heap,
               std::size_t ops) {
  std::vector<double> queue_eps;
  std::vector<double> seed_eps;
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep % 2 == 0) queue_eps.push_back(queue(ops).events_per_sec());
    seed_eps.push_back(seed_heap(ops).events_per_sec());
    if (rep % 2 == 1) queue_eps.push_back(queue(ops).events_per_sec());
  }
  MixRow row{name, spread(queue_eps), spread(seed_eps)};
  std::printf(
      "%-14s  queue %11.0f ev/s [%.0f-%.0f]   seed heap %11.0f ev/s "
      "[%.0f-%.0f]   %5.2fx\n",
      name, row.queue.median, row.queue.min, row.queue.max,
      row.seed_heap.median, row.seed_heap.min, row.seed_heap.max,
      row.speedup());
  return row;
}

struct DrainResult {
  int hosts = 0;
  std::uint64_t flows = 0;
  std::uint64_t sim_events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double ff_hit_rate = 0.0;
};

/// 1000 hosts on the star fabric, one bulk flow per host to a distant peer,
/// run to completion. Deep per-port backlogs (large flow window) keep the
/// fast-forward staging lane hot.
DrainResult run_drain(int hosts, tls::net::Bytes bytes_per_flow) {
  tls::sim::Simulator simulator(1);
  tls::net::FabricConfig config;
  config.num_hosts = hosts;
  config.chunk_size = 64 * tls::net::kKiB;
  config.flow_window = 32;
  tls::net::Fabric fabric(simulator, config);
  std::uint64_t completed = 0;
  for (int h = 0; h < hosts; ++h) {
    tls::net::FlowSpec spec;
    spec.src = tls::net::HostId{h};
    spec.dst = tls::net::HostId{(h + hosts / 2 + 1) % hosts};
    spec.bytes = bytes_per_flow;
    fabric.start_flow(spec, [&completed](const tls::net::FlowRecord&) {
      ++completed;
    });
  }
  double t0 = now_s();
  simulator.run();
  DrainResult r;
  r.wall_s = now_s() - t0;
  r.hosts = hosts;
  r.flows = completed;
  r.sim_events = simulator.dispatched();
  r.events_per_sec =
      r.wall_s > 0 ? static_cast<double>(r.sim_events) / r.wall_s : 0.0;
  std::uint64_t promotions = 0;
  std::uint64_t polls = 0;
  for (int h = 0; h < hosts; ++h) {
    promotions += fabric.egress(tls::net::HostId{h}).ff_promotions();
    polls += fabric.egress(tls::net::HostId{h}).ff_polls();
  }
  if (promotions + polls > 0) {
    r.ff_hit_rate = static_cast<double>(promotions) /
                    static_cast<double>(promotions + polls);
  }
  return r;
}

void write_json(std::size_t ops, const std::vector<MixRow>& mixes,
                const DrainResult& drain, double total_wall_s) {
  const char* dir = std::getenv("TLS_BENCH_JSON_DIR");
  std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                     "/BENCH_simcore.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // timing is best-effort, never fails a bench
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"simcore\",\n"
               "  \"wall_s\": %.6f,\n"
               "  \"iters\": %lld,\n"
               "  \"ref_ops\": %llu,\n"
               "  \"reps\": %d,\n",
               total_wall_s, static_cast<long long>(tls::bench::bench_iters()),
               static_cast<unsigned long long>(ops), kReps);
  for (const MixRow& m : mixes) {
    std::fprintf(f,
                 "  \"%s\": {\"queue_eps_median\": %.0f, "
                 "\"queue_eps_min\": %.0f, \"queue_eps_max\": %.0f, "
                 "\"seed_heap_eps_median\": %.0f, "
                 "\"seed_heap_eps_min\": %.0f, \"seed_heap_eps_max\": %.0f, "
                 "\"speedup\": %.2f},\n",
                 m.name, m.queue.median, m.queue.min, m.queue.max,
                 m.seed_heap.median, m.seed_heap.min, m.seed_heap.max,
                 m.speedup());
  }
  std::fprintf(
      f,
      "  \"drain\": {\"hosts\": %d, \"flows\": %llu, \"sim_events\": %llu,\n"
      "            \"events_per_sec\": %.0f, \"ff_hit_rate\": %.4f}\n"
      "}\n",
      drain.hosts, static_cast<unsigned long long>(drain.flows),
      static_cast<unsigned long long>(drain.sim_events), drain.events_per_sec,
      drain.ff_hit_rate);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  tls::bench::init(argc, argv);
  tls::bench::print_header(
      "bench_simcore: event-queue and fabric-drain throughput",
      "simulator core must sustain datacenter-scale event rates");

  std::size_t ops = static_cast<std::size_t>(
      tls::bench::env_long("TLS_BENCH_SIMCORE_OPS", 20000));
  double t0 = now_s();

  std::printf(
      "Queue mixes (%llu reference ops each; median [min-max] of %d "
      "interleaved pairs):\n",
      static_cast<unsigned long long>(ops), kReps);
  using Queue = tls::sim::EventQueue;
  using Seed = legacy::EventQueue;
  std::vector<MixRow> mixes = {
      measure("fifo_mix", run_fifo_mix<Queue>, run_fifo_mix<Seed>, ops),
      measure("cancel_heavy", run_cancel_heavy<Queue>, run_cancel_heavy<Seed>,
              ops),
      measure("mixed_horizon", run_mixed_horizon<Queue>,
              run_mixed_horizon<Seed>, ops),
  };

  // Fabric drain: 1000 hosts, one flow each, scaled by --iters.
  int hosts = static_cast<int>(tls::bench::env_long("TLS_BENCH_SIMCORE_HOSTS",
                                                    1000));
  tls::net::Bytes bytes_per_flow =
      64 * tls::net::kKiB *
      static_cast<std::int64_t>(tls::bench::bench_iters());
  DrainResult drain = run_drain(hosts, bytes_per_flow);
  std::printf(
      "\n%d-host drain: %llu flows, %llu sim events in %.2fs "
      "(%.0f ev/s), ff hit rate %.1f%%\n",
      drain.hosts, static_cast<unsigned long long>(drain.flows),
      static_cast<unsigned long long>(drain.sim_events), drain.wall_s,
      drain.events_per_sec, 100.0 * drain.ff_hit_rate);

  write_json(ops, mixes, drain, now_s() - t0);

  bool ok = drain.flows == static_cast<std::uint64_t>(drain.hosts);
  std::printf("\n%s\n", ok ? "DRAIN-COMPLETE" : "DRAIN-INCOMPLETE");
  return ok ? 0 : 1;
}
