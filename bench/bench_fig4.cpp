// Figure 4: the paper's schematic of two colocated PSes sending their
// model-update bursts under (b) FIFO, (c) TLs-One, and (d) TLs-RR —
// reproduced as a measured micro-scenario on the fabric. Each job
// broadcasts one model update to 4 workers through the shared egress; we
// print when each worker's update completes, which is exactly the
// green/yellow/yield story of the title.
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "net/fabric.hpp"
#include "simcore/simulator.hpp"
#include "tc/tc.hpp"

namespace {

using namespace tls;

struct BurstResult {
  // completion time (ms) per (job, worker)
  std::vector<std::vector<double>> done{2};
  double job_last[2] = {0, 0};
};

/// Runs one two-job burst with the given tc setup applied beforehand and
/// counts it in `timing`.
BurstResult run_burst(bench::Timing& timing,
                      const std::vector<std::string>& tc_commands,
                      sim::Time second_job_offset = sim::Time{0}) {
  timing.add_runs(1);
  sim::Simulator simulator(7);
  net::FabricConfig fc;
  fc.num_hosts = 5;
  fc.tcp_weight_sigma = 0.2;
  net::Fabric fabric(simulator, fc);
  tc::TrafficControl control(fabric);
  for (const std::string& cmd : tc_commands) {
    tc::Status s = control.exec(cmd);
    if (!s.ok) {
      std::fprintf(stderr, "tc failed: %s\n", s.error.c_str());
      std::exit(1);
    }
  }
  BurstResult result;
  auto start_job = [&](int job, std::uint16_t port) {
    for (int w = 0; w < 4; ++w) {
      net::FlowSpec f;
      f.src = tls::net::HostId{0};
      f.dst = tls::net::HostId{1 + w};
      f.bytes = dl::zoo::resnet32_cifar10().update_bytes();
      f.src_port = port;
      f.job_id = job;
      f.kind = net::FlowKind::kModelUpdate;
      fabric.start_flow(f, [&result, job](const net::FlowRecord& rec) {
        double ms = sim::to_millis(rec.end);
        result.done[static_cast<size_t>(job)].push_back(ms);
        result.job_last[job] = std::max(result.job_last[job], ms);
      });
    }
  };
  start_job(0, 5000);
  simulator.schedule_after(second_job_offset, [&] { start_job(1, 5100); });
  simulator.run();
  return result;
}

void print_result(const char* name, const BurstResult& r) {
  std::printf("%-18s", name);
  for (int job = 0; job < 2; ++job) {
    std::printf("  job%d workers done at:", job);
    std::vector<double> d = r.done[static_cast<size_t>(job)];
    std::sort(d.begin(), d.end());
    for (double ms : d) std::printf(" %6.2fms", ms);
  }
  std::printf("\n%-18s  job0 iteration gated at %.2fms, job1 at %.2fms\n\n",
              "", r.job_last[0], r.job_last[1]);
}

}  // namespace

int main(int argc, char** argv) {
  // This bench drives the fabric directly (no ExperimentConfig), so there
  // is nothing for run_all to fan out; run_burst counts its own runs.
  bench::init(argc, argv);
  bench::Timing timing("fig4");
  bench::print_header(
      "Figure 4 - two colocated PSes: FIFO vs TLs-One vs TLs-RR burst",
      "FIFO delays BOTH jobs to the end of the combined burst; priority "
      "lets job0 finish at half time while job1 still ends at the same time");

  // (b) FIFO: default pfifo, no tc configuration.
  print_result("(b) FIFO", run_burst(timing, {}));

  // (c) TLs-One: htb with two classes, job0 at prio 0, job1 at prio 1.
  std::vector<std::string> tls_one = {
      "tc qdisc add dev host0 root handle 1: htb default 3f",
      "tc class add dev host0 parent 1: classid 1:3f htb rate 2gbit ceil 10gbit prio 7",
      "tc class add dev host0 parent 1: classid 1:1 htb rate 1mbit ceil 10gbit prio 0",
      "tc class add dev host0 parent 1: classid 1:2 htb rate 1mbit ceil 10gbit prio 1",
      "tc filter add dev host0 parent 1: pref 1000 u32 match ip sport 5000 0xffff flowid 1:1",
      "tc filter add dev host0 parent 1: pref 1001 u32 match ip sport 5100 0xffff flowid 1:2",
  };
  print_result("(c) TLs-One", run_burst(timing, tls_one));

  // (d) TLs-RR after one rotation: the assignment is swapped.
  std::vector<std::string> tls_rr = tls_one;
  tls_rr[4] =
      "tc filter add dev host0 parent 1: pref 1000 u32 match ip sport 5000 0xffff flowid 1:2";
  tls_rr[5] =
      "tc filter add dev host0 parent 1: pref 1001 u32 match ip sport 5100 0xffff flowid 1:1";
  print_result("(d) TLs-RR (T..2T)", run_burst(timing, tls_rr));

  std::printf(
      "Reading: under FIFO both jobs' last workers finish together at the\n"
      "end of the combined burst (everyone yields, nobody passes). Under\n"
      "priority the green job's workers all finish early and the yellow\n"
      "job's last worker still finishes no later than under FIFO - the\n"
      "work-conserving 'pass/yield' rotation of the paper's traffic light.\n");
  return 0;
}
