#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace tls::net {
namespace {

FabricConfig ideal(int hosts) {
  FabricConfig c;
  c.num_hosts = hosts;
  c.tcp_weight_sigma = 0;     // deterministic
  c.protocol_overhead = 1.0;  // no framing inflation
  c.switch_latency = tls::sim::Time{0};
  return c;
}

TEST(Fabric, SingleFlowTakesSerializationTime) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(2));
  sim::Time done = tls::sim::Time{-1};
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{1250000};  // 1 ms at 10 Gbps... actually 1.25 MB = 1 ms
  fab.start_flow(f, [&](const FlowRecord& r) { done = r.end; });
  s.run();
  ASSERT_GE(done, tls::sim::Time{0});
  // Egress + ingress are pipelined; total ≈ serialization + one chunk.
  double expect_s = seconds_for(1250000.0, gbps(10));
  EXPECT_NEAR(sim::to_seconds(done), expect_s, expect_s * 0.2);
}

TEST(Fabric, ZeroByteFlowCompletesAsync) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(2));
  bool done = false;
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{0};
  fab.start_flow(f, [&](const FlowRecord&) { done = true; });
  EXPECT_FALSE(done);  // never synchronous
  s.run();
  EXPECT_TRUE(done);
}

TEST(Fabric, RejectsBadEndpoints) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(2));
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{5};
  f.bytes = tls::net::Bytes{1};
  EXPECT_THROW(fab.start_flow(f, [](const FlowRecord&) {}), std::invalid_argument);
  f.dst = tls::net::HostId{-1};
  EXPECT_THROW(fab.start_flow(f, [](const FlowRecord&) {}), std::invalid_argument);
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{-5};
  EXPECT_THROW(fab.start_flow(f, [](const FlowRecord&) {}), std::invalid_argument);
}

TEST(Fabric, RejectsBadConfig) {
  sim::Simulator s(1);
  FabricConfig c = ideal(0);
  EXPECT_THROW(Fabric(s, c), std::invalid_argument);
  c = ideal(2);
  c.chunk_size = tls::net::Bytes{0};
  EXPECT_THROW(Fabric(s, c), std::invalid_argument);
  c = ideal(2);
  c.flow_window = 0;
  EXPECT_THROW(Fabric(s, c), std::invalid_argument);
}

TEST(Fabric, FairSharingBetweenEqualFlows) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(3));
  std::vector<sim::Time> ends(2, tls::sim::Time{0});
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{0};
    f.dst = tls::net::HostId{1 + i};
    f.bytes = tls::net::Bytes{12'500'000};  // 10 ms each alone
    fab.start_flow(f, [&ends, i](const FlowRecord& r) { ends[static_cast<size_t>(i)] = r.end; });
  }
  s.run();
  // Sharing one egress: both finish around 20 ms, together.
  EXPECT_NEAR(sim::to_seconds(ends[0]), 0.020, 0.004);
  EXPECT_NEAR(sim::to_seconds(ends[1]), 0.020, 0.004);
}

TEST(Fabric, IngressFanInContention) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(3));
  std::vector<sim::Time> ends(2, tls::sim::Time{0});
  // Two sources send to one destination: ingress is the bottleneck.
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{i};
    f.dst = tls::net::HostId{2};
    f.bytes = tls::net::Bytes{12'500'000};
    fab.start_flow(f, [&ends, i](const FlowRecord& r) { ends[static_cast<size_t>(i)] = r.end; });
  }
  s.run();
  EXPECT_GT(sim::to_seconds(std::max(ends[0], ends[1])), 0.018);
}

TEST(Fabric, CompletedFlowCountAndActiveFlows) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(2));
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{1000};
  fab.start_flow(f, [](const FlowRecord&) {});
  EXPECT_EQ(fab.active_flows(), 1u);
  s.run();
  EXPECT_EQ(fab.active_flows(), 0u);
  EXPECT_EQ(fab.completed_flows(), 1u);
}

TEST(Fabric, ProtocolOverheadInflatesWireBytes) {
  sim::Simulator s(1);
  FabricConfig c = ideal(2);
  c.protocol_overhead = 2.0;
  Fabric fab(s, c);
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{1'250'000};
  sim::Time done = tls::sim::Time{0};
  fab.start_flow(f, [&](const FlowRecord& r) { done = r.end; });
  s.run();
  // Twice the wire bytes => about twice the ideal duration.
  EXPECT_NEAR(sim::to_seconds(done), 0.002, 0.0005);
  EXPECT_GE(fab.egress(tls::net::HostId{0}).counters().bytes, tls::net::Bytes{2'500'000});
}

TEST(Fabric, SwitchLatencyDelaysDelivery) {
  sim::Simulator s(1);
  FabricConfig c = ideal(2);
  c.switch_latency = sim::from_millis(5);
  Fabric fab(s, c);
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{100};
  sim::Time done = tls::sim::Time{0};
  fab.start_flow(f, [&](const FlowRecord& r) { done = r.end; });
  s.run();
  EXPECT_GE(done, sim::from_millis(5));
}

TEST(Fabric, WindowScalesWithWeightDeterministically) {
  // With sigma 0 every flow's window is the base; completions of equal
  // flows through a shared port stay tightly grouped.
  sim::Simulator s(1);
  Fabric fab(s, ideal(5));
  std::vector<sim::Time> ends;
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{0};
    f.dst = tls::net::HostId{1 + i};
    f.bytes = tls::net::Bytes{1'250'000};
    fab.start_flow(f, [&](const FlowRecord& r) { ends.push_back(r.end); });
  }
  s.run();
  ASSERT_EQ(ends.size(), 4u);
  sim::Time spread = *std::max_element(ends.begin(), ends.end()) -
                     *std::min_element(ends.begin(), ends.end());
  EXPECT_LT(sim::to_seconds(spread), 0.001);
}

TEST(Fabric, WeightNoiseSpreadsCompletions) {
  sim::Simulator s(1);
  FabricConfig c = ideal(21);
  c.tcp_weight_sigma = 0.3;
  Fabric fab(s, c);
  std::vector<sim::Time> ends;
  for (int i = 0; i < 20; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{0};
    f.dst = tls::net::HostId{1 + i};
    f.bytes = tls::net::Bytes{1'868'776};
    fab.start_flow(f, [&](const FlowRecord& r) { ends.push_back(r.end); });
  }
  s.run();
  ASSERT_EQ(ends.size(), 20u);
  sim::Time spread = *std::max_element(ends.begin(), ends.end()) -
                     *std::min_element(ends.begin(), ends.end());
  // Under contention the noisy windows must create a visible spread.
  EXPECT_GT(sim::to_seconds(spread), 0.002);
}

TEST(Fabric, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator s(77);
    FabricConfig c;
    c.num_hosts = 4;
    Fabric fab(s, c);
    sim::Time last = tls::sim::Time{0};
    for (int i = 0; i < 6; ++i) {
      FlowSpec f;
      f.src = tls::net::HostId{i % 2};
      f.dst = tls::net::HostId{2 + (i % 2)};
      f.bytes = tls::net::Bytes{500'000} + i * tls::net::Bytes{1000};
      fab.start_flow(f, [&](const FlowRecord& r) { last = std::max(last, r.end); });
    }
    s.run();
    return last;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Fabric, ByteConservationEgressEqualsIngress) {
  sim::Simulator s(5);
  FabricConfig c;
  c.num_hosts = 4;
  Fabric fab(s, c);
  for (int i = 0; i < 10; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{i % 4};
    f.dst = tls::net::HostId{(i + 1) % 4};
    f.bytes = tls::net::Bytes{100'000 * (i + 1)};
    fab.start_flow(f, [](const FlowRecord&) {});
  }
  s.run();
  Bytes tx = tls::net::Bytes{0}, rx = tls::net::Bytes{0};
  for (HostId h = tls::net::HostId{0}; h < tls::net::HostId{4}; ++h) {
    tx += fab.egress(h).counters().bytes;
    rx += fab.ingress(h).counters().bytes;
  }
  EXPECT_EQ(tx, rx);
  EXPECT_GT(tx, tls::net::Bytes{0});
}

TEST(Fabric, SimultaneousTransmitsReachIngressInTransmitOrder) {
  // Three sources send three full chunks each to one destination, so every
  // egress port finishes a chunk at the same instants S, 2S, 3S. The switch
  // must hand the chunks to the ingress FIFO in transmit order (the order
  // of the chunk_dequeue events, which is the order their serializations
  // complete), and the ingress, saturated from the first arrival on, must
  // deliver chunk j of that order at S + L + (j+1)*S.
  for (sim::Time latency : {sim::Time{0}, FabricConfig{}.switch_latency}) {
    SCOPED_TRACE(testing::Message() << "switch_latency=" << latency);
    sim::Simulator s(1);
    obs::Tracer tracer;
    s.set_tracer(&tracer);
    FabricConfig c = ideal(4);
    c.switch_latency = latency;
    Fabric fab(s, c);
    const HostId dst{3};
    for (int src = 0; src < 3; ++src) {
      FlowSpec f;
      f.src = HostId{src};
      f.dst = dst;
      f.bytes = 3 * c.chunk_size;
      fab.start_flow(f, [](const FlowRecord&) {});
    }
    s.run();

    using Key = std::pair<std::int64_t, std::int64_t>;  // (flow, index)
    std::vector<Key> transmitted, arrived, delivered;
    std::vector<sim::Time> transmit_done, arrive_at, deliver_at, wait,
        residence;
    const sim::Time serialize = transmit_time(c.chunk_size, c.link_rate);
    for (const obs::TraceEvent& e : tracer.events()) {
      Key key{e.flow, e.b};
      switch (e.kind) {
        case obs::EventKind::kChunkDequeue:
          transmitted.push_back(key);
          transmit_done.push_back(e.at + serialize);
          break;
        case obs::EventKind::kIngressArrive:
          arrived.push_back(key);
          arrive_at.push_back(e.at);
          break;
        case obs::EventKind::kIngressDeliver:
          delivered.push_back(key);
          deliver_at.push_back(e.at);
          wait.push_back(sim::from_nanos(e.a));
          residence.push_back(e.dur);
          break;
        default:
          break;
      }
    }
    ASSERT_EQ(transmitted.size(), 9u);
    // Sources finish in lockstep: chunks j = 3k..3k+2 all complete at
    // (k+1)*S, so the order among them is the scheduling order alone.
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(transmit_done[j], serialize * static_cast<std::int64_t>(j / 3 + 1));
    }
    EXPECT_EQ(arrived, transmitted);
    EXPECT_EQ(delivered, transmitted);
    ASSERT_EQ(deliver_at.size(), 9u);
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(arrive_at[j], transmit_done[j] + latency);
      EXPECT_EQ(deliver_at[j],
                serialize + latency + serialize * static_cast<std::int64_t>(j + 1));
      // The delivery record carries the chunk's own fan-in timing.
      EXPECT_EQ(residence[j], deliver_at[j] - arrive_at[j]);
      EXPECT_EQ(wait[j], residence[j] - serialize);
    }
    EXPECT_EQ(fab.completed_flows(), 3u);
  }
}

}  // namespace
}  // namespace tls::net
