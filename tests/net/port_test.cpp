#include "net/port.hpp"

#include <gtest/gtest.h>

#include "net/pfifo_qdisc.hpp"
#include "net/prio_qdisc.hpp"
#include "obs/trace.hpp"

namespace tls::net {
namespace {

Chunk make_chunk(FlowId flow, Bytes size, HostId dst = HostId{0},
                 std::uint32_t index = 0) {
  Chunk c;
  c.flow = flow;
  c.size = size;
  c.dst = dst;
  c.index = index;
  return c;
}

class PortTest : public ::testing::Test {
 protected:
  sim::Simulator simulator{1};
  std::vector<Chunk> transmitted;
};

TEST_F(PortTest, TransmitsAtLineRate) {
  EgressPort port(simulator, /*rate=*/Rate{1000.0},
                  [&](const Chunk& c) { transmitted.push_back(c); });
  port.submit(make_chunk(1, tls::net::Bytes{500}), FlowSpec{});
  simulator.run();
  ASSERT_EQ(transmitted.size(), 1u);
  // 500 bytes at 1000 B/s = 0.5 s.
  EXPECT_EQ(simulator.now(), sim::from_seconds(0.5));
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{500});
  EXPECT_EQ(port.counters().chunks, 1u);
}

TEST_F(PortTest, SerializesBackToBack) {
  EgressPort port(simulator, Rate{1000.0},
                  [&](const Chunk& c) { transmitted.push_back(c); });
  port.submit(make_chunk(1, tls::net::Bytes{100}), FlowSpec{});
  port.submit(make_chunk(2, tls::net::Bytes{100}), FlowSpec{});
  simulator.run();
  EXPECT_EQ(transmitted.size(), 2u);
  EXPECT_EQ(simulator.now(), sim::from_seconds(0.2));
}

TEST_F(PortTest, ClassifierStampsBand) {
  EgressPort port(simulator, Rate{1000.0},
                  [&](const Chunk& c) { transmitted.push_back(c); });
  port.set_qdisc(std::make_unique<PrioQdisc>(4));
  FilterRule rule;
  rule.pref = 1;
  rule.src_port = 7000;
  rule.target_band = tls::net::BandId{2};
  port.classifier().upsert(rule);
  FlowSpec spec;
  spec.src_port = 7000;
  port.submit(make_chunk(1, tls::net::Bytes{10}), spec);
  simulator.run();
  ASSERT_EQ(transmitted.size(), 1u);
  EXPECT_EQ(transmitted[0].band, tls::net::BandId{2});
}

TEST_F(PortTest, QdiscReplacementMigratesBacklog) {
  EgressPort port(simulator, Rate{1000.0},
                  [&](const Chunk& c) { transmitted.push_back(c); });
  // Queue three chunks; the first goes into service immediately, two stay
  // in the qdisc.
  for (int i = 0; i < 3; ++i) port.submit(make_chunk(1, tls::net::Bytes{100}), FlowSpec{});
  port.set_qdisc(std::make_unique<PrioQdisc>(3));
  simulator.run();
  EXPECT_EQ(transmitted.size(), 3u);
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{300});
}

TEST_F(PortTest, PeakBacklogTracked) {
  EgressPort port(simulator, Rate{1000.0}, [&](const Chunk&) {});
  for (int i = 0; i < 4; ++i) port.submit(make_chunk(1, tls::net::Bytes{100}), FlowSpec{});
  // First chunk went into service; three remain queued.
  EXPECT_GE(port.counters().peak_backlog_bytes, tls::net::Bytes{300});
  simulator.run();
}

TEST_F(PortTest, BusyFlagDuringService) {
  EgressPort port(simulator, Rate{1000.0}, [&](const Chunk&) {});
  EXPECT_FALSE(port.busy());
  port.submit(make_chunk(1, tls::net::Bytes{100}), FlowSpec{});
  EXPECT_TRUE(port.busy());
  simulator.run();
  EXPECT_FALSE(port.busy());
}

TEST_F(PortTest, IngressFifoDrain) {
  std::vector<std::pair<FlowId, sim::Time>> delivered;
  IngressPort port(simulator, Rate{1000.0}, [&](const Chunk& c) {
    delivered.emplace_back(c.flow, simulator.now());
  });
  port.arrive(make_chunk(1, tls::net::Bytes{100}));
  port.arrive(make_chunk(2, tls::net::Bytes{100}));
  simulator.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].first, 1u);
  EXPECT_EQ(delivered[0].second, sim::from_seconds(0.1));
  EXPECT_EQ(delivered[1].second, sim::from_seconds(0.2));
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{200});
}

TEST_F(PortTest, IngressBacklogBytes) {
  IngressPort port(simulator, Rate{1000.0}, [&](const Chunk&) {});
  port.arrive(make_chunk(1, tls::net::Bytes{100}));
  port.arrive(make_chunk(2, tls::net::Bytes{150}));
  // First chunk is in service, second queued.
  EXPECT_EQ(port.backlog_bytes(), tls::net::Bytes{150});
  simulator.run();
  EXPECT_EQ(port.backlog_bytes(), tls::net::Bytes{0});
}

TEST_F(PortTest, MinimumOneNanosecondTransmit) {
  EXPECT_EQ(transmit_time(tls::net::Bytes{0}, Rate{1e9}), tls::sim::Time{1});
  EXPECT_EQ(transmit_time(tls::net::Bytes{1}, gbps(10)), tls::sim::Time{1});
  EXPECT_EQ(transmit_time(tls::net::Bytes{1250}, gbps(10)), tls::sim::Time{1000});  // 1 us
}

// The port once had a pfifo staging lane that drained deep backlogs in
// batches. These checks pinned what it had to preserve; with one qdisc poll
// per chunk they pin the same service behaviour of the plain data path.

TEST(FastForward, StagedDrainPreservesPerChunkCompletionTimes) {
  // 100 equal chunks at 1000 B/s: chunk i completes exactly at (i+1)*0.1s.
  sim::Simulator simulator(1);
  std::vector<std::pair<std::uint32_t, sim::Time>> done;
  EgressPort port(simulator, Rate{1000.0}, [&](const Chunk& c) {
    done.emplace_back(c.index, simulator.now());
  });
  for (std::uint32_t i = 0; i < 100; ++i) {
    port.submit(make_chunk(1, tls::net::Bytes{100}, HostId{0}, i), FlowSpec{});
  }
  simulator.run();
  ASSERT_EQ(done.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(done[i].first, i);
    EXPECT_EQ(done[i].second, sim::from_seconds(0.1) * (i + 1));
  }
  EXPECT_EQ(port.counters().chunks, 100u);
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{100 * 100});
}

TEST(FastForward, QdiscSwapRequeuesStagedChunksAheadOfBacklog) {
  // Replace the qdisc mid-flight, after two of eight chunks have been
  // served: the migrated backlog keeps strict FIFO service order.
  sim::Simulator simulator(1);
  std::vector<std::uint32_t> order;
  EgressPort port(simulator, Rate{1000.0},
                  [&](const Chunk& c) { order.push_back(c.index); });
  for (std::uint32_t i = 0; i < 8; ++i) {
    port.submit(make_chunk(1, tls::net::Bytes{100}, HostId{0}, i), FlowSpec{});
  }
  simulator.run(sim::from_seconds(0.25));
  port.set_qdisc(std::make_unique<PrioQdisc>(3));
  simulator.run();
  ASSERT_EQ(order.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{800});
}

TEST(FastForward, DisabledWhenTracerAttached) {
  // A tracer does not change the data path: the same completion times and
  // one poll per chunk plus the final idle probe, traced or not.
  for (bool traced : {false, true}) {
    SCOPED_TRACE(testing::Message() << "traced=" << traced);
    sim::Simulator simulator(1);
    obs::Tracer tracer;
    if (traced) simulator.set_tracer(&tracer);
    std::vector<sim::Time> done;
    EgressPort port(simulator, Rate{1000.0},
                    [&](const Chunk&) { done.push_back(simulator.now()); });
    for (std::uint32_t i = 0; i < 20; ++i) {
      port.submit(make_chunk(1, tls::net::Bytes{100}, HostId{0}, i), FlowSpec{});
    }
    simulator.run();
    ASSERT_EQ(done.size(), 20u);
    for (std::uint32_t i = 0; i < 20; ++i) {
      EXPECT_EQ(done[i], sim::from_seconds(0.1) * (i + 1));
    }
    EXPECT_EQ(port.ff_polls(), 21u);  // 20 chunks + 1 idle poll
  }
}

TEST(FastForward, PollsAndPromotionsAccountForEveryChunk) {
  // Every transmitted chunk comes from its own qdisc poll; polls also count
  // the final idle probe, and nothing is ever promoted.
  sim::Simulator simulator(1);
  int done = 0;
  EgressPort port(simulator, Rate{1000.0}, [&](const Chunk&) { ++done; });
  for (std::uint32_t i = 0; i < 50; ++i) {
    port.submit(make_chunk(1, tls::net::Bytes{100}, HostId{0}, i), FlowSpec{});
  }
  simulator.run();
  EXPECT_EQ(done, 50);
  EXPECT_EQ(port.ff_polls(), 51u);
  EXPECT_EQ(port.ff_promotions(), 0u);
}

}  // namespace
}  // namespace tls::net
