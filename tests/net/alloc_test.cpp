// Allocation regression tests for the per-chunk data path.
//
// Every chunk costs three events (egress serialization done, switch
// traversal, ingress delivery). Their callbacks must capture only the
// component that holds the chunk, so they fit std::function's inline
// storage and the steady-state drain does not touch the heap. This binary
// replaces the global operator new with a counting one and checks that
// draining one flow allocates fewer times than the flow has chunks; a
// callback that captures a Chunk by value allocates once per event, i.e.
// at least three times per chunk. The queues the chunks wait in are
// net::Fifo rings, which must allocate only when they double.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/fabric.hpp"
#include "net/fifo.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tls::net {
namespace {

TEST(FabricAllocations, ChunkDrainAllocatesLessThanOncePerChunk) {
  sim::Simulator s(1);
  FabricConfig c;
  c.num_hosts = 2;
  c.tcp_weight_sigma = 0;
  c.protocol_overhead = 1.0;
  Fabric fab(s, c);
  constexpr std::uint64_t kChunks = 64;
  FlowSpec f;
  f.src = HostId{0};
  f.dst = HostId{1};
  f.bytes = static_cast<std::int64_t>(kChunks) * c.chunk_size;
  bool done = false;
  fab.start_flow(f, [&done](const FlowRecord&) { done = true; });

  const std::uint64_t before = g_allocations.load();
  s.run();
  const std::uint64_t during = g_allocations.load() - before;

  ASSERT_TRUE(done);
  ASSERT_EQ(fab.ingress(HostId{1}).counters().chunks, kChunks);
  // The counter must see allocations at all, or the bound below is vacuous.
  ASSERT_GT(before, 0u);
  EXPECT_LT(during, kChunks) << "Simulator::run allocated " << during
                             << " times for " << kChunks << " chunks";
}

TEST(FifoAllocations, SteadyDepthCyclingAllocatesNothing) {
  constexpr std::uint32_t kDepth = 100;
  Fifo<Chunk> fifo;
  Chunk chunk;
  for (std::uint32_t i = 0; i < kDepth; ++i) {
    chunk.index = i;
    fifo.push_back(chunk);
  }
  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t i = kDepth; i < kDepth + 10'000; ++i) {
    chunk.index = i;
    fifo.push_back(chunk);
    ASSERT_EQ(fifo.take_front().index, i - kDepth);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(fifo.size(), kDepth);
}

TEST(FifoAllocations, GrowthAllocatesOncePerDoubling) {
  // 16 slots on the first push, then one allocation per doubling: reaching
  // 1000 elements passes through 16, 32, 64, 128, 256, 512 and 1024 slots.
  Fifo<Chunk> fifo;
  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t i = 0; i < 1000; ++i) fifo.push_back(Chunk{});
  EXPECT_EQ(g_allocations.load() - before, 7u);
  // Draining and refilling to the same depth reuses the slots.
  fifo.clear();
  for (std::uint32_t i = 0; i < 1000; ++i) fifo.push_back(Chunk{});
  EXPECT_EQ(g_allocations.load() - before, 7u);
}

}  // namespace
}  // namespace tls::net
