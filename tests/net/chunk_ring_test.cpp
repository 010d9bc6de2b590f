// Fifo unit tests: FIFO fidelity across growth and wraparound, full field
// round-tripping, and stamped elements surviving growth. The cases keep
// the ChunkRing.* names of the ring Fifo replaced, so their history stays
// traceable.
#include "net/fifo.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/chunk.hpp"

namespace tls::net {
namespace {

Chunk make_chunk(std::uint32_t index) {
  Chunk c;
  c.flow = 1000 + index;
  c.size = tls::net::Bytes{100} + static_cast<Bytes>(index);
  c.index = index;
  c.band = tls::net::BandId{static_cast<std::int32_t>(index % 5)};
  c.weight = 0.5 + 0.01 * index;
  c.dst = tls::net::HostId{static_cast<std::int32_t>(index % 7)};
  c.job = static_cast<std::int32_t>(index % 3);
  c.last = index % 2 == 0;
  c.kind = index % 2 == 0 ? FlowKind::kGradientUpdate : FlowKind::kControl;
  c.enqueued_at = 10 * static_cast<sim::Time>(index);
  return c;
}

void expect_same(const Chunk& a, const Chunk& b) {
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.band, b.band);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.job, b.job);
  EXPECT_EQ(a.last, b.last);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.enqueued_at, b.enqueued_at);
}

TEST(ChunkRing, RoundTripsEveryField) {
  Fifo<Chunk> ring;
  for (std::uint32_t i = 0; i < 3; ++i) ring.push_back(make_chunk(i));
  for (std::uint32_t i = 0; i < 3; ++i) {
    expect_same(ring.take_front(), make_chunk(i));
  }
  EXPECT_TRUE(ring.empty());
}

TEST(ChunkRing, FifoAcrossGrowthAndWraparound) {
  Fifo<Chunk> ring;
  // Interleave pushes and pops so head_ walks around the ring while the
  // ring grows through several capacities.
  std::uint32_t next_push = 0;
  std::uint32_t next_pop = 0;
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 7; ++k) ring.push_back(make_chunk(next_push++));
    for (int k = 0; k < 5; ++k) {
      ASSERT_FALSE(ring.empty());
      expect_same(ring.take_front(), make_chunk(next_pop++));
    }
  }
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(next_push - next_pop));
  while (!ring.empty()) expect_same(ring.take_front(), make_chunk(next_pop++));
  EXPECT_EQ(next_pop, next_push);
}

TEST(ChunkRing, StampLaneSurvivesGrowth) {
  Fifo<StampedChunk> ring;
  // Fill beyond the initial capacity and beyond one doubling, with a pop
  // first so the copied range is offset from slot zero.
  ring.push_back({make_chunk(0), tls::sim::Time{0}});
  ring.pop_front();
  for (std::uint32_t i = 1; i <= 100; ++i) {
    ring.push_back({make_chunk(i), static_cast<sim::Time>(1000 + i)});
  }
  for (std::uint32_t i = 1; i <= 100; ++i) {
    EXPECT_EQ(ring.front().at, static_cast<sim::Time>(1000 + i));
    expect_same(ring.take_front().chunk, make_chunk(i));
  }
}

TEST(ChunkRing, AppendToPreservesServiceOrder) {
  Fifo<Chunk> ring;
  for (std::uint32_t i = 0; i < 10; ++i) ring.push_back(make_chunk(i));
  ring.pop_front();
  ring.pop_front();
  std::vector<Chunk> out;
  out.push_back(make_chunk(99));  // existing content must be kept
  ring.append_to(out);
  ASSERT_EQ(out.size(), 9u);
  expect_same(out[0], make_chunk(99));
  for (std::uint32_t i = 2; i < 10; ++i) {
    expect_same(out[i - 1], make_chunk(i));
  }
  EXPECT_EQ(ring.size(), 8u);  // append_to does not consume
}

TEST(ChunkRing, ClearThenReuse) {
  Fifo<StampedChunk> ring;
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.push_back({make_chunk(i), tls::sim::Time{1}});
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ring.push_back({make_chunk(7), tls::sim::Time{42}});
  EXPECT_EQ(ring.front().at, tls::sim::Time{42});
  expect_same(ring.take_front().chunk, make_chunk(7));
}

TEST(ChunkRing, MoveTransfersArena) {
  Fifo<Chunk> a;
  for (std::uint32_t i = 0; i < 5; ++i) a.push_back(make_chunk(i));
  Fifo<Chunk> b = std::move(a);
  EXPECT_EQ(b.size(), 5u);
  Fifo<Chunk> c;
  c.push_back(make_chunk(9));
  c = std::move(b);
  EXPECT_EQ(c.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) expect_same(c.take_front(), make_chunk(i));
}

}  // namespace
}  // namespace tls::net
