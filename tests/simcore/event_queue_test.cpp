#include "simcore/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace tls::sim {
namespace {

/// Deterministic 64-bit LCG for property tests (no std RNG, fixed streams).
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

/// Differential-test harness: a real EventQueue mirrored by a trivially
/// correct reference, an ordered set of (time, token) pairs. Every
/// operation checks that the two agree: cancel return values, pop order
/// and peek_time.
class RefModel {
 public:
  void schedule(Time t) {
    std::size_t token = all_.size();
    all_.push_back({t, true, q_.schedule(t, [this, token] {
                      fired_token_ = token;
                    })});
    pending_.insert({t, token});
  }
  void cancel(std::size_t token) {
    Ref& ref = all_[token];
    EXPECT_EQ(q_.cancel(ref.id), ref.live) << "token " << token;
    if (ref.live) {
      ref.live = false;
      pending_.erase({ref.at, token});
    }
  }
  void pop() {
    auto it = pending_.begin();
    ASSERT_EQ(q_.peek_time(), it->first);
    fired_token_ = all_.size();
    auto [t, cb] = q_.pop();
    cb();
    ASSERT_EQ(t, it->first);
    ASSERT_EQ(fired_token_, it->second);
    all_[it->second].live = false;
    horizon_ = t;
    pending_.erase(it);
  }
  std::size_t pending() const { return pending_.size(); }
  std::size_t issued() const { return all_.size(); }
  /// Time of the last pop.
  Time horizon() const { return horizon_; }
  const EventQueue& queue() const { return q_; }

 private:
  struct Ref {
    Time at;
    bool live;
    EventId id;
  };
  EventQueue q_;
  std::vector<Ref> all_;
  std::set<std::pair<Time, std::size_t>> pending_;
  std::size_t fired_token_ = 0;
  Time horizon_ = Time{0};
};

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(tls::sim::Time{30}, [&] { fired.push_back(3); });
  q.schedule(tls::sim::Time{10}, [&] { fired.push_back(1); });
  q.schedule(tls::sim::Time{20}, [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(tls::sim::Time{42}, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PeekTimeReturnsEarliest) {
  EventQueue q;
  q.schedule(tls::sim::Time{100}, [] {});
  q.schedule(tls::sim::Time{50}, [] {});
  EXPECT_EQ(q.peek_time(), tls::sim::Time{50});
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(tls::sim::Time{10}, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  EventId id = q.schedule(tls::sim::Time{10}, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventId id = q.schedule(tls::sim::Time{10}, [] {});
  q.pop().second();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueue, CancelledEventSkippedByPop) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(tls::sim::Time{10}, [&] { fired.push_back(1); });
  EventId mid = q.schedule(tls::sim::Time{20}, [&] { fired.push_back(2); });
  q.schedule(tls::sim::Time{30}, [&] { fired.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.schedule(tls::sim::Time{1}, [] {});
  q.schedule(tls::sim::Time{2}, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  bool fired = false;
  q.schedule(tls::sim::Time{1}, [&] { fired = true; });
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, ManyInterleavedScheduleCancelPop) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(tls::sim::Time{i % 17}, [&] { ++fired; }));
  }
  // Cancel every third event.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (q.cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired + cancelled, 100);
  EXPECT_EQ(cancelled, 34);
}

TEST(EventQueue, CancelAfterClearReturnsFalse) {
  EventQueue q;
  EventId stale = q.schedule(tls::sim::Time{10}, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(stale));
  // A handle issued before clear() must never touch an event scheduled
  // after it, even though the post-clear event is the queue's only entry.
  bool fired = false;
  q.schedule(tls::sim::Time{5}, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, DoubleCancelAcrossClearStaysFalse) {
  EventQueue q;
  EventId id = q.schedule(tls::sim::Time{10}, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  q.clear();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StaleHandleNeverTouchesSlotReuser) {
  // A freed callback slot is recycled by the next schedule(); the handle of
  // its previous occupant must stay dead, whether that occupant was
  // cancelled or fired.
  for (bool cancel_a : {true, false}) {
    EventQueue q;
    EventId keep = q.schedule(tls::sim::Time{100}, [] {});
    EventId a = q.schedule(tls::sim::Time{10}, [] {});
    if (cancel_a) {
      EXPECT_TRUE(q.cancel(a));
    } else {
      EXPECT_EQ(q.pop().first, tls::sim::Time{10});
    }
    bool b_fired = false;
    EventId b = q.schedule(tls::sim::Time{20}, [&] { b_fired = true; });
    EXPECT_EQ(b.slot, a.slot) << "schedule() should recycle the freed slot";
    EXPECT_NE(b.seq, a.seq);
    EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.peek_time(), tls::sim::Time{20});
    auto [t, cb] = q.pop();
    cb();
    EXPECT_EQ(t, tls::sim::Time{20});
    EXPECT_TRUE(b_fired);
    EXPECT_FALSE(q.cancel(b));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(keep));
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, StatsCountActivity) {
  EventQueue q;
  EventId a = q.schedule(tls::sim::Time{1}, [] {});
  q.schedule(tls::sim::Time{2}, [] {});
  q.schedule(tls::sim::Time{3}, [] {});
  q.cancel(a);
  q.pop();
  q.pop();
  EXPECT_EQ(q.stats().scheduled, 3u);
  EXPECT_EQ(q.stats().cancelled, 1u);
  EXPECT_EQ(q.stats().popped, 2u);
  EXPECT_EQ(q.stats().peak_pending, 3u);  // the cancelled key counts
}

TEST(EventQueue, EqualTimesFireInSchedulingOrderAcrossBucketBoundaries) {
  // Property: simultaneous events fire in scheduling order however many
  // of them pile onto one time. The times here are multiples of 4096 out
  // to ~2^26 drawn from only 16384 values, so 1000 events collide freely
  // and each tie group is spread across the levels of a deep heap.
  EventQueue q;
  Lcg rng{12345};
  std::vector<std::pair<Time, int>> fired;
  int k = 0;
  for (int rep = 0; rep < 500; ++rep) {
    Time t = static_cast<Time>(rng.next() % 16384) * 4096;
    // Two coincident events per draw; repeated draws of the same t pile
    // more on, all of which must preserve global scheduling order.
    for (int dup = 0; dup < 2; ++dup) {
      int token = k++;
      q.schedule(t, [&fired, t, token] { fired.emplace_back(t, token); });
    }
  }
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(k));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second)
          << "equal-time events fired out of scheduling order at t="
          << fired[i].first;
    }
  }
}

TEST(EventQueue, MatchesReferenceModelUnderRandomMix) {
  RefModel ref;
  Lcg rng{99};
  for (int op = 0; op < 20000; ++op) {
    std::uint64_t r = rng.next() % 100;
    if (r < 50 || ref.pending() == 0) {
      ref.schedule(ref.horizon() + static_cast<Time>(rng.next() % (1u << 20)));
    } else if (r < 75) {
      ref.cancel(rng.next() % ref.issued());
    } else {
      ASSERT_NO_FATAL_FAILURE(ref.pop());
    }
    ASSERT_EQ(ref.queue().size(), ref.pending());
  }
}

TEST(EventQueue, MatchesReferenceModelWithStandingSet) {
  // The paper workloads keep about 300 events pending: near-future
  // transmit timers beside far-future compute timers, some cancelled
  // before they fire. Refill to 300 after every pop or cancel, on a coarse
  // time grid so equal-time keys meet at every level of the heap.
  RefModel ref;
  Lcg rng{301};
  for (int op = 0; op < 20000; ++op) {
    if (ref.pending() < 300) {
      Time delay = rng.next() % 4 == 0
                       ? static_cast<Time>(rng.next() % 64) * 1'000'000
                       : static_cast<Time>(rng.next() % 16) * 1'000;
      ref.schedule(ref.horizon() + delay);
    } else if (rng.next() % 4 == 0) {
      // Recent handles: mostly still pending, some already fired.
      std::size_t back = rng.next() % std::min<std::size_t>(ref.issued(), 600);
      ref.cancel(ref.issued() - 1 - back);
    } else {
      ASSERT_NO_FATAL_FAILURE(ref.pop());
    }
    ASSERT_EQ(ref.queue().size(), ref.pending());
  }
  EXPECT_GT(ref.queue().stats().cancelled, 500u);
  EXPECT_GE(ref.queue().stats().peak_pending, 300u);
}

TEST(EventQueue, EqualTimesFireInSeqOrderWhenSlotOrderDisagrees) {
  // Keys order by (time, seq << 24 | slot). Reusing freed slots in reverse
  // hands later seqs lower slots, so only the seq bits can order these
  // equal-time events. The sizes straddle the 4-ary heap's level
  // boundaries (1, 5, 21, 85 keys fill whole levels).
  for (std::size_t n : {1u, 4u, 5u, 21u, 85u, 300u}) {
    EventQueue q;
    for (std::size_t i = 0; i < n; ++i) q.schedule(Time{1}, [] {});
    while (!q.empty()) q.pop();  // frees slots 0..n-1 in that order
    std::vector<std::size_t> fired;
    std::uint32_t prev_slot = static_cast<std::uint32_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
      EventId id = q.schedule(Time{42}, [&fired, i] { fired.push_back(i); });
      ASSERT_LT(id.slot, prev_slot) << "slots should be reused high first";
      prev_slot = id.slot;
    }
    EXPECT_EQ(q.stats().peak_pending, n);
    while (!q.empty()) q.pop().second();
    ASSERT_EQ(fired.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(fired[i], i) << "n=" << n;
  }
}

TEST(EventQueue, DenseBurstsAcrossSparseGapsMatchReference) {
  // Alternates dense bursts of near-coincident events, far-future
  // singletons, and pops, so the heap swings between deep and shallow
  // with many near-ties; every pop is checked against the reference.
  RefModel ref;
  Lcg rng{4242};
  for (int round = 0; round < 200; ++round) {
    std::uint64_t roll = rng.next() % 3;
    if (roll == 0) {
      // Dense burst: 100 events within a 512-tick span, so the heap fills
      // with near-ties that must still leave in (time, seq) order.
      Time base = ref.horizon() + static_cast<Time>(rng.next() % 1024);
      for (int i = 0; i < 100; ++i) {
        ref.schedule(base + static_cast<Time>(rng.next() % 512));
      }
    } else if (roll == 1) {
      // Sparse far-future singleton: it sinks to the bottom of the heap
      // and surfaces only after the bursts before it have drained.
      ref.schedule(ref.horizon() + static_cast<Time>(1 << 22) +
                   static_cast<Time>(rng.next() % (1u << 24)));
    } else {
      for (int i = 0; i < 40 && ref.pending() > 0; ++i) {
        ASSERT_NO_FATAL_FAILURE(ref.pop());
      }
    }
    ASSERT_EQ(ref.queue().size(), ref.pending());
  }
  while (ref.pending() > 0) ASSERT_NO_FATAL_FAILURE(ref.pop());
  EXPECT_TRUE(ref.queue().empty());
}

TEST(EventQueue, MillionScheduleCancelSubQuadratic) {
  // The seed binary-heap queue cancelled with an O(n) heap scan; a million
  // schedule+cancel pairs against a large pending set would take hours.
  // The liveness-table queue must finish well inside the CI budget, with
  // every handle answering exactly once.
  auto wall_start = std::chrono::steady_clock::now();
  EventQueue q;
  constexpr std::size_t kN = 1'000'000;
  Lcg rng{7};
  std::vector<EventId> ids;
  ids.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(rng.next() % (1u << 30)),
                             [] {}));
  }
  // First cancel of every even handle must succeed, the second must not.
  std::size_t bad = 0;
  for (std::size_t i = 0; i < kN; i += 2) {
    if (!q.cancel(ids[i])) ++bad;
  }
  for (std::size_t i = 0; i < kN; i += 2) {
    if (q.cancel(ids[i])) ++bad;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(q.size(), kN / 2);
  // Survivors pop in nondecreasing time order and their handles die.
  Time last = kTimeMin;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    if (t < last) ++bad;
    last = t;
    ++popped;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(popped, kN / 2);
  for (std::size_t i = 1; i < kN; i += 200'001) {
    EXPECT_FALSE(q.cancel(ids[i]));
  }
  EXPECT_EQ(q.stats().scheduled, kN);
  EXPECT_EQ(q.stats().cancelled, kN / 2);
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  // Generous even for sanitizer builds on one core; the quadratic seed
  // behavior would overshoot this by orders of magnitude.
  EXPECT_LT(secs, 120.0);
}

}  // namespace
}  // namespace tls::sim
