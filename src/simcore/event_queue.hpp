// Pending-event set for the discrete-event simulator.
//
// A 4-ary min-heap keyed on (time, sequence number). The sequence number
// makes ordering of simultaneous events deterministic (FIFO by scheduling
// order), which in turn makes whole experiments reproducible.
//
// The heap holds only 16-byte (at, seq << 24 | slot) keys: seqs are unique
// and fill the high bits, so key order is (at, seq) order. Each callback
// lives in a slot table entry that also records the seq occupying it; freed
// slots are recycled through a free list. cancel() is O(1): it frees the
// slot and drops the callback. A key whose slot no longer holds its seq is
// a tombstone, discarded when it reaches the top of the heap. Sequence
// numbers are never reused, so a handle can never match a later occupant
// of its slot.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/check.hpp"
#include "simcore/time.hpp"

namespace tls::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
struct EventId {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// 4-ary heap of timed callbacks with stable ordering and O(1)
/// cancellation.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Internal activity counters; bench_simcore and the obs wiring read
  /// these to publish events/sec and cancellation behavior.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t popped = 0;
    /// Cancelled keys discarded on reaching the top of the heap.
    std::uint64_t tombstones_skipped = 0;
    /// Largest heap length seen, tombstones included.
    std::uint64_t peak_pending = 0;
    /// Always 0: the heap has no tiers to migrate between. Kept because
    /// perfbench/stack.cpp still reads them.
    std::uint64_t overflow_pulls = 0;
    std::uint64_t window_jumps = 0;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at absolute time `at`. Returns a handle usable with
  /// cancel(). Events at equal times fire in scheduling order.
  EventId schedule(Time at, Callback cb);

  /// Cancels a previously scheduled event in O(1). Returns true if the
  /// event was still pending (and is now guaranteed not to fire), false if
  /// it already fired, was already cancelled, or predates clear().
  bool cancel(EventId id);

  /// True when no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, not-yet-fired) events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event. Requires !empty().
  Time peek_time();

  /// Removes and returns the earliest live event. Requires !empty().
  /// The returned pair is (time, callback).
  std::pair<Time, Callback> pop();

  /// Drops everything, firing nothing. EventIds issued before clear()
  /// become stale: cancelling one returns false and can never affect an
  /// event scheduled afterwards.
  void clear();

  const Stats& stats() const { return stats_; }

 private:
  /// Heap entry: `tag` packs the event's seq above its 24-bit slot index.
  struct Key {
    Time at;
    std::uint64_t tag;
  };
  static_assert(sizeof(Key) == 16, "four keys per 64-byte cache line");
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = 1ull << (64 - kSlotBits);
  /// A live slot holds the seq of its event; 0 marks a free slot.
  struct Slot {
    std::uint64_t seq = 0;
    Callback cb;
  };

  /// Heap order, smallest (at, tag) at the root; strict, as tags are unique.
  static bool before(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.tag < b.tag;
  }
  bool live(const Key& k) const {
    return slots_[k.tag & kSlotMask].seq == k.tag >> kSlotBits;
  }
  /// Fill hole `i` with `k`, moving the hole up or down to keep heap order.
  void sift_up(std::size_t i, Key k);
  void sift_down(std::size_t i, Key k);
  void drop_root();
  /// Pops tombstones until the root is live. Requires !empty().
  void skip_tombstones();
  /// Frees `slot` and returns its callback.
  Callback release(std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  Stats stats_;
  // Time of the last popped event; pops must never go backwards or the
  // simulation clock (and therefore every derived metric) is corrupt.
  Time last_pop_time_ = kTimeMin;
};

}  // namespace tls::sim
