#include "simcore/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace tls::sim {

EventId EventQueue::schedule(Time at, Callback cb) {
  TLS_CHECK(cb, "scheduling a null callback at t=", at);
  TLS_CHECK(next_seq_ < kSeqLimit, "event queue seq limit 2^40 reached");
  std::uint32_t slot = 0;
  if (free_.empty()) {
    TLS_CHECK(slots_.size() < kSlotMask, "event queue full: 2^24-1 slots");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  std::uint64_t seq = next_seq_++;
  slots_[slot].seq = seq;
  slots_[slot].cb = std::move(cb);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{at, seq << kSlotBits | slot});
  if (heap_.size() > stats_.peak_pending) stats_.peak_pending = heap_.size();
  ++live_;
  ++stats_.scheduled;
  return EventId{seq, slot};
}

EventQueue::Callback EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  Callback cb = std::move(s.cb);
  s.cb = nullptr;
  free_.push_back(slot);
  return cb;
}

bool EventQueue::cancel(EventId id) {
  // Fired, cancelled, cleared and never-issued handles all fail the seq
  // match: a slot only ever holds the seq of its current occupant.
  if (id.seq == 0 || id.slot >= slots_.size() ||
      slots_[id.slot].seq != id.seq) {
    return false;
  }
  TLS_CHECK(live_ > 0, "cancel with zero live events (seq=", id.seq, ")");
  release(id.slot);
  --live_;
  ++stats_.cancelled;
  return true;
}

void EventQueue::sift_up(std::size_t i, Key k) {
  while (i > 0 && before(k, heap_[(i - 1) / 4])) {
    heap_[i] = heap_[(i - 1) / 4];
    i = (i - 1) / 4;
  }
  heap_[i] = k;
}

void EventQueue::sift_down(std::size_t i, Key k) {
  const std::size_t n = heap_.size();
  while (4 * i + 1 < n) {
    std::size_t best = 4 * i + 1;
    const std::size_t end = std::min(best + 4, n);
    for (std::size_t c = best + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

void EventQueue::drop_root() {
  Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::skip_tombstones() {
  while (!live(heap_.front())) {
    drop_root();
    ++stats_.tombstones_skipped;
  }
}

Time EventQueue::peek_time() {
  TLS_CHECK(!empty(), "peek_time() on an empty event queue");
  skip_tombstones();
  return heap_.front().at;
}

std::pair<Time, EventQueue::Callback> EventQueue::pop() {
  TLS_CHECK(!empty(), "pop() on an empty event queue");
  skip_tombstones();
  Key top = heap_.front();
  drop_root();
  --live_;
  ++stats_.popped;
  // Event-time monotonicity: the queue must deliver times in nondecreasing
  // order or the simulation clock would run backwards.
  TLS_CHECK(top.at >= last_pop_time_, "event queue went backwards: popped t=",
            top.at, " after t=", last_pop_time_);
  last_pop_time_ = top.at;
  return {top.at, release(static_cast<std::uint32_t>(top.tag & kSlotMask))};
}

void EventQueue::clear() {
  // Stale EventIds stay dead: every slot is dropped and the seq allocator
  // keeps running, so no later occupant can match a pre-clear() handle.
  heap_.clear();
  slots_.clear();
  free_.clear();
  live_ = 0;
  last_pop_time_ = kTimeMin;
}

}  // namespace tls::sim
