#include "simcore/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace tls::sim {

EventId EventQueue::schedule(Time at, Callback cb) {
  TLS_CHECK(cb, "scheduling a null callback at t=", at);
  std::uint32_t slot = 0;
  if (free_.empty()) {
    TLS_CHECK(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
              "event queue slot table full");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  std::uint64_t seq = next_seq_++;
  slots_[slot] = Slot{seq, std::move(cb)};
  heap_.push_back(Key{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
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

void EventQueue::skip_tombstones() {
  while (!live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
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
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
  --live_;
  ++stats_.popped;
  // Event-time monotonicity: the queue must deliver times in nondecreasing
  // order or the simulation clock would run backwards.
  TLS_CHECK(top.at >= last_pop_time_, "event queue went backwards: popped t=",
            top.at, " after t=", last_pop_time_);
  last_pop_time_ = top.at;
  return {top.at, release(top.slot)};
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
