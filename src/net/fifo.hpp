// Ring-buffer FIFO behind every queueing point in the network substrate:
// the qdisc bands, the WDRR per-flow queues and round list, the ingress
// wait queue and the switch.
//
// Elements are stored whole, one contiguous record per slot, in a
// power-of-two std::vector that doubles from 16 slots and never shrinks, so
// a queue cycling at a steady depth allocates nothing. Service order is
// strict FIFO; the container has no time, RNG or iteration-order
// dependence.
#pragma once

#include <cstddef>
#include <vector>

#include "simcore/check.hpp"

namespace tls::net {

/// Copies and moves are the members' defaults; a moved-from Fifo may only
/// be destroyed or assigned to.
template <typename T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(const T& value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = value;
    ++size_;
  }

  const T& front() const {
    TLS_DCHECK(size_ > 0, "front() on an empty Fifo");
    return slots_[head_];
  }

  void pop_front() {
    TLS_DCHECK(size_ > 0, "pop_front() on an empty Fifo");
    head_ = (head_ + 1) & mask();
    --size_;
  }

  /// front() + pop_front() in one call.
  T take_front() {
    T value = front();
    pop_front();
    return value;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Appends all queued elements to `out` in service order (drain support).
  void append_to(std::vector<T>& out) const {
    out.reserve(out.size() + size_);
    for (std::size_t k = 0; k < size_; ++k) {
      out.push_back(slots_[(head_ + k) & mask()]);
    }
  }

 private:
  static constexpr std::size_t kInitialCapacity = 16;

  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<T> next(slots_.empty() ? kInitialCapacity : 2 * slots_.size());
    for (std::size_t k = 0; k < size_; ++k) {
      next[k] = slots_[(head_ + k) & mask()];
    }
    slots_.swap(next);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tls::net
