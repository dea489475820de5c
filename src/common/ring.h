// FIFO ring buffer that keeps its capacity.
//
// The SCU/HSSL link path queues a handful of words, packets or frames per
// link and drains them as fast as they arrive.  std::deque frees and
// re-allocates a node block every few hundred bytes of that churn; a Ring
// doubles up to the workload's high-water mark once and then never touches
// the heap again.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace qcdoc {

template <typename T>
class Ring {
 public:
  Ring() = default;
  /// Pre-size for `capacity` elements (rounded up to a power of two), so a
  /// ring whose occupancy is bounded never allocates after construction.
  explicit Ring(std::size_t capacity) {
    std::size_t n = 1;
    while (n < capacity) n *= 2;
    buf_.resize(n);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }

  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }
  /// The i-th element from the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }
  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  /// Drop every element; the capacity stays.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 4 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace qcdoc
