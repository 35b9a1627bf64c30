// A double-ended queue over one growable power-of-two ring.
//
// push_front, push_back and pop_front are O(1) and allocate only when the
// ring is full and doubles, so a queue that has reached its working-set size
// allocates nothing more (std::deque allocates a fresh node block every few
// pushes as its contents drift through memory). Elements keep deque order:
// index 0 is the front. T must be default-constructible and copyable.
#ifndef LAMINAR_SRC_COMMON_RING_DEQUE_H_
#define LAMINAR_SRC_COMMON_RING_DEQUE_H_

#include <cstddef>
#include <vector>

namespace laminar {

template <typename T>
class RingDeque {
 public:
  class const_iterator {
   public:
    const_iterator(const RingDeque* ring, size_t index) : ring_(ring), index_(index) {}
    const T& operator*() const { return (*ring_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    friend bool operator==(const const_iterator&, const const_iterator&) = default;

   private:
    const RingDeque* ring_;
    size_t index_;
  };

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  T& front() { return buf_[head_]; }
  const T& operator[](size_t i) const { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  void push_back(const T& value) {
    GrowIfFull();
    buf_[(head_ + size_) & (buf_.size() - 1)] = value;
    ++size_;
  }
  void push_front(const T& value) {
    GrowIfFull();
    head_ = (head_ + buf_.size() - 1) & (buf_.size() - 1);
    buf_[head_] = value;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }
  // Keeps the ring's capacity.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void GrowIfFull() {
    if (size_ < buf_.size()) {
      return;
    }
    std::vector<T> grown(buf_.empty() ? 8 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = (*this)[i];
    }
    buf_.swap(grown);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity is zero or a power of two
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_COMMON_RING_DEQUE_H_
