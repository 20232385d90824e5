// Growable FIFO ring that allocates nothing until its first push.
//
// The per-queue and per-flow FIFOs beside the packet path -- a rank
// scheduler's per-queue entries, a round-robin active list, a connection's
// pending messages -- are empty most of the time: a 144-host leaf-spine has
// thousands of port queues and most never hold a packet. std::deque
// allocates a map and a 512-byte chunk for every instance, even an idle
// one. A Ring is one pointer and three 32-bit counters until something is
// pushed; then its power-of-two buffer doubles as needed. It never shrinks,
// so it plateaus at its peak depth and steady-state churn allocates nothing.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace tcn::sim {

template <typename T>
class Ring {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "Ring relocates elements when it grows");

 public:
  Ring() noexcept = default;
  Ring(Ring&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        cap_(std::exchange(other.cap_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Ring& operator=(Ring&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      cap_ = std::exchange(other.cap_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() { release(); }

  void push_back(T value) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(data_ + index(size_))) T(std::move(value));
    ++size_;
  }

  /// Precondition: !empty().
  void pop_front() noexcept {
    assert(size_ > 0);
    data_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Precondition: !empty().
  [[nodiscard]] T& front() noexcept { return data_[head_]; }
  [[nodiscard]] const T& front() const noexcept { return data_[head_]; }

  /// i-th element from the front. Precondition: i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[index(i)];
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slots allocated (0 until the first push; a power of two after).
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

 private:
  [[nodiscard]] std::size_t index(std::size_t i) const noexcept {
    return (head_ + i) & (cap_ - 1);
  }

  void grow() {
    const std::uint32_t cap = cap_ == 0 ? 1 : 2 * cap_;
    T* data = std::allocator<T>{}.allocate(cap);
    for (std::uint32_t i = 0; i < size_; ++i) {
      T& old = data_[index(i)];
      ::new (static_cast<void*>(data + i)) T(std::move(old));
      old.~T();
    }
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, cap_);
    data_ = data;
    cap_ = cap;
    head_ = 0;
  }

  void release() noexcept {
    while (size_ > 0) pop_front();
    if (data_ != nullptr) std::allocator<T>{}.deallocate(data_, cap_);
    data_ = nullptr;
    cap_ = 0;
    head_ = 0;
  }

  T* data_ = nullptr;
  std::uint32_t cap_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace tcn::sim
