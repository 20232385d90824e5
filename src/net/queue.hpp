// A single FIFO packet queue with byte accounting.
//
// Intrusive: the queue links its packets through Packet::next and holds only
// head, tail and two counters, so an idle queue costs 32 bytes and no heap
// (a switch port has up to 8 queues, most of them empty at any moment).
// While queued, a packet is owned by the queue: push() takes the PacketPtr's
// ownership and pop() hands it back. A queue destroyed while holding
// packets releases each of them through PacketDeleter, so pooled packets
// recycle into their pool -- which must therefore outlive the queue, the
// same rule as for any other PacketPtr holder.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "net/packet.hpp"

namespace tcn::net {

class PacketQueue {
 public:
  PacketQueue() noexcept = default;
  PacketQueue(PacketQueue&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        tail_(std::exchange(other.tail_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  PacketQueue& operator=(PacketQueue&& other) noexcept {
    if (this != &other) {
      clear();
      head_ = std::exchange(other.head_, nullptr);
      tail_ = std::exchange(other.tail_, nullptr);
      size_ = std::exchange(other.size_, 0);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  PacketQueue(const PacketQueue&) = delete;
  PacketQueue& operator=(const PacketQueue&) = delete;
  ~PacketQueue() { clear(); }

  void push(PacketPtr p) {
    Packet* raw = p.release();
    assert(raw->next == nullptr);
    bytes_ += raw->size;
    if (tail_ == nullptr) {
      head_ = raw;
    } else {
      tail_->next = raw;
    }
    tail_ = raw;
    ++size_;
  }

  /// Precondition: !empty().
  PacketPtr pop() noexcept {
    Packet* raw = head_;
    head_ = raw->next;
    if (head_ == nullptr) tail_ = nullptr;
    raw->next = nullptr;
    --size_;
    bytes_ -= raw->size;
    return PacketPtr(raw);
  }

  /// Head packet, or nullptr when empty.
  [[nodiscard]] const Packet* front() const noexcept { return head_; }

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  /// Release every queued packet (recycling pooled ones), front first.
  void clear() noexcept {
    while (head_ != nullptr) pop();
  }

  Packet* head_ = nullptr;
  Packet* tail_ = nullptr;
  std::size_t size_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace tcn::net
