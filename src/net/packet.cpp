#include "net/packet.hpp"

#include <atomic>

namespace tcn::net {
namespace {

// Innermost uid scope installed on this thread; nullptr outside any scope.
thread_local PacketUidScope* tls_uid_scope = nullptr;
// Innermost packet pool installed on this thread; nullptr outside any scope.
thread_local PacketPool* tls_pool = nullptr;

}  // namespace

PacketUidScope::PacketUidScope() noexcept : prev_(tls_uid_scope) {
  tls_uid_scope = this;
}

PacketUidScope::~PacketUidScope() { tls_uid_scope = prev_; }

void PacketDeleter::operator()(Packet* p) const noexcept {
  if (p == nullptr) return;
  if (p->pool != nullptr) {
    p->pool->recycle(p);
  } else {
    delete p;
  }
}

PacketPtr PacketPool::acquire() {
  Packet* p;
  if (free_.empty()) {
    p = &slab_.emplace_back();
    ++fresh_;
  } else {
    p = free_.back();
    free_.pop_back();
    // Recycled packets must be indistinguishable from fresh ones: full
    // reset, including pool_free (the assignment clears it).
    *p = Packet{};
    ++reused_;
  }
  p->pool = this;
  return PacketPtr(p);
}

void PacketPool::recycle(Packet* p) noexcept {
  if (p == nullptr) return;
  if (p->pool_free) {
    // Double recycle: the packet is already on the free list. Pushing it
    // again would hand the same storage to two owners later; dropping the
    // call keeps the free list consistent (slab storage is never freed
    // while the pool lives, so this is memory-safe, just counted).
    ++double_recycled_;
    return;
  }
  p->pool_free = true;
  free_.push_back(p);
  ++recycled_;
}

PacketPool::Scope::Scope(PacketPool& pool) noexcept : prev_(tls_pool) {
  tls_pool = &pool;
}

PacketPool::Scope::~Scope() { tls_pool = prev_; }

PacketPool* PacketPool::current() noexcept { return tls_pool; }

PacketPtr make_packet() {
  PacketPtr p = tls_pool != nullptr
                    ? tls_pool->acquire()
                    : PacketPtr(new Packet());
  if (tls_uid_scope != nullptr) {
    p->uid = tls_uid_scope->next();
  } else {
    static std::atomic<std::uint64_t> next_uid{1};
    p->uid = next_uid.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

}  // namespace tcn::net
