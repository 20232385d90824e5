// Packet model and the per-simulation packet pool.
//
// One struct covers TCP data/ACK segments and ping probes. Packets are owned
// by exactly one component at a time and moved along the path as a PacketPtr
// (a one-pointer unique_ptr whose stateless deleter reads the owning pool
// off the packet); queues, links and transports never share them. With a
// PacketPool::Scope installed, every make_packet() draws from a per-run free
// list and every PacketPtr destruction recycles into it, so steady-state
// packet churn performs zero heap allocations.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace tcn::net {

/// ECN codepoints from RFC 3168.
enum class Ecn : std::uint8_t {
  kNotEct = 0,  ///< not ECN-capable transport
  kEct0 = 1,
  kEct1 = 2,
  kCe = 3,  ///< congestion experienced
};

enum class PacketType : std::uint8_t {
  kData = 0,
  kAck = 1,
  kPing = 2,
  kPong = 3,
  kCnp = 4,  ///< DCQCN Congestion Notification Packet
};

/// Fixed L2-L4 header overhead carried by every packet (Ethernet + IP + TCP).
inline constexpr std::uint32_t kHeaderBytes = 40;
/// Default MSS; 1500B MTU minus headers.
inline constexpr std::uint32_t kDefaultMss = 1460;

class PacketPool;

struct Packet {
  std::uint64_t uid = 0;  ///< globally unique, for tracing

  PacketType type = PacketType::kData;
  std::uint32_t src = 0;  ///< source host address
  std::uint32_t dst = 0;  ///< destination host address
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint64_t flow = 0;  ///< flow id, for statistics

  std::uint32_t size = 0;     ///< total wire size in bytes (headers included)
  std::uint32_t payload = 0;  ///< TCP payload bytes carried
  std::uint64_t seq = 0;      ///< first payload byte (data packets)
  std::uint64_t ack = 0;      ///< cumulative ack (ACK packets)
  bool ece = false;           ///< ECN echo flag (ACK packets)

  /// SACK option: up to 3 [begin, end) blocks of out-of-order data held by
  /// the receiver (RFC 2018 carries at most 3-4 alongside timestamps).
  std::array<std::pair<std::uint64_t, std::uint64_t>, 3> sack{};
  std::uint8_t sack_count = 0;

  Ecn ecn = Ecn::kNotEct;
  std::uint8_t dscp = 0;  ///< service class; switches classify on this

  /// Per-hop enqueue timestamp; the egress port sets it on enqueue so
  /// sojourn-time AQMs (TCN, CoDel) can compute it at dequeue. Mirrors the
  /// 2B hardware metadata timestamp of Sec. 4.2.
  sim::Time enqueue_ts = 0;
  /// Application send timestamp (ping RTT measurement).
  sim::Time sent_ts = 0;

  [[nodiscard]] bool ect() const noexcept {
    return ecn == Ecn::kEct0 || ecn == Ecn::kEct1;
  }
  [[nodiscard]] bool ce() const noexcept { return ecn == Ecn::kCe; }

  /// Pool-internal: true while the packet sits on its pool's free list.
  /// Lets PacketPool detect double-recycle misuse without a side table;
  /// not a wire field and reset on every acquire.
  bool pool_free = false;
  /// The pool the packet returns to when its owner drops it; nullptr for a
  /// packet made outside any pool scope (plain-deleted instead). Set once
  /// by make_packet(), so a packet goes home even if scopes changed since.
  PacketPool* pool = nullptr;
  /// Queue-internal link: the next packet of the PacketQueue holding this
  /// one (nullptr at the tail and outside a queue). Not a wire field.
  Packet* next = nullptr;
};

/// Deleter behind PacketPtr: recycles into the packet's pool, or
/// plain-deletes a packet made outside any pool scope. Stateless, so a
/// PacketPtr is one pointer wide.
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;
};

/// Owning handle to a packet. Exactly one component holds it at a time;
/// destruction recycles pooled packets instead of freeing them.
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;
static_assert(sizeof(PacketPtr) == sizeof(Packet*));

/// Per-simulation packet free list.
//
// Packets are backed by a std::deque slab (stable addresses, freed only when
// the pool is destroyed); acquire() pops the free list LIFO -- cache-warm
// reuse -- and falls back to growing the slab. Single-threaded by design:
// one pool per simulation run, installed thread-locally via PacketPool::Scope
// exactly like PacketUidScope, so concurrent sweep jobs never contend or
// share packets.
//
// Lifetime rule: the pool must outlive every PacketPtr drawn from it --
// declare it before the Simulator/topology in a run (destruction is reverse
// order, so in-flight packets recycle into a still-live pool). Misuse
// downgrades gracefully: because slab memory is never freed while the pool
// lives, a double-recycle is detected via Packet::pool_free, counted, and
// dropped instead of corrupting the free list.
class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Pop a recycled packet (reset to a default-constructed state) or grow
  /// the slab. The uid is NOT assigned here -- make_packet() owns uids.
  [[nodiscard]] PacketPtr acquire();

  /// Return a packet to the free list. Called by PacketDeleter; callable
  /// directly in tests. Double-recycling the same packet is detected and
  /// ignored (see double_recycles()).
  void recycle(Packet* p) noexcept;

  /// Packets created fresh from the slab (heap growth events).
  [[nodiscard]] std::uint64_t fresh_allocs() const noexcept { return fresh_; }
  /// Packets served from the free list (zero-allocation acquires).
  [[nodiscard]] std::uint64_t reuses() const noexcept { return reused_; }
  /// Packets returned to the free list.
  [[nodiscard]] std::uint64_t recycles() const noexcept { return recycled_; }
  /// Detected double-recycle misuses (0 in a correct program).
  [[nodiscard]] std::uint64_t double_recycles() const noexcept {
    return double_recycled_;
  }
  /// Packets currently held by the simulation (acquired, not yet recycled).
  [[nodiscard]] std::uint64_t live() const noexcept {
    return fresh_ + reused_ - recycled_;
  }
  /// Free-list depth right now.
  [[nodiscard]] std::size_t free_size() const noexcept {
    return free_.size();
  }

  /// RAII scope installing this pool as the thread's make_packet() source.
  /// Nests like PacketUidScope (inner scope shadows, destructor restores).
  class Scope {
   public:
    explicit Scope(PacketPool& pool) noexcept;
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PacketPool* prev_;
  };

  /// Pool installed on this thread, or nullptr outside any scope.
  [[nodiscard]] static PacketPool* current() noexcept;

 private:
  std::deque<Packet> slab_;     ///< owns storage; addresses stable
  std::vector<Packet*> free_;   ///< LIFO free list into slab_
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t recycled_ = 0;
  std::uint64_t double_recycled_ = 0;
};

/// RAII scope that makes packet uid allocation per-simulation instead of
/// process-global. While a scope is alive on a thread, make_packet() draws
/// uids 1, 2, 3, ... from the scope's own counter, so per-run traces and
/// logs are identical regardless of thread interleaving or run order --
/// the determinism contract the parallel sweep runner relies on.
///
/// Scopes nest (an inner scope shadows the outer one and restores it on
/// destruction) and are thread-local: concurrent simulations on different
/// worker threads each install their own scope and never contend. Without a
/// scope, make_packet() falls back to the old process-wide atomic counter,
/// which stays unique but not reproducible across interleavings.
class PacketUidScope {
 public:
  PacketUidScope() noexcept;
  ~PacketUidScope();
  PacketUidScope(const PacketUidScope&) = delete;
  PacketUidScope& operator=(const PacketUidScope&) = delete;

  /// Next uid in this scope (1-based).
  std::uint64_t next() noexcept { return ++counter_; }

  /// Uids handed out so far.
  [[nodiscard]] std::uint64_t allocated() const noexcept { return counter_; }

 private:
  std::uint64_t counter_ = 0;
  PacketUidScope* prev_;  ///< shadowed scope restored on destruction
};

/// Factory: storage comes from the innermost PacketPool::Scope on this
/// thread (heap when none is installed); uids come from the innermost
/// PacketUidScope, or a process-wide atomic counter when no scope is
/// installed (uids are only for tracing and do not affect simulation
/// behaviour).
PacketPtr make_packet();

}  // namespace tcn::net
