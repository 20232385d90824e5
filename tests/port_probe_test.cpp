// Port set-up cost, asserted as heap allocation counts.
//
// This binary overrides global operator new with a counting wrapper (the
// packet_pool_test pattern), so it can pin that a port -- its queues, its
// scheduler's per-queue state, and its probe taken by the run's metrics
// registry and time-series sampler -- costs a fixed number of heap
// allocations however many queues it has. Queues and scheduler rings
// allocate nothing until a packet arrives, and metrics names are built when
// a snapshot is exported, not per queue at construction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "net/fifo_scheduler.hpp"
#include "net/marker.hpp"
#include "net/port.hpp"
#include "obs/metrics.hpp"
#include "obs/port_probe.hpp"
#include "obs/timeseries.hpp"
#include "sched/dwrr.hpp"
#include "sched/pifo.hpp"
#include "sched/sp_hybrid.hpp"
#include "sched/sp_pifo.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

// See packet_pool_test: GCC's -Wmismatched-new-delete misfires on these
// replacement deallocation functions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace tcn {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

using SchedFactory = std::unique_ptr<net::Scheduler> (*)(std::size_t queues);

std::unique_ptr<net::Scheduler> fifo(std::size_t) {
  return std::make_unique<net::FifoScheduler>();
}

/// SP1 + DWRR over the remaining queues (the leaf-spine scheduler).
std::unique_ptr<net::Scheduler> sp_dwrr(std::size_t queues) {
  return std::make_unique<sched::SpHybridScheduler>(
      1, std::make_unique<sched::DwrrScheduler>(
             std::vector<std::uint64_t>(queues, 1'500)));
}

std::unique_ptr<net::Scheduler> sp_pifo(std::size_t) {
  return std::make_unique<sched::SpPifoScheduler>(
      8, sched::PifoScheduler::priority_program());
}

/// Heap allocations made by one Port constructor with `num_queues`
/// queues, built with or without a metrics registry and a sampler scope
/// installed. Everything but the constructor itself -- the scheduler
/// included -- is set up outside the counted span.
std::uint64_t port_allocs(std::size_t num_queues, bool observed,
                          SchedFactory make_sched = fifo) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  obs::TimeSeriesConfig ts_cfg;
  ts_cfg.interval = 100 * sim::kMicrosecond;
  obs::TimeSeries series(ts_cfg);
  std::optional<obs::MetricsRegistry::Scope> metrics_scope;
  std::optional<obs::TimeSeries::Scope> series_scope;
  if (observed) {
    metrics_scope.emplace(registry);
    series_scope.emplace(series);
  }
  net::PortConfig cfg;
  cfg.num_queues = num_queues;
  std::unique_ptr<net::Scheduler> sched = make_sched(num_queues);
  std::unique_ptr<net::Marker> marker = std::make_unique<net::NullMarker>();
  std::string name = "leaf0.p10";  // short enough for the inline buffer

  const std::uint64_t before = allocs();
  const net::Port port(sim, std::move(name), cfg, std::move(sched),
                       std::move(marker));
  return allocs() - before;
}

TEST(PortProbe, ObservingAPortCostsTheSameAllocationsForAnyQueueCount) {
  const auto observer_cost = [](std::size_t queues) {
    return port_allocs(queues, true) - port_allocs(queues, false);
  };
  const std::uint64_t one = observer_cost(1);
  EXPECT_GT(one, 0u);  // the histograms block and the consumers' lists
  EXPECT_EQ(observer_cost(8), one);
  EXPECT_EQ(observer_cost(32), one);
}

/// Heap allocations made by snapshot() of a registry holding one idle port
/// with `num_queues` queues.
std::uint64_t snapshot_allocs(std::size_t num_queues) {
  obs::MetricsRegistry registry;
  obs::PortProbe probe("leaf0.p10", num_queues);
  registry.attach(probe);
  const std::uint64_t before = allocs();
  const obs::MetricsSnapshot snap = registry.snapshot();
  return allocs() - before;
}

TEST(PortProbe, SnapshotCopiesAPortWithoutNamingItsKeys) {
  // One record per port: its queues share one block, and no per-key name
  // is built until the snapshot is exported.
  const std::uint64_t one = snapshot_allocs(1);
  EXPECT_EQ(snapshot_allocs(8), one);
  EXPECT_EQ(snapshot_allocs(32), one);
}

TEST(PortAllocations, QueueCountDoesNotChangeTheCount) {
  // Idle queues are intrusive packet lists and the schedulers' per-queue
  // state is rings that allocate on their first push, so a port's set-up
  // allocations do not grow with its queue count. SP/DWRR needs at least
  // two queues (one strict-priority queue plus one DWRR queue).
  EXPECT_EQ(port_allocs(8, false, fifo), port_allocs(1, false, fifo));
  EXPECT_EQ(port_allocs(8, false, sp_dwrr), port_allocs(2, false, sp_dwrr));
  EXPECT_EQ(port_allocs(8, false, sp_pifo), port_allocs(1, false, sp_pifo));
  EXPECT_EQ(port_allocs(8, true, sp_pifo), port_allocs(1, true, sp_pifo));
}

}  // namespace
}  // namespace tcn
