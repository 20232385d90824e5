// Unit tests for the simulation engine: event ordering, cancellation,
// determinism, time arithmetic, RNG and empirical CDFs.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/ecdf.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace tcn::sim {
namespace {

TEST(Time, Constants) {
  EXPECT_EQ(kMicrosecond, 1'000);
  EXPECT_EQ(kMillisecond, 1'000'000);
  EXPECT_EQ(kSecond, 1'000'000'000);
}

TEST(Time, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(0.5), 500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(0.125)), 0.125);
}

TEST(Time, TransmissionTime) {
  // 1500B at 1Gbps = 12us.
  EXPECT_EQ(transmission_time(1500, 1'000'000'000), 12 * kMicrosecond);
  // 1500B at 10Gbps = 1.2us.
  EXPECT_EQ(transmission_time(1500, 10'000'000'000ULL), 1'200);
  // Rounds up: 1 byte at 3bps -> ceil(8/3 * 1e9).
  EXPECT_EQ(transmission_time(1, 3), (8 * kSecond + 2) / 3);
}

TEST(Time, TransmissionTimeNeverZeroForData) {
  EXPECT_GT(transmission_time(1, 100'000'000'000ULL), 0);
}

TEST(Simulator, RunsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, FifoWithinSameTimestamp) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  Time fired_at = -1;
  s.schedule_at(100, [&] {
    s.schedule_in(50, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator s;
  s.schedule_at(100, [&] {
    EXPECT_THROW(s.schedule_at(50, [] {}), std::invalid_argument);
  });
  s.run();
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelTwiceIsHarmless) {
  Simulator s;
  const EventId id = s.schedule_at(10, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(999'999));
  s.run();
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  s.schedule_at(30, [&] { ++count; });
  s.run(20);
  EXPECT_EQ(count, 2);  // t=20 inclusive
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, StopAbortsRun) {
  Simulator s;
  int count = 0;
  s.schedule_at(10, [&] {
    ++count;
    s.stop();
  });
  s.schedule_at(20, [&] { ++count; });
  s.run();
  EXPECT_EQ(count, 1);
  s.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Simulator, ReturnsExecutedCount) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_at(i, [] {});
  EXPECT_EQ(s.run(), 7u);
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Simulator, SelfReschedulingChain) {
  Simulator s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) s.schedule_in(5, tick);
  };
  s.schedule_at(0, tick);
  s.run();
  EXPECT_EQ(ticks, 100);
  EXPECT_EQ(s.now(), 99 * 5);
}

TEST(Simulator, CancelAfterFireDoesNotLeak) {
  Simulator s;
  std::vector<EventId> fired;
  for (int i = 0; i < 100; ++i) fired.push_back(s.schedule_at(i + 1, [] {}));
  s.run();
  ASSERT_EQ(s.pending(), 0u);
  // Regression: cancelling ids that already fired used to park them in the
  // cancelled set forever. With an empty heap they must be recognised as
  // stale immediately.
  for (const EventId id : fired) EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Simulator, StaleCancelBacklogBoundedByPending) {
  Simulator s;
  // A few far-future events keep the heap non-empty while many already-fired
  // ids get cancelled -- the leak scenario when timers race their own firing.
  for (int i = 0; i < 4; ++i) s.schedule_at(1'000'000 + i, [] {});
  std::vector<EventId> fired;
  for (int i = 0; i < 1000; ++i) fired.push_back(s.schedule_at(i + 1, [] {}));
  s.run(500'000);
  ASSERT_EQ(s.pending(), 4u);
  for (const EventId id : fired) s.cancel(id);
  EXPECT_LE(s.cancelled_backlog(), s.pending());
  // The far-future events were never cancelled and still run.
  EXPECT_EQ(s.run(), 4u);
  EXPECT_EQ(s.cancelled_backlog(), 0u);
}

TEST(Simulator, CancelInvalidAndUnknownIds) {
  Simulator s;
  s.schedule_at(10, [] {});
  EXPECT_FALSE(s.cancel(kInvalidEvent));
  EXPECT_FALSE(s.cancel(EventId{999}));  // never issued
  EXPECT_EQ(s.run(), 1u);
}

TEST(Simulator, EventStormWatchdogThrows) {
  Simulator s;
  s.set_event_storm_limit(1000);
  std::function<void()> chain = [&] { s.schedule_at(s.now(), chain); };
  s.schedule_at(5, chain);
  // A far-future RTO-like timer rides along; cancelling it after the storm
  // fires must be an O(1) tombstone with no leak.
  const EventId rto = s.schedule_at(1'000'000'000, [] {});
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_EQ(s.now(), 5);  // livelock was pinned at the stuck timestamp
  EXPECT_TRUE(s.cancel(rto));
  EXPECT_FALSE(s.cancel(rto));  // second cancel: stale ticket, no-op
  EXPECT_EQ(s.cancelled_backlog(), 1u);  // exactly the one tombstone
  EXPECT_LE(s.cancelled_backlog(), s.pending() + 1);
}

TEST(Simulator, CancelledFarFutureEventIsO1Tombstone) {
  Simulator s;
  // The satellite-6 scenario: far-future timers cancelled en masse must not
  // accumulate anywhere. The tombstones drain as the clock passes them.
  std::vector<EventId> timers;
  for (int i = 0; i < 1000; ++i) {
    timers.push_back(s.schedule_at(1'000'000 + i, [] {}));
  }
  int fired = 0;
  s.schedule_at(2'000'000, [&] { ++fired; });
  for (const EventId id : timers) EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(s.cancelled_backlog(), 1000u);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run(), 1u);  // only the live event executes
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.cancelled_backlog(), 0u);  // every tombstone discarded
}

TEST(Simulator, PeakPendingAndResizeTelemetry) {
  Simulator s;
  for (int i = 0; i < 500; ++i) s.schedule_at(i + 1, [] {});
  EXPECT_EQ(s.peak_pending(), 500u);
  s.run();
  EXPECT_EQ(s.peak_pending(), 500u);  // high-water mark survives the drain
  // 500 near-future events outgrow the 64-bucket ring: the calendar resized.
  EXPECT_GT(s.calendar_resizes(), 0u);
}

TEST(Simulator, EventBudgetThrowsWithKind) {
  Simulator s;
  s.set_budget({.max_events = 10});
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    s.schedule_in(1, tick);
  };
  s.schedule_at(0, tick);
  try {
    s.run();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kEvents);
  }
  EXPECT_EQ(ticks, 10);
}

TEST(Simulator, SimTimeBudgetThrowsWithKind) {
  Simulator s;
  s.set_budget({.max_sim_time = 100});
  s.schedule_at(50, [] {});   // within budget: runs
  s.schedule_at(200, [] {});  // past budget: throws instead of executing
  try {
    s.run();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kSimTime);
  }
  EXPECT_EQ(s.now(), 50);
}

TEST(Simulator, PendingBudgetActsAsOomGuard) {
  Simulator s;
  s.set_budget({.max_pending = 100});
  std::function<void()> fanout = [&] {
    for (int i = 0; i < 10; ++i) s.schedule_in(1, fanout);  // grows the heap
  };
  s.schedule_at(0, fanout);
  try {
    s.run();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kPending);
  }
}

TEST(Simulator, WallClockBudgetTripsOnARunawayRun) {
  Simulator s;
  s.set_budget({.max_wall_ms = 0.01});
  // Time advances every event, so neither the storm watchdog nor any
  // deterministic budget fires -- only the wall-clock watchdog can stop it.
  std::function<void()> forever = [&] { s.schedule_in(1, forever); };
  s.schedule_at(0, forever);
  try {
    s.run();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.kind(), BudgetExceeded::Kind::kWallClock);
  }
}

TEST(Simulator, ZeroBudgetsAreUnlimited) {
  Simulator s;
  s.set_budget({});
  int ran = 0;
  for (int i = 0; i < 50; ++i) s.schedule_at(i, [&ran] { ++ran; });
  EXPECT_NO_THROW(s.run());
  EXPECT_EQ(ran, 50);
}

TEST(Simulator, EventStormCounterResetsOnTimeAdvance) {
  Simulator s;
  s.set_event_storm_limit(10);
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) s.schedule_in(1, tick);  // time advances every event
  };
  s.schedule_at(0, tick);
  EXPECT_NO_THROW(s.run());
  EXPECT_EQ(ticks, 100);
}

TEST(Ring, AllocatesNothingUntilFirstPush) {
  Ring<int> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);
  Ring<int> moved(std::move(r));
  EXPECT_EQ(moved.capacity(), 0u);
  moved.push_back(1);
  EXPECT_EQ(moved.capacity(), 1u);
  EXPECT_EQ(moved.front(), 1);
}

TEST(Ring, FifoOrderAcrossGrowthAndWraparound) {
  // Interleave pushes and pops so the head wraps while the ring grows;
  // a non-trivial element type checks relocation on growth.
  Ring<std::string> r;
  std::size_t pushed = 0;
  std::size_t popped = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) r.push_back(std::to_string(pushed++));
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(r.front(), std::to_string(popped++));
      r.pop_front();
    }
    ASSERT_EQ(r.size(), pushed - popped);
    for (std::size_t i = 0; i < r.size(); ++i) {
      ASSERT_EQ(r[i], std::to_string(popped + i));
    }
  }
  // Capacity is a power of two that only grows to the peak depth.
  EXPECT_EQ(r.capacity(), 256u);
  while (!r.empty()) {
    ASSERT_EQ(r.front(), std::to_string(popped++));
    r.pop_front();
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_EQ(r.capacity(), 256u);
}

TEST(Ring, MoveAndDestructionReleaseHeldElements) {
  auto token = std::make_shared<int>(7);
  {
    Ring<std::shared_ptr<int>> a;
    for (int i = 0; i < 5; ++i) a.push_back(token);
    a.pop_front();
    EXPECT_EQ(token.use_count(), 5);
    Ring<std::shared_ptr<int>> b;
    b.push_back(token);
    b = std::move(a);  // releases b's element, takes a's four
    EXPECT_EQ(token.use_count(), 5);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.size(), 4u);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(3);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += r.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Ecdf, RejectsBadInput) {
  EXPECT_THROW(Ecdf(std::vector<Ecdf::Point>{}), std::invalid_argument);
  EXPECT_THROW(Ecdf({{1, 0.0}, {2, 0.5}}), std::invalid_argument);  // !=1 end
  EXPECT_THROW(Ecdf({{2, 0.0}, {1, 1.0}}), std::invalid_argument);  // order
  EXPECT_THROW(Ecdf({{1, 0.5}, {2, 0.2}, {3, 1.0}}), std::invalid_argument);
}

TEST(Ecdf, QuantileInterpolates) {
  const Ecdf e({{0, 0.0}, {100, 1.0}});
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 100.0);
}

TEST(Ecdf, CdfAtInverseOfQuantile) {
  const Ecdf e({{10, 0.0}, {20, 0.25}, {40, 0.75}, {100, 1.0}});
  for (const double p : {0.1, 0.25, 0.4, 0.75, 0.9}) {
    EXPECT_NEAR(e.cdf_at(e.quantile(p)), p, 1e-12);
  }
  EXPECT_DOUBLE_EQ(e.cdf_at(5.0), 0.0);
  EXPECT_DOUBLE_EQ(e.cdf_at(1000.0), 1.0);
}

TEST(Ecdf, MeanMatchesSampling) {
  const Ecdf e({{0, 0.0}, {10, 0.5}, {100, 1.0}});
  // Analytic: 0.5*5 + 0.5*55 = 30.
  EXPECT_DOUBLE_EQ(e.mean(), 30.0);
  Rng r(11);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += e.sample(r);
  EXPECT_NEAR(sum / n, 30.0, 0.3);
}

TEST(Ecdf, PointMassAtSingleValue) {
  const Ecdf e({{500, 1.0}});
  Rng r(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(e.sample(r), 500.0);
  EXPECT_DOUBLE_EQ(e.mean(), 500.0);
}

}  // namespace
}  // namespace tcn::sim
