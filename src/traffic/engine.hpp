// Open-loop flow-arrival engine.
//
// The closed-loop generators in src/workload schedule a fixed flow budget
// and stop; arrival pressure adapts to completions because the budget is
// finite and small. TrafficEngine is the opposite discipline: flows arrive
// on their own clock (Poisson or MMPP per tenant, optionally modulated by a
// diurnal schedule, plus an optional trace replay) whether or not the
// network keeps up. At load factor > 1 the active-flow population grows
// without bound -- by design; the experiment harness pairs the engine with a
// sim::RunBudget pending-event guard so overload terminates as a classified
// failure instead of an OOM.
//
// Memory discipline: all per-flow transport state lives in the run's
// transport::FlowSlab, recycled at completion, so a run's heap footprint
// tracks peak *concurrent* flows while lifetime completions run to tens of
// millions. Flow ids come from the per-run
// FlowUidScope; all randomness is per-tenant seeded, so sweep results are
// byte-identical for any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/host.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "traffic/arrival.hpp"
#include "traffic/spec.hpp"
#include "traffic/trace_replay.hpp"
#include "transport/flow.hpp"
#include "workload/traffic_gen.hpp"

namespace tcn::traffic {

/// Per-run flow-id counter, sibling of net::PacketUidScope. Installed by
/// run_fct_experiment; the engine draws from the innermost scope so ids are
/// per-run deterministic regardless of worker-thread interleaving.
class FlowUidScope {
 public:
  // Out of line next to the thread-local they touch (packet.cpp idiom): an
  // inline ctor in a foreign TU would go through the extern-TLS wrapper,
  // which GCC's sanitizers resolve to null.
  FlowUidScope() noexcept;
  ~FlowUidScope();

  FlowUidScope(const FlowUidScope&) = delete;
  FlowUidScope& operator=(const FlowUidScope&) = delete;

  std::uint64_t next() noexcept { return ++counter_; }
  [[nodiscard]] std::uint64_t issued() const noexcept { return counter_; }

  static FlowUidScope* current() noexcept;

 private:
  std::uint64_t counter_ = 0;
  FlowUidScope* prev_;  ///< shadowed scope restored on destruction
};

struct EngineConfig {
  /// Offered load as a fraction of the reference capacity. Unlike the
  /// closed-loop generators, values > 1 are legal: sustained overload is
  /// exactly what open-loop experiments exist to create.
  double load = 0.5;
  /// Stop scheduling tenant arrivals after this many (0 = unlimited; trace
  /// replay always runs to the end of the trace).
  std::uint64_t max_flows = 0;
  std::uint64_t seed = 1;
  /// Star converge pattern (hosts[1..] -> hosts[0]) when true; all-to-all
  /// with uniform dst != src otherwise. Mirrors the closed-loop generators.
  bool converge = true;
};

/// Schedules open-loop arrivals against a built topology and recycles flow
/// state through the run's FlowSlab. Must outlive the simulation run.
class TrafficEngine {
 public:
  using CompletionCb = std::function<void(const transport::FlowResult&)>;

  /// Flows open in `slab`, which the harness owns for the run. Loads the
  /// replay trace eagerly so bad traces fail before the run starts.
  TrafficEngine(sim::Simulator& sim, transport::FlowSlab& slab,
                std::vector<net::Host*> hosts, TrafficSpec spec,
                EngineConfig cfg, workload::SpecFn spec_fn,
                CompletionCb on_complete);

  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  /// Schedule the first arrival of every tenant chain and the replay chain.
  void start();

  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] std::uint64_t replayed() const noexcept { return replayed_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t active_peak() const noexcept {
    return active_peak_;
  }
  [[nodiscard]] std::uint64_t offered_bytes() const noexcept {
    return offered_bytes_;
  }
  [[nodiscard]] std::uint64_t achieved_bytes() const noexcept {
    return achieved_bytes_;
  }
  [[nodiscard]] std::uint64_t mmpp_transitions() const noexcept;

 private:
  struct Tenant {
    TenantSpec spec;
    const sim::Ecdf* sizes = nullptr;
    sim::Rng rng;
    std::optional<PoissonArrivals> poisson;
    std::optional<MmppArrivals> mmpp;
    obs::Counter* obs_arrivals = nullptr;

    explicit Tenant(std::uint64_t seed) : rng(seed) {}
  };

  void schedule_tenant(std::size_t tenant);
  void tenant_arrival(std::size_t tenant);
  void schedule_replay(std::size_t index);
  void replay_arrival(std::size_t index);
  void launch(net::Host& src, net::Host& dst, std::uint32_t service,
              std::uint64_t size, int dscp_override);
  void on_flow_complete(std::uint32_t slot, const transport::FlowResult& r);
  std::uint64_t next_flow_id();

  sim::Simulator& sim_;
  std::vector<net::Host*> hosts_;
  TrafficSpec spec_;
  EngineConfig cfg_;
  workload::SpecFn spec_fn_;
  CompletionCb on_complete_;
  transport::FlowSlab& slab_;
  DiurnalSchedule diurnal_;

  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<ReplayFlow> replay_;
  std::uint64_t fallback_flow_id_ = 0;  // when no FlowUidScope is installed

  std::uint64_t arrivals_ = 0;  // tenant arrivals + replayed flows
  std::uint64_t replayed_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t active_ = 0;
  std::uint64_t active_peak_ = 0;
  std::uint64_t offered_bytes_ = 0;
  std::uint64_t achieved_bytes_ = 0;

  // Null when metrics collection is off -- the PR 4 zero-cost discipline.
  obs::Counter* obs_arrivals_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_replayed_ = nullptr;
  obs::Counter* obs_offered_bytes_ = nullptr;
  obs::Counter* obs_achieved_bytes_ = nullptr;
  obs::Counter* obs_slab_reuses_ = nullptr;
  obs::Gauge* obs_active_ = nullptr;
};

}  // namespace tcn::traffic
