#include "workload/incast.hpp"

#include <memory>
#include <stdexcept>

namespace tcn::workload {

IncastGenerator::IncastGenerator(sim::Simulator& sim, FlowLauncher launch,
                                 std::vector<net::Host*> servers,
                                 net::Host* client, IncastConfig cfg,
                                 SpecFn spec_fn, QueryCb on_query_done)
    : sim_(sim),
      launch_(std::move(launch)),
      servers_(std::move(servers)),
      client_(client),
      cfg_(cfg),
      spec_fn_(std::move(spec_fn)),
      on_query_done_(std::move(on_query_done)),
      rng_(cfg.seed) {
  if (servers_.empty() || client_ == nullptr || !launch_ || !spec_fn_) {
    throw std::invalid_argument("IncastGenerator: incomplete setup");
  }
  if (cfg_.fanout == 0 || cfg_.fanout > servers_.size()) {
    throw std::invalid_argument("IncastGenerator: fanout out of range");
  }
  if (cfg_.response_bytes == 0) {
    throw std::invalid_argument("IncastGenerator: zero response size");
  }
}

void IncastGenerator::start() {
  if (issued_ < cfg_.num_queries) {
    sim_.schedule_in(cfg_.interval, [this]() { issue_query(); });
  }
}

void IncastGenerator::issue_query() {
  auto query = std::make_unique<PendingQuery>();
  query->result.query_id = next_query_id_++;
  query->result.start = sim_.now();
  query->outstanding = cfg_.fanout;
  PendingQuery* q = query.get();
  pending_.push_back(std::move(query));

  // Choose `fanout` distinct servers (partial Fisher-Yates over indices).
  std::vector<std::size_t> idx(servers_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (std::uint32_t k = 0; k < cfg_.fanout; ++k) {
    const auto j = rng_.uniform_int(k, idx.size() - 1);
    std::swap(idx[k], idx[j]);
  }

  for (std::uint32_t k = 0; k < cfg_.fanout; ++k) {
    transport::FlowSpec spec = spec_fn_(/*service=*/0, cfg_.response_bytes);
    spec.size = cfg_.response_bytes;
    // Wrap any caller-provided completion hook to track the fan-in.
    spec.on_deliver = nullptr;
    const auto wrapped = [this, q](const transport::FlowResult& r) {
      q->result.timeouts += r.timeouts;
      if (--q->outstanding == 0) {
        q->result.qct = sim_.now() - q->result.start;
        results_.push_back(q->result);
        if (on_query_done_) on_query_done_(q->result);
      }
    };
    // FlowSpec::on_complete is the flow's one completion hook, whichever
    // launcher (cold FlowSlab flow or pooled message) carries it.
    spec.on_complete = wrapped;
    launch_(*servers_[idx[k]], *client_, std::move(spec));
  }

  ++issued_;
  start();
}

}  // namespace tcn::workload
