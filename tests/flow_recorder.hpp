// Test helper: cold flows launched on a transport::FlowSlab, every
// FlowResult recorded in completion order through the flow's on_complete
// hook.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/host.hpp"
#include "transport/flow.hpp"

namespace tcn::transport {

struct FlowRecorder {
  FlowSlab slab;
  std::vector<FlowResult> results;

  /// Launch a cold flow (ids 1, 2, 3, ...); returns its slot.
  std::uint32_t launch(net::Host& src, net::Host& dst, FlowSpec spec) {
    spec.on_complete = [this](const FlowResult& r) { results.push_back(r); };
    return slab.launch(src, dst, std::move(spec));
  }

  [[nodiscard]] const TcpSender& sender(std::uint32_t slot) const {
    return *slab.at(slot).sender;
  }
};

}  // namespace tcn::transport
