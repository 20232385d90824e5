#include "transport/flow.hpp"

#include <utility>

namespace tcn::transport {

std::uint32_t FlowSlab::open(net::Host& src, net::Host& dst,
                             const FlowSpec& spec, std::uint64_t flow_id) {
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
    ++reused_;
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    ++fresh_;
  }
  Slot& s = slots_[index];
  s.slab_free = false;
  s.src_addr = src.address();
  s.dst_addr = dst.address();
  s.sport = checkout_port(src);
  s.dport = checkout_port(dst);
  s.sink.emplace(dst, s.dport, spec.ack_dscp, spec.on_deliver,
                 SinkOptions::from(spec.tcp));
  s.sender.emplace(src, dst.address(), s.sport, s.dport, flow_id, spec.tcp,
                   spec.data_dscp, spec.ack_dscp);
  return index;
}

void FlowSlab::send(std::uint32_t index, std::uint64_t id, FlowSpec spec) {
  TcpSender& sender = *slots_[index].sender;
  TcpSender::MessageSpec msg;
  msg.size = spec.size;
  msg.dscp = std::move(spec.data_dscp);
  if (spec.on_complete) {
    msg.on_complete = [id, size = spec.size, service = spec.service,
                       start = sender.simulator().now(),
                       done = std::move(spec.on_complete)](
                          sim::Time fct, std::uint32_t timeouts) {
      done(FlowResult{id, size, service, start, fct, timeouts});
    };
  }
  sender.enqueue_message(std::move(msg));
}

std::uint32_t FlowSlab::launch(net::Host& src, net::Host& dst,
                               FlowSpec spec) {
  const std::uint64_t flow_id = ++launched_;
  const std::uint32_t index = open(src, dst, spec, flow_id);
  spec.data_dscp = nullptr;  // the connection default tags the message
  send(index, flow_id, std::move(spec));
  return index;
}

void FlowSlab::recycle(std::uint32_t index) {
  Slot& s = slots_[index];
  if (s.slab_free) {
    ++double_recycled_;
    return;
  }
  // Destroy transport state first: the sender cancels its retransmission
  // timer and both endpoints unbind their ports, so the ports are reusable
  // the moment they enter the free lists below.
  s.sender.reset();
  s.sink.reset();
  ports_[s.src_addr].push_back(s.sport);
  ports_[s.dst_addr].push_back(s.dport);
  s.src_addr = 0;
  s.dst_addr = 0;
  s.sport = 0;
  s.dport = 0;
  s.slab_free = true;
  ++recycled_;
  free_.push_back(index);
}

std::uint16_t FlowSlab::checkout_port(net::Host& host) {
  auto it = ports_.find(host.address());
  if (it != ports_.end() && !it->second.empty()) {
    const std::uint16_t port = it->second.back();
    it->second.pop_back();
    return port;
  }
  return host.allocate_port();
}

}  // namespace tcn::transport
