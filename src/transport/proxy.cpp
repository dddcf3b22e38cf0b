#include "transport/proxy.hpp"

#include "common/check.hpp"

namespace wehey::transport {

SplitTcpProxy::SplitTcpProxy(netsim::Simulator& sim,
                             netsim::SackStore& sacks,
                             const TcpConfig& cfg,
                             netsim::FlowId upstream_flow,
                             netsim::FlowId downstream_flow,
                             std::uint8_t dscp,
                             netsim::PacketSink* upstream_ack_out,
                             netsim::PacketSink* downstream) {
  WEHEY_EXPECTS(upstream_ack_out != nullptr);
  WEHEY_EXPECTS(downstream != nullptr);
  downstream_tx_ = std::make_unique<TcpSender>(sim, sacks, cfg,
                                               downstream_flow, dscp,
                                               downstream);
  upstream_rx_ = std::make_unique<TcpReceiver>(sim, sacks, cfg, upstream_flow,
                                               upstream_ack_out);
  // Every in-order byte read from the upstream connection is written to
  // the downstream one.
  upstream_rx_->set_on_deliver([this](std::int64_t bytes) {
    relayed_ += bytes;
    downstream_tx_->supply(bytes);
  });
}

}  // namespace wehey::transport
