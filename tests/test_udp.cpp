#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "trace/trace.hpp"
#include "transport/udp.hpp"

namespace wehey::transport {
namespace {

using netsim::Demux;
using netsim::FifoDisc;
using netsim::Link;
using netsim::RateLimiterDisc;
using netsim::Simulator;
using netsim::TbfDisc;

trace::AppTrace cbr_trace(int packets, std::uint32_t size, Time gap) {
  trace::AppTrace t;
  t.transport = trace::Transport::Udp;
  for (int i = 0; i < packets; ++i) {
    t.packets.push_back({i * gap, size});
  }
  return t;
}

TEST(UdpReplay, DeliversAllOnCleanPath) {
  Simulator sim;
  Demux demux;
  Link link(sim, mbps(100), milliseconds(10),
            std::make_unique<FifoDisc>(0), &demux);
  UdpReplayReceiver rx(sim);
  demux.add_route(1, &rx);
  const auto t = cbr_trace(100, 1000, milliseconds(10));
  UdpReplaySender tx(sim, UdpConfig{}, 1, 0, &link, t, 0);
  sim.run();
  rx.finalize(tx.packets_scheduled(), sim.now());
  EXPECT_EQ(rx.received_packets(), 100u);
  EXPECT_TRUE(rx.loss_times().empty());
  EXPECT_EQ(tx.packets_scheduled(), 100u);
  EXPECT_EQ(tx.tx_times().size(), 100u);
}

TEST(UdpReplay, TimingFollowsTrace) {
  Simulator sim;
  Demux demux;
  Link link(sim, kGbps, milliseconds(5), std::make_unique<FifoDisc>(0),
            &demux);
  UdpReplayReceiver rx(sim);
  demux.add_route(1, &rx);
  const auto t = cbr_trace(10, 500, milliseconds(20));
  UdpReplaySender tx(sim, UdpConfig{}, 1, 0, &link, t, seconds(1));
  sim.run();
  ASSERT_EQ(rx.deliveries().size(), 10u);
  // First packet: sent at 1 s, arrives after ~5 ms propagation.
  EXPECT_NEAR(to_seconds(rx.deliveries().front().at), 1.005, 0.001);
  EXPECT_NEAR(to_seconds(rx.deliveries().back().at), 1.185, 0.001);
}

TEST(UdpReplay, DetectsLossFromGaps) {
  Simulator sim;
  Demux demux;
  // Policer that passes ~half the offered rate.
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(kbps(400), 2000, 2000);
  Link link(sim, mbps(100), milliseconds(10),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            &demux);
  UdpReplayReceiver rx(sim);
  demux.add_route(1, &rx);
  // 100 kB/s = 800 kbps offered against 400 kbps policed.
  const auto t = cbr_trace(500, 1000, milliseconds(10));
  UdpReplaySender tx(sim, UdpConfig{}, 1,
                     netsim::kDscpDifferentiated, &link, t, 0);
  sim.run();
  rx.finalize(tx.packets_scheduled(), sim.now());
  const double loss_rate =
      static_cast<double>(rx.loss_times().size()) / 500.0;
  EXPECT_NEAR(loss_rate, 0.5, 0.12);
  EXPECT_EQ(rx.received_packets() + rx.loss_times().size(), 500u);
}

TEST(UdpReplay, FinalizeAccountsTailLosses) {
  Simulator sim;
  UdpReplayReceiver rx(sim);
  // Nothing ever arrives; finalize charges all 5 packets at the given time.
  rx.finalize(5, seconds(45));
  ASSERT_EQ(rx.loss_times().size(), 5u);
  for (Time t : rx.loss_times()) EXPECT_EQ(t, seconds(45));
}

TEST(UdpReplay, MeasurementAssembly) {
  Simulator sim;
  Demux demux;
  Link link(sim, mbps(100), milliseconds(10),
            std::make_unique<FifoDisc>(0), &demux);
  UdpReplayReceiver rx(sim);
  demux.add_route(1, &rx);
  const auto t = cbr_trace(50, 1200, milliseconds(10));
  UdpReplaySender tx(sim, UdpConfig{}, 1, 0, &link, t, 0);
  sim.run();
  rx.finalize(tx.packets_scheduled(), sim.now());
  const auto m = udp_measurement(tx, rx);
  EXPECT_EQ(m.tx_times.size(), 50u);
  EXPECT_EQ(m.deliveries.size(), 50u);
  EXPECT_TRUE(m.loss_times.empty());
  EXPECT_EQ(m.start, 0);
  EXPECT_EQ(m.end, t.duration());
  // One-way delay ~10 ms.
  ASSERT_FALSE(m.rtt_ms.empty());
  EXPECT_NEAR(m.rtt_ms.front(), 10.0, 1.0);
}

TEST(UdpReplay, PoissonTraceStillDeliversEverything) {
  Simulator sim;
  Rng rng(5);
  Demux demux;
  Link link(sim, mbps(100), milliseconds(10),
            std::make_unique<FifoDisc>(0), &demux);
  UdpReplayReceiver rx(sim);
  demux.add_route(1, &rx);
  auto t = cbr_trace(200, 800, milliseconds(5));
  t = trace::poissonize(t, rng);
  UdpReplaySender tx(sim, UdpConfig{}, 1, 0, &link, t, 0);
  sim.run();
  rx.finalize(tx.packets_scheduled(), sim.now());
  EXPECT_EQ(rx.received_packets(), 200u);
  EXPECT_TRUE(rx.loss_times().empty());
}

}  // namespace
}  // namespace wehey::transport
