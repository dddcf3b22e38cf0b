// FigureOneNetwork features beyond the standard replay flow: traceroute
// synthesis, route churn, the jittered access link, QUIC replays, the
// one-pending-event replay schedule, and ReplayMeasurement helpers used by
// the figure benches.
#include <gtest/gtest.h>

#include "experiments/network.hpp"
#include "experiments/params.hpp"
#include "stats/descriptive.hpp"
#include "topology/construction.hpp"
#include "trace/apps.hpp"
#include "trace/background.hpp"

namespace wehey::experiments {
namespace {

NetworkParams basic_params() {
  NetworkParams p;
  p.bw_nc1 = mbps(20);
  p.bw_nc2 = mbps(20);
  p.bw_c = mbps(40);
  return p;
}

TEST(NetworkTraceroute, RecordsMatchTopology) {
  netsim::Simulator sim;
  Rng rng(3);
  FigureOneNetwork net(sim, basic_params(), rng);
  const auto tr1 = net.traceroute(1);
  const auto tr2 = net.traceroute(2);
  EXPECT_EQ(tr1.server, "s1");
  EXPECT_EQ(tr2.server, "s2");
  EXPECT_TRUE(tr1.last_hop_matches_dst_asn());
  EXPECT_TRUE(tr1.alias_consistent());
  // The two records form a suitable pair converging inside the ISP.
  std::string convergence;
  EXPECT_TRUE(topology::suitable_pair(tr1, tr2,
                                      FigureOneNetwork::kClientAsn,
                                      &convergence));
  EXPECT_EQ(convergence, "100.0.1.1");
}

TEST(NetworkTraceroute, RouteChurnBreaksSuitability) {
  netsim::Simulator sim;
  Rng rng(5);
  FigureOneNetwork net(sim, basic_params(), rng);
  net.set_route_churn(true);
  EXPECT_FALSE(topology::suitable_pair(net.traceroute(1), net.traceroute(2),
                                       FigureOneNetwork::kClientAsn));
}

TEST(AccessLink, JitterVariesDeliveryRate) {
  // A CBR UDP stream through a jittered access link shows interval
  // throughputs both above and below the nominal mean.
  netsim::Simulator sim;
  Rng rng(7);
  auto params = basic_params();
  params.access_rate = mbps(1.2);
  params.access_jitter_sigma = 0.5;
  params.access_update_interval = seconds(1);
  FigureOneNetwork net(sim, params, rng);

  trace::AppTrace t;
  t.transport = trace::Transport::Udp;
  for (int i = 0; i < 4000; ++i) {
    t.packets.push_back({i * milliseconds(5), 1000});  // 1.6 Mbps offered
  }
  const int id = net.start_udp_replay(1, t, 0);
  net.run(seconds(20));
  const auto rep = net.report(id, 0, seconds(20));
  const auto samples = rep.meas.throughput_over_time(seconds(1));
  ASSERT_GE(samples.size(), 15u);
  // Capacity clipping at varying rates: substantial spread across seconds.
  const double cov = stats::stddev(samples) / stats::mean(samples);
  EXPECT_GT(cov, 0.1);
}

TEST(NetworkQuic, ReplayThrottledLikeTcp) {
  auto cfg = default_scenario("Netflix", 11);
  cfg.replay_duration = seconds(15);
  const auto derived = derive(cfg);
  netsim::Simulator sim;
  Rng rng(11);
  FigureOneNetwork net(sim, derived.net, rng);
  Rng trace_rng(cfg.seed * 0x9e3779b9ULL + 17);
  auto t = trace::make_tcp_app_trace(cfg.base_trace_duration, trace_rng);
  t = trace::extend(t, cfg.replay_duration);
  const int id1 = net.start_quic_replay(1, t, 0);
  const int id2 = net.start_quic_replay(2, t, milliseconds(5));
  net.run(cfg.replay_duration);
  const auto r1 = net.report(id1, 0, cfg.replay_duration);
  const auto r2 = net.report(id2, milliseconds(5), cfg.replay_duration);
  // Both replays ran, were throttled below the trace rate, and recorded
  // loss events.
  EXPECT_GT(r1.avg_throughput_bps, kbps(200));
  EXPECT_LT(r1.avg_throughput_bps, derived.trace_rate);
  EXPECT_GT(r1.meas.lost_packets(), 0u);
  EXPECT_GT(r2.meas.transmitted_packets(), 100u);
}

// Replays pre-time one event per trace packet; each replay (and each
// background workload) must still hold exactly one pending event, however
// long its trace, or the event heap grows with the trace again.
TEST(NetworkReplay, EachReplayHoldsOnePendingEvent) {
  netsim::Simulator sim;
  Rng rng(19);
  FigureOneNetwork net(sim, basic_params(), rng);
  Rng trace_rng(23);
  const Time duration = seconds(45);
  const auto tcp = trace::make_tcp_app_trace(duration, trace_rng);
  const auto udp = trace::make_udp_app_trace("Zoom", duration, trace_rng);
  trace::BackgroundConfig bg;
  bg.duration = duration;
  const auto flows = trace::generate_background(bg, trace_rng);
  ASSERT_GT(tcp.packets.size(), 1000u);
  ASSERT_GT(udp.packets.size(), 1000u);
  ASSERT_GT(flows.size(), 100u);

  std::size_t pending = sim.pending_events();
  net.start_tcp_replay(1, tcp, 0, transport::TcpConfig{}, 3);
  EXPECT_EQ(sim.pending_events(), ++pending);
  net.start_udp_replay(2, udp, 0);
  EXPECT_EQ(sim.pending_events(), ++pending);
  net.start_quic_replay(2, tcp, milliseconds(5));
  EXPECT_EQ(sim.pending_events(), ++pending);
  net.attach_background(1, flows);
  EXPECT_EQ(sim.pending_events(), ++pending);
}

TEST(Measure, ThroughputOverTimeWindows) {
  netsim::ReplayMeasurement m;
  m.start = 0;
  m.end = seconds(4);
  m.deliveries = {{milliseconds(100), 1000},
                  {milliseconds(1500), 2000},
                  {milliseconds(3900), 4000}};
  const auto series = m.throughput_over_time(seconds(1));
  ASSERT_EQ(series.size(), 4u);
  EXPECT_DOUBLE_EQ(series[0], 8000.0);
  EXPECT_DOUBLE_EQ(series[1], 16000.0);
  EXPECT_DOUBLE_EQ(series[2], 0.0);
  EXPECT_DOUBLE_EQ(series[3], 32000.0);
}

TEST(Measure, DurationAndRates) {
  netsim::ReplayMeasurement m;
  m.start = seconds(2);
  m.end = seconds(12);
  EXPECT_EQ(m.duration(), seconds(10));
  EXPECT_DOUBLE_EQ(m.loss_rate(), 0.0);  // no transmissions
  m.tx_times = {seconds(3), seconds(4)};
  m.loss_times = {seconds(4)};
  EXPECT_DOUBLE_EQ(m.loss_rate(), 0.5);
}

}  // namespace
}  // namespace wehey::experiments
