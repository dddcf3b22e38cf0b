// TCP sender/receiver: throughput, loss recovery, pacing, measurement.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "transport/tcp.hpp"

namespace wehey::transport {
namespace {

using netsim::Demux;
using netsim::FifoDisc;
using netsim::Link;
using netsim::Packet;
using netsim::PacketSink;
using netsim::Pipe;
using netsim::RateLimiterDisc;
using netsim::SackHandle;
using netsim::SackList;
using netsim::SackStore;
using netsim::Simulator;
using netsim::TbfDisc;

/// One TCP flow over a single bottleneck link with an ideal reverse path.
struct Harness {
  Simulator sim;
  SackStore sacks;
  std::unique_ptr<Demux> demux = std::make_unique<Demux>();
  std::unique_ptr<Link> link;
  std::unique_ptr<Pipe> ack_pipe;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpReceiver> receiver;

  Harness(Rate bw, Time one_way, std::unique_ptr<netsim::QueueDisc> disc,
          TcpConfig cfg = {}, std::uint8_t dscp = 0) {
    link = std::make_unique<Link>(sim, bw, one_way, std::move(disc),
                                  demux.get());
    ack_pipe = std::make_unique<Pipe>(sim, one_way);
    sender = std::make_unique<TcpSender>(sim, sacks, cfg, 1, dscp, link.get());
    receiver =
        std::make_unique<TcpReceiver>(sim, sacks, cfg, 1, ack_pipe.get());
    ack_pipe->set_next(sender.get());
    demux->add_route(1, receiver.get());
  }
};

TEST(Tcp, BulkTransferCompletesNearLinkRate) {
  Harness h(mbps(10), milliseconds(15),
            std::make_unique<FifoDisc>(125000));
  Time done = -1;
  h.sender->set_on_complete([&] { done = h.sim.now(); });
  h.sender->supply(5'000'000);
  h.sim.run(seconds(60));
  ASSERT_GT(done, 0);
  const double goodput = 5e6 * 8.0 / to_seconds(done);
  EXPECT_GT(goodput, mbps(6));  // >60% of a 10 Mbps link
  EXPECT_TRUE(h.sender->complete());
}

TEST(Tcp, NoLossOnUncongestedPath) {
  // A generous link and a small transfer: nothing should be retransmitted.
  Harness h(mbps(100), milliseconds(10),
            std::make_unique<FifoDisc>(2'000'000));
  h.sender->supply(500'000);
  h.sim.run(seconds(10));
  EXPECT_TRUE(h.sender->complete());
  EXPECT_EQ(h.sender->retransmissions(), 0u);
  EXPECT_EQ(h.sender->timeouts(), 0u);
  EXPECT_EQ(h.receiver->received_bytes(), 500'000);
}

TEST(Tcp, RttEstimateTracksPathRtt) {
  Harness h(mbps(100), milliseconds(20),
            std::make_unique<FifoDisc>(2'000'000));
  h.sender->supply(200'000);
  h.sim.run(seconds(5));
  // True RTT = 40 ms + small serialization.
  EXPECT_NEAR(to_milliseconds(h.sender->srtt()), 40.0, 5.0);
}

TEST(Tcp, RecoversThroughTokenBucketPolicer) {
  // 2 Mbps policer with a shallow queue: the flow must survive and land
  // near the policed rate.
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 10000, 10000);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            TcpConfig{}, netsim::kDscpDifferentiated);
  // Keep the flow backlogged for the whole measurement window.
  h.sender->supply(20'000'000);
  h.sim.run(seconds(30));
  const double rate =
      h.receiver->received_bytes() * 8.0 / to_seconds(h.sim.now());
  EXPECT_GT(rate, mbps(1.2));
  EXPECT_LE(rate, mbps(2.4));
  EXPECT_GT(h.sender->retransmissions(), 0u);
}

TEST(Tcp, RetransmissionsRecordedAsLossEvents) {
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 10000, 10000);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            TcpConfig{}, netsim::kDscpDifferentiated);
  h.sender->supply(2'000'000);
  h.sim.run(seconds(30));
  const auto& m = h.sender->measurement();
  EXPECT_EQ(m.loss_times.size(), h.sender->retransmissions());
  // Loss events are registered at retransmission times, within tx_times.
  EXPECT_GE(m.tx_times.size(), m.loss_times.size());
}

TEST(Tcp, PacingSpacesPackets) {
  TcpConfig paced;
  paced.pacing = true;
  Harness h(mbps(50), milliseconds(15), std::make_unique<FifoDisc>(0),
            paced);
  h.sender->supply(300'000);
  h.sim.run(seconds(5));
  const auto& tx = h.sender->measurement().tx_times;
  ASSERT_GT(tx.size(), 20u);
  // Count back-to-back transmissions (gap < 10 us).
  int adjacent = 0;
  for (std::size_t i = 1; i < tx.size(); ++i) {
    if (tx[i] - tx[i - 1] < microseconds(10)) ++adjacent;
  }
  // Paced: the vast majority of sends are spaced out.
  EXPECT_LT(static_cast<double>(adjacent) / tx.size(), 0.2);
}

TEST(Tcp, UnpacedSendsBursts) {
  TcpConfig unpaced;
  unpaced.pacing = false;
  Harness h(mbps(50), milliseconds(15), std::make_unique<FifoDisc>(0),
            unpaced);
  h.sender->supply(300'000);
  h.sim.run(seconds(5));
  const auto& tx = h.sender->measurement().tx_times;
  ASSERT_GT(tx.size(), 20u);
  int adjacent = 0;
  for (std::size_t i = 1; i < tx.size(); ++i) {
    if (tx[i] - tx[i - 1] < microseconds(10)) ++adjacent;
  }
  EXPECT_GT(static_cast<double>(adjacent) / tx.size(), 0.5);
}

TEST(Tcp, AppLimitedChunksAllDelivered) {
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<FifoDisc>(1'000'000));
  // Five 100 kB chunks, one per 200 ms.
  for (int i = 0; i < 5; ++i) {
    h.sim.schedule(milliseconds(200.0 * i),
                   [&] { h.sender->supply(100'000); });
  }
  h.sim.run(seconds(10));
  EXPECT_EQ(h.receiver->received_bytes(), 500'000);
  EXPECT_TRUE(h.sender->complete());
}

TEST(Tcp, CompletionCallbackFiresOnce) {
  Harness h(mbps(10), milliseconds(10),
            std::make_unique<FifoDisc>(500'000));
  int completions = 0;
  h.sender->set_on_complete([&] { ++completions; });
  h.sender->supply(50'000);
  h.sim.run(seconds(10));
  EXPECT_EQ(completions, 1);
}

TEST(Tcp, NewRenoFallbackWorks) {
  TcpConfig reno;
  reno.cc = CongestionControl::NewReno;
  Harness h(mbps(10), milliseconds(15),
            std::make_unique<FifoDisc>(125000), reno);
  Time done = -1;
  h.sender->set_on_complete([&] { done = h.sim.now(); });
  h.sender->supply(2'000'000);
  h.sim.run(seconds(60));
  ASSERT_GT(done, 0);
  EXPECT_GT(2e6 * 8.0 / to_seconds(done), mbps(4));
}

TEST(Tcp, ReceiverDelaySamplesReflectPath) {
  Harness h(mbps(100), milliseconds(25),
            std::make_unique<FifoDisc>(2'000'000));
  h.sender->supply(100'000);
  h.sim.run(seconds(5));
  ASSERT_FALSE(h.receiver->delay_samples_ms().empty());
  // One-way delay ~25 ms plus small serialization.
  for (double owd : h.receiver->delay_samples_ms()) {
    EXPECT_GT(owd, 24.0);
    EXPECT_LT(owd, 40.0);
  }
}

TEST(Tcp, SurvivesSevereThrottling) {
  // Offered load far above a 500 kbps policer with a tiny queue: the flow
  // must make steady forward progress (no livelock), even if slowly.
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(kbps(500), 6000, 4500);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            TcpConfig{}, netsim::kDscpDifferentiated);
  h.sender->supply(1'000'000);
  h.sim.run(seconds(30));
  const double rate =
      h.receiver->received_bytes() * 8.0 / to_seconds(h.sim.now());
  EXPECT_GT(rate, kbps(200));
}

TEST(Tcp, DelayedAcksHalveAckTraffic) {
  TcpConfig delayed;
  delayed.delayed_acks = true;
  Harness h(mbps(50), milliseconds(10),
            std::make_unique<FifoDisc>(2'000'000), delayed);
  h.sender->supply(1'000'000);
  h.sim.run(seconds(10));
  EXPECT_TRUE(h.sender->complete());
  // ~2 data segments per ACK on an in-order path.
  const double ratio = static_cast<double>(h.receiver->received_packets()) /
                       static_cast<double>(h.receiver->acks_sent());
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.4);
}

TEST(Tcp, DelayedAcksStillRecoverFromLoss) {
  TcpConfig delayed;
  delayed.delayed_acks = true;
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 15000, 15000);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            delayed, netsim::kDscpDifferentiated);
  h.sender->supply(15'000'000);
  h.sim.run(seconds(30));
  const double rate =
      h.receiver->received_bytes() * 8.0 / to_seconds(h.sim.now());
  // Out-of-order data is still ACKed immediately, so SACK recovery keeps
  // the flow near the policed rate.
  EXPECT_GT(rate, mbps(1.2));
}

TEST(Tcp, DelayedAckTimerFlushesTail) {
  TcpConfig delayed;
  delayed.delayed_acks = true;
  Harness h(mbps(50), milliseconds(10),
            std::make_unique<FifoDisc>(2'000'000), delayed);
  // A single odd segment: only the delayed-ACK timer can acknowledge it.
  h.sender->supply(1000);
  h.sim.run(seconds(5));
  EXPECT_TRUE(h.sender->complete());
  EXPECT_EQ(h.receiver->acks_sent(), 1u);
}

/// Keeps every packet it receives.
struct Capture final : PacketSink {
  std::vector<Packet> packets;
  void receive(Packet pkt) override { packets.push_back(pkt); }
};

/// Calls `on_packet` on each packet, then forwards it to `next`.
struct Tap final : PacketSink {
  std::function<void(const Packet&)> on_packet;
  PacketSink* next = nullptr;
  void receive(Packet pkt) override {
    on_packet(pkt);
    next->receive(pkt);
  }
};

/// A sender config that puts `segments` full segments on the wire at once
/// on supply(): no pacing, and a window larger than the burst.
TcpConfig burst_config(int segments) {
  TcpConfig cfg;
  cfg.pacing = false;
  cfg.initial_cwnd_segments = 2.0 * segments;
  return cfg;
}

TEST(Tcp, SackReportsSixteenHighestRangesHighestFirst) {
  constexpr int kSegments = 40;
  const TcpConfig cfg = burst_config(kSegments);
  Simulator sim;
  SackStore sacks;
  Capture wire, acks;
  TcpSender sender(sim, sacks, cfg, 1, 0, &wire);
  TcpReceiver receiver(sim, sacks, cfg, 1, &acks);
  sender.supply(std::int64_t{kSegments} * cfg.mss);
  ASSERT_EQ(wire.packets.size(), static_cast<std::size_t>(kSegments));

  // Deliver only the odd segments: 20 holes, 20 out-of-order ranges.
  for (int i = 1; i < kSegments; i += 2) receiver.receive(wire.packets[i]);
  ASSERT_EQ(acks.packets.size(), 20u);
  // Only the last ACK goes on to the sender; retire the others' lists.
  for (std::size_t i = 0; i + 1 < acks.packets.size(); ++i) {
    ASSERT_NE(acks.packets[i].sack, netsim::kNoSack);
    sacks.release(acks.packets[i].sack);
  }
  const Packet& last = acks.packets.back();
  ASSERT_NE(last.sack, netsim::kNoSack);
  const SackList& list = sacks.at(last.sack);
  ASSERT_EQ(list.used, netsim::kMaxSackBlocks);
  for (int b = 0; b < list.used; ++b) {
    const auto seq =
        static_cast<std::uint64_t>(kSegments - 1 - 2 * b) * cfg.mss;
    EXPECT_EQ(list.blocks[b].start, seq) << "block " << b;
    EXPECT_EQ(list.blocks[b].end, seq + cfg.mss) << "block " << b;
  }

  sender.receive(last);
  EXPECT_EQ(sender.sacked_bytes(),
            std::int64_t{netsim::kMaxSackBlocks} * cfg.mss);
  EXPECT_EQ(sacks.live(), 0u);
}

TEST(Tcp, InOrderAcksCarryNoSackList) {
  Harness h(mbps(100), milliseconds(10),
            std::make_unique<FifoDisc>(2'000'000));
  h.sender->supply(500'000);
  h.sim.run(seconds(10));
  ASSERT_TRUE(h.sender->complete());
  ASSERT_EQ(h.sender->retransmissions(), 0u);
  EXPECT_EQ(h.sacks.slots(), 0u);
}

TEST(Tcp, SackStoreHoldsOnlyTheAcksInFlight) {
  // A lossy 2,000-segment transfer: the SACK store's high-water mark stays
  // at the SACK-carrying ACKs simultaneously on the reverse path, however
  // many such ACKs the transfer sends.
  const TcpConfig cfg;
  Simulator sim;
  SackStore sacks;
  Demux demux;
  Link link(sim, mbps(10), milliseconds(15), std::make_unique<FifoDisc>(15'000),
            &demux);
  Tap into_pipe, out_of_pipe;
  Pipe ack_pipe(sim, milliseconds(15), &out_of_pipe);
  TcpSender sender(sim, sacks, cfg, 1, 0, &link);
  TcpReceiver receiver(sim, sacks, cfg, 1, &into_pipe);
  demux.add_route(1, &receiver);

  std::uint64_t sack_acks = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t peak_in_flight = 0;
  into_pipe.next = &ack_pipe;
  into_pipe.on_packet = [&](const Packet& p) {
    if (p.sack == netsim::kNoSack) return;
    ++sack_acks;
    peak_in_flight = std::max(peak_in_flight, ++in_flight);
  };
  out_of_pipe.next = &sender;
  out_of_pipe.on_packet = [&](const Packet& p) {
    if (p.sack != netsim::kNoSack) --in_flight;
  };

  sender.supply(std::int64_t{2000} * cfg.mss);
  sim.run(seconds(120));
  ASSERT_TRUE(sender.complete());
  EXPECT_GT(sender.retransmissions(), 0u);
  EXPECT_GT(sack_acks, 10 * peak_in_flight);
  EXPECT_LE(sacks.slots(), peak_in_flight);
  EXPECT_EQ(sacks.live(), 0u);
}

TEST(TcpDeathTest, StaleOrUnknownSackHandleAborts) {
  SackStore sacks;
  const SackHandle h = sacks.acquire();
  sacks.release(h);
  EXPECT_DEATH((void)sacks.at(h), "Precondition failed");
  EXPECT_DEATH(sacks.release(h), "Precondition failed");
  EXPECT_DEATH((void)sacks.at(netsim::kNoSack), "Precondition failed");
  EXPECT_DEATH((void)sacks.at(h + 1), "Precondition failed");  // never acquired
  // The slot is recycled under a new generation: the old handle stays dead.
  const SackHandle reacquired = sacks.acquire();
  EXPECT_EQ(sacks.slots(), 1u);
  EXPECT_NE(reacquired, h);
  EXPECT_DEATH((void)sacks.at(h), "Precondition failed");
  sacks.release(reacquired);
}

TEST(TcpDeathTest, AckDeliveredTwiceAbortsAtTheSender) {
  const TcpConfig cfg = burst_config(3);
  Simulator sim;
  SackStore sacks;
  Capture wire, acks;
  TcpSender sender(sim, sacks, cfg, 1, 0, &wire);
  TcpReceiver receiver(sim, sacks, cfg, 1, &acks);
  sender.supply(std::int64_t{3} * cfg.mss);
  ASSERT_EQ(wire.packets.size(), 3u);
  receiver.receive(wire.packets[1]);  // out of order: the ACK carries SACK
  ASSERT_EQ(acks.packets.size(), 1u);
  ASSERT_NE(acks.packets[0].sack, netsim::kNoSack);
  sender.receive(acks.packets[0]);
  EXPECT_DEATH(sender.receive(acks.packets[0]), "Precondition failed");
}

// Sweep: bulk transfers across bandwidths complete with sane utilization.
class TcpBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(TcpBandwidthSweep, ReasonableUtilization) {
  const Rate bw = mbps(GetParam());
  Harness h(bw, milliseconds(15),
            std::make_unique<FifoDisc>(static_cast<std::int64_t>(
                bytes_in(bw, milliseconds(100)))));
  const std::int64_t bytes = static_cast<std::int64_t>(bw / 8.0 * 5);  // ~5 s
  Time done = -1;
  h.sender->set_on_complete([&] { done = h.sim.now(); });
  h.sender->supply(bytes);
  h.sim.run(seconds(120));
  ASSERT_GT(done, 0) << "transfer did not complete";
  const double utilization = bytes * 8.0 / to_seconds(done) / bw;
  EXPECT_GT(utilization, 0.5);
}

INSTANTIATE_TEST_SUITE_P(Rates, TcpBandwidthSweep,
                         ::testing::Values(2.0, 5.0, 10.0, 20.0, 50.0));

}  // namespace
}  // namespace wehey::transport
