// The QUIC-like transport: delivery, loss detection accuracy, recovery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/queue.hpp"
#include "netsim/simulator.hpp"
#include "transport/quic.hpp"

namespace wehey::transport {
namespace {

using netsim::Demux;
using netsim::FifoDisc;
using netsim::Link;
using netsim::Packet;
using netsim::PacketSink;
using netsim::Pipe;
using netsim::RateLimiterDisc;
using netsim::SackStore;
using netsim::Simulator;
using netsim::TbfDisc;

struct Harness {
  Simulator sim;
  SackStore sacks;
  Demux demux;
  std::unique_ptr<Link> link;
  std::unique_ptr<Pipe> ack_pipe;
  std::unique_ptr<QuicSender> sender;
  std::unique_ptr<QuicReceiver> receiver;

  Harness(Rate bw, Time one_way, std::unique_ptr<netsim::QueueDisc> disc,
          QuicConfig cfg = {}, std::uint8_t dscp = 0) {
    link = std::make_unique<Link>(sim, bw, one_way, std::move(disc), &demux);
    ack_pipe = std::make_unique<Pipe>(sim, one_way);
    sender = std::make_unique<QuicSender>(sim, sacks, cfg, 1, dscp,
                                          link.get());
    receiver =
        std::make_unique<QuicReceiver>(sim, sacks, cfg, 1, ack_pipe.get());
    ack_pipe->set_next(sender.get());
    demux.add_route(1, receiver.get());
  }
};

TEST(Quic, BulkTransferCompletes) {
  Harness h(mbps(10), milliseconds(15),
            std::make_unique<FifoDisc>(125000));
  Time done = -1;
  h.sender->set_on_complete([&] { done = h.sim.now(); });
  h.sender->supply(5'000'000);
  h.sim.run(seconds(60));
  ASSERT_GT(done, 0);
  EXPECT_GT(5e6 * 8.0 / to_seconds(done), mbps(5.5));
  EXPECT_EQ(h.receiver->received_stream_bytes(), 5'000'000);
}

TEST(Quic, NoLossOnCleanPath) {
  Harness h(mbps(100), milliseconds(10),
            std::make_unique<FifoDisc>(0));
  h.sender->supply(500'000);
  h.sim.run(seconds(10));
  EXPECT_TRUE(h.sender->complete());
  EXPECT_EQ(h.sender->packets_declared_lost(), 0u);
}

TEST(Quic, LossCountMatchesActualDrops) {
  // QUIC's packet-number space gives the sender an exact count of lost
  // packets (up to spurious time-threshold declarations) — unlike TCP's
  // retransmission-based over-count.
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 15000, 15000);
  auto disc =
      std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf));
  auto* disc_raw = disc.get();
  Harness h(mbps(50), milliseconds(15), std::move(disc), QuicConfig{},
            netsim::kDscpDifferentiated);
  h.sender->supply(6'000'000);
  h.sim.run(seconds(40));
  const auto actual_drops = disc_raw->throttled_drops();
  ASSERT_GT(actual_drops, 10u);
  const double ratio =
      static_cast<double>(h.sender->packets_declared_lost()) /
      static_cast<double>(actual_drops);
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.2);
}

TEST(Quic, RecoversNearPolicedRate) {
  auto fifo = std::make_unique<FifoDisc>(0);
  auto tbf = std::make_unique<TbfDisc>(mbps(2), 15000, 15000);
  Harness h(mbps(50), milliseconds(15),
            std::make_unique<RateLimiterDisc>(std::move(fifo), std::move(tbf)),
            QuicConfig{}, netsim::kDscpDifferentiated);
  h.sender->supply(20'000'000);
  h.sim.run(seconds(30));
  const double rate = h.receiver->received_stream_bytes() * 8.0 /
                      to_seconds(h.sim.now());
  EXPECT_GT(rate, mbps(1.3));
  EXPECT_LE(rate, mbps(2.3));
}

TEST(Quic, StreamReassemblyDeduplicates) {
  Harness h(mbps(10), milliseconds(10),
            std::make_unique<FifoDisc>(60000));
  h.sender->supply(2'000'000);
  h.sim.run(seconds(30));
  // Whatever was retransmitted, the stream byte count never exceeds the
  // supplied payload.
  EXPECT_EQ(h.receiver->received_stream_bytes(), 2'000'000);
}

TEST(Quic, RttEstimateTracksPath) {
  Harness h(mbps(100), milliseconds(20),
            std::make_unique<FifoDisc>(0));
  h.sender->supply(300'000);
  h.sim.run(seconds(5));
  EXPECT_NEAR(to_milliseconds(h.sender->srtt()), 40.0, 6.0);
}

TEST(Quic, AckReportsSixteenHighestRangesHighestFirst) {
  constexpr int kPackets = 40;
  struct Capture final : PacketSink {
    std::vector<Packet> packets;
    void receive(Packet pkt) override { packets.push_back(pkt); }
  };
  QuicConfig cfg;
  cfg.pacing = false;
  cfg.initial_cwnd_packets = 2.0 * kPackets;
  Simulator sim;
  SackStore sacks;
  Capture wire, acks;
  QuicSender sender(sim, sacks, cfg, 1, 0, &wire);
  QuicReceiver receiver(sim, sacks, cfg, 1, &acks);
  sender.supply(std::int64_t{kPackets} * cfg.max_payload);
  ASSERT_EQ(wire.packets.size(), static_cast<std::size_t>(kPackets));

  // Deliver only the odd packet numbers: 20 ranges with a hole below each.
  for (int i = 1; i < kPackets; i += 2) receiver.receive(wire.packets[i]);
  ASSERT_EQ(acks.packets.size(), 20u);
  for (std::size_t i = 0; i + 1 < acks.packets.size(); ++i) {
    sacks.release(acks.packets[i].sack);
  }
  const Packet& last = acks.packets.back();
  const netsim::SackList& list = sacks.at(last.sack);
  ASSERT_EQ(list.used, netsim::kMaxSackBlocks);
  for (int b = 0; b < list.used; ++b) {
    const auto pn = static_cast<std::uint64_t>(kPackets - 1 - 2 * b);
    EXPECT_EQ(list.blocks[b].start, pn) << "block " << b;
    EXPECT_EQ(list.blocks[b].end, pn + 1) << "block " << b;
  }

  // At the sender: the 16 reported packets (9, 11, ..., 39) are acked;
  // every other packet three or more below packet 39 is declared lost —
  // the 19 even ones below 37 and the 4 odd ones the ACK left out.
  sender.receive(last);
  EXPECT_EQ(sender.packets_declared_lost(), 23u);
  EXPECT_EQ(sacks.live(), 0u);
}

}  // namespace
}  // namespace wehey::transport
