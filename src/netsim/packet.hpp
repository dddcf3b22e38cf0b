// Simulated packets and the sink interface network elements implement.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/time.hpp"

namespace wehey::netsim {

using FlowId = std::uint32_t;

/// DSCP class used by the differentiation classifier (Appendix C.1):
/// packets with dscp=1 are directed to the token-bucket filter, dscp=0
/// traffic bypasses it.
inline constexpr std::uint8_t kDscpDefault = 0;
inline constexpr std::uint8_t kDscpDifferentiated = 1;

enum class PacketKind : std::uint8_t { Data, Ack };

/// A SACK block: received bytes (QUIC: packet numbers) in [start, end).
struct SackBlock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// A real TCP option carries at most 3-4 SACK blocks and relies on block
// rotation across ACKs to cover all holes; our receiver reports a fixed
// snapshot instead, so it needs more blocks to convey the same
// information. 16 keeps retransmission behaviour close to a
// rotating-3-block implementation without simulating the rotation. The
// snapshot lives out of line, in the simulation's SackStore: only ACKs
// for out-of-order data carry one, so a Packet holds just its handle.
inline constexpr int kMaxSackBlocks = 16;

/// The SACK snapshot of one ACK: blocks[0, used), highest first.
struct SackList {
  int used = 0;
  SackBlock blocks[kMaxSackBlocks];
};

/// Handle of a SackList in a SackStore; kNoSack means "no blocks".
using SackHandle = std::uint32_t;
inline constexpr SackHandle kNoSack = 0;

// Fields are ordered largest first, so the struct has no interior padding:
// every event capture, queue slot and ring entry copies sizeof(Packet).
struct Packet {
  // Transport metadata (interpreted by the endpoints only).
  std::uint64_t seq = 0;      ///< TCP: first payload byte; UDP: packet no.
  std::uint64_t ack = 0;      ///< TCP cumulative ACK (next expected byte)
  Time sent_at = 0;           ///< stamped by the sender (for RTT samples)
  /// Stamped by the queueing disc that accepted the packet; the dequeue
  /// side observes (now - enqueued_at) as the queue-residency histogram.
  Time enqueued_at = 0;

  FlowId flow = 0;
  /// The key a *per-flow* rate-limiter classifies on (normally the flow's
  /// 5-tuple, i.e. == flow). WeHeY's §7 countermeasure crafts the two
  /// simultaneous replays so they carry the same key and land in the same
  /// per-flow policer. 0 means "use `flow`".
  FlowId policer_key = 0;
  std::uint32_t size = 0;     ///< wire size in bytes (headers included)
  std::uint32_t payload = 0;  ///< payload bytes carried
  SackHandle sack = kNoSack;  ///< selective-ACK blocks (ACKs only)

  PacketKind kind = PacketKind::Data;
  std::uint8_t dscp = kDscpDefault;
  bool retransmit = false;    ///< TCP: this is a retransmission
};

/// Anything that can accept a packet: links, rate-limiters, endpoints.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void receive(Packet pkt) = 0;
};

/// The SACK lists of one simulation's ACKs in flight. A receiver acquire()s a
/// list when it has out-of-order data to report and fills it; the sender
/// reads it with at() and then release()s it, which recycles the slot. So
/// the store holds one slot per SACK-carrying ACK in flight, and an ACK
/// dropped on a lossy reverse path strands its slot until the store dies.
///
/// A handle packs the slot index with that slot's generation, bumped on
/// every release: at() or release() of a released or never-acquired handle
/// aborts instead of reading another ACK's blocks. (The generation is 10
/// bits wide, so a stale handle goes unnoticed only once its slot has been
/// handed out again a multiple of 1024 times.)
class SackStore {
 public:
  /// A fresh, empty list. The reference at() returns for it stays valid
  /// until the next acquire().
  SackHandle acquire() {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      WEHEY_EXPECTS(slots_.size() < kIndexLimit - 1);
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.live = (slot.generation << kIndexBits) | (index + 1);
    slot.list.used = 0;
    return slot.live;
  }

  SackList& at(SackHandle h) { return live_slot(h).list; }

  void release(SackHandle h) {
    Slot& slot = live_slot(h);
    slot.live = kNoSack;
    slot.generation = (slot.generation + 1) & (kGenerationLimit - 1);
    free_.push_back((h & (kIndexLimit - 1)) - 1);
  }

  /// Slots ever allocated: the peak number of lists live at once.
  std::size_t slots() const { return slots_.size(); }
  /// Lists acquired and not yet released.
  std::size_t live() const { return slots_.size() - free_.size(); }

 private:
  static constexpr std::uint32_t kIndexBits = 22;
  static constexpr std::uint32_t kIndexLimit = std::uint32_t{1} << kIndexBits;
  static constexpr std::uint32_t kGenerationLimit =
      std::uint32_t{1} << (32 - kIndexBits);

  struct Slot {
    SackList list;
    SackHandle live = kNoSack;  ///< the live handle, or kNoSack
    std::uint32_t generation = 0;
  };

  Slot& live_slot(SackHandle h) {
    const std::uint32_t index = (h & (kIndexLimit - 1)) - 1;
    WEHEY_EXPECTS(h != kNoSack && index < slots_.size() &&
                  slots_[index].live == h);
    return slots_[index];
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< released slot indices
};

/// FIFO of packets backed by a growable circular buffer with an internal
/// free region: dequeued slots are reused by later enqueues, so a disc at
/// steady state never allocates. This replaces std::deque<Packet> in the
/// queueing disciplines: deque chunk churn, measured when packets still
/// carried their SACK blocks inline (~330 bytes), was a measurable share of
/// the event-loop allocation traffic.
///
/// Only the operations the discs need: push_back / front / pop_front.
class PacketRing {
 public:
  PacketRing() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push_back(Packet pkt) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) % buf_.size()] = std::move(pkt);
    ++size_;
  }

  Packet& front() { return buf_[head_]; }
  const Packet& front() const { return buf_[head_]; }

  void pop_front() {
    head_ = (head_ + 1) % buf_.size();
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<Packet> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(buf_[(head_ + i) % buf_.size()]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<Packet> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace wehey::netsim
