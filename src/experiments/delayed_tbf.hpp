// ISP5's throttler (§5, Figure 4): packets pass unthrottled until
// `trigger_bytes` of the targeted class have gone through, then a
// token-bucket filter at a fixed rate applies — the "fixed-rate throttling
// kicks in after some criterion is met" behaviour the paper hypothesizes
// for the ISP where the throughput comparison mostly fails.
#pragma once

#include <algorithm>
#include <optional>

#include "common/check.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "netsim/packet.hpp"
#include "netsim/queue.hpp"

namespace wehey::experiments {

/// See the file comment: packets pass unthrottled until `trigger_bytes` of the
/// targeted class have gone through, then a token-bucket filter at a fixed
/// rate applies (per the §5 hypothesis and Figure 4).
class DelayedTbfDisc final : public netsim::QueueDisc {
 public:
  DelayedTbfDisc(std::int64_t trigger_bytes, Rate rate, std::int64_t burst,
                 std::int64_t limit)
      : trigger_(trigger_bytes), rate_(rate), burst_(burst), limit_(limit) {
    WEHEY_EXPECTS(rate > 0 && burst > 0 && limit >= 0);
  }

  bool enqueue(netsim::Packet pkt, Time now) override {
    refill(now);
    seen_ += pkt.size;
    if (!active_ && seen_ >= trigger_) {
      active_ = true;
      tokens_ = static_cast<double>(burst_);
      last_refill_ = now;
    }
    if (active_ && bytes_ + pkt.size > limit_) {
      notify_drop(pkt, now);
      return false;
    }
    bytes_ += pkt.size;
    q_.push_back(std::move(pkt));
    return true;
  }

  std::optional<netsim::Packet> dequeue(Time now) override {
    refill(now);
    if (q_.empty()) return std::nullopt;
    if (active_ && static_cast<double>(q_.front().size) > tokens_) {
      return std::nullopt;
    }
    netsim::Packet pkt = std::move(q_.front());
    q_.pop_front();
    bytes_ -= pkt.size;
    if (active_) tokens_ -= static_cast<double>(pkt.size);
    return pkt;
  }

  Time next_ready(Time now) const override {
    if (q_.empty()) return netsim::kNever;
    if (!active_) return now;
    const double avail = tokens_at(now);
    const double needed = static_cast<double>(q_.front().size);
    if (needed <= avail) return now;
    const double wait_s = (needed - avail) * 8.0 / rate_;
    return now + std::max<Time>(1, seconds(wait_s));
  }

  std::int64_t backlog_bytes() const override { return bytes_; }
  std::size_t backlog_packets() const override { return q_.size(); }
  bool throttling_active() const { return active_; }

 private:
  void refill(Time now) {
    if (!active_ || now <= last_refill_) return;
    tokens_ = std::min(static_cast<double>(burst_),
                       tokens_ + rate_ / 8.0 * to_seconds(now - last_refill_));
    last_refill_ = now;
  }
  double tokens_at(Time now) const {
    if (!active_) return 0.0;
    return std::min(
        static_cast<double>(burst_),
        tokens_ + rate_ / 8.0 *
                      to_seconds(std::max<Time>(0, now - last_refill_)));
  }

  std::int64_t trigger_;
  Rate rate_;
  std::int64_t burst_;
  std::int64_t limit_;
  bool active_ = false;
  std::int64_t seen_ = 0;
  double tokens_ = 0.0;
  Time last_refill_ = 0;
  std::int64_t bytes_ = 0;
  netsim::PacketRing q_;
};


}  // namespace wehey::experiments
