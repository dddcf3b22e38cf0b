#include "netsim/link.hpp"

#include "common/log.hpp"

namespace wehey::netsim {

Link::Link(Simulator& sim, Rate bandwidth, Time delay,
           std::unique_ptr<QueueDisc> disc, PacketSink* next)
    : sim_(sim),
      bandwidth_(bandwidth),
      delay_(delay),
      disc_(std::move(disc)),
      next_(next) {
  WEHEY_EXPECTS(bandwidth_ > 0.0);
  WEHEY_EXPECTS(delay_ >= 0);
  WEHEY_EXPECTS(disc_ != nullptr);
}

void Link::receive(Packet pkt) {
  disc_->enqueue(std::move(pkt), sim_.now());
  try_transmit();
}

void Link::try_transmit() {
  if (transmitting_) return;
  auto pkt = disc_->dequeue(sim_.now());
  if (!pkt) {
    // Nothing eligible now. If the disc will have an eligible packet later
    // (token-bucket refill), arm a single wake-up for that time.
    const Time ready = disc_->next_ready(sim_.now());
    if (ready != kNever && ready < wakeup_at_) {
      wakeup_at_ = ready;
      sim_.schedule_at(ready, [this, ready] {
        if (wakeup_at_ == ready) wakeup_at_ = kNever;
        try_transmit();
      });
    }
    return;
  }
  transmitting_ = true;
  const Time tx = transmission_time(pkt->size, bandwidth_);
  sim_.schedule(tx, [this, p = std::move(*pkt), tx]() mutable {
    finish_transmit(std::move(p), tx);
  });
}

void Link::account_transmit(Time tx_time, Time now) {
  busy_time_ += tx_time;
  if (obs::Recorder::current() == nullptr) return;
  // Close every fully elapsed window (idle windows sample 0); a
  // transmission counts toward the window it completes in.
  while (now - util_window_start_ >= kLinkUtilizationWindow) {
    util_obs_.observe(std::min(
        1.0, static_cast<double>(util_window_busy_) /
                 static_cast<double>(kLinkUtilizationWindow)));
    util_window_start_ += kLinkUtilizationWindow;
    util_window_busy_ = 0;
  }
  util_window_busy_ += tx_time;
}

void Link::finish_transmit(Packet pkt, Time tx_time) {
  transmitting_ = false;
  ++delivered_;
  delivered_bytes_ += pkt.size;
  account_transmit(tx_time, sim_.now());
  if (on_tx_) on_tx_(pkt, sim_.now());
  if (next_ != nullptr) {
    if (delay_ > 0) {
      sim_.schedule(delay_, [this, p = std::move(pkt)]() mutable {
        next_->receive(std::move(p));
      });
    } else {
      next_->receive(std::move(pkt));
    }
  }
  try_transmit();
}

void Pipe::receive(Packet pkt) {
  if (next_ == nullptr) return;
  sim_.schedule(delay_, [this, p = std::move(pkt)]() mutable {
    next_->receive(std::move(p));
  });
}

void Demux::receive(Packet pkt) {
  const auto it = routes_.find(pkt.flow);
  if (it != routes_.end()) {
    it->second->receive(std::move(pkt));
    return;
  }
  if (default_ != nullptr) {
    default_->receive(std::move(pkt));
    return;
  }
  ++unrouted_;
  LOG_TRACE("demux: dropping packet for unknown flow " << pkt.flow);
}

}  // namespace wehey::netsim
