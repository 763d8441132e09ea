#include "net/channel.h"

#include <chrono>

#include "common/check.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace pbpair::net {

Channel::Channel(LossModel* loss) : loss_(loss) { PB_CHECK(loss != nullptr); }

std::vector<Packet> Channel::transmit(const std::vector<Packet>& packets) {
  std::vector<Packet> delivered;
  delivered.reserve(packets.size());
  std::uint64_t dropped = 0;
  // Per-packet wire-path timing, cheap enough (log2-bucket histogram) to
  // stay on in production builds. Deterministic reports strip all *_ns
  // series, so this never perturbs byte-identity.
  const bool timed = obs::enabled();
  obs::Histogram* wire_ns = nullptr;
  if (timed) {
    static obs::Histogram* h = &obs::histogram("net.wire.ns");
    wire_ns = h;
  }
  for (const Packet& packet : packets) {
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point();
    stats_.packets_sent += 1;
    stats_.bytes_sent += packet.wire_size();
    if (loss_->should_drop(packet)) {
      stats_.packets_dropped += 1;
      ++dropped;
      if (timed) {
        wire_ns->observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
      }
      continue;
    }
    stats_.bytes_delivered += packet.wire_size();
    // Delivery shares the payload (refcount bump); the pre-arena channel
    // copied the payload bytes into the delivered vector here.
    common::ledger_legacy(packet.payload.size());
    delivered.push_back(packet);
    if (timed) {
      wire_ns->observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  }
  if (dropped > 0) {
    PB_LOG_DEBUG("channel %s dropped %llu/%llu packets", loss_->name(),
                 static_cast<unsigned long long>(dropped),
                 static_cast<unsigned long long>(packets.size()));
  }
  return delivered;
}

void Channel::reset() {
  stats_ = ChannelStats{};
  loss_->reset();
}

}  // namespace pbpair::net
