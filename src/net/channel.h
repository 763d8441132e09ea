// The lossy channel: applies a loss model to a packet stream and keeps
// transmission statistics (sent/dropped counts, payload bytes — the bytes
// feed the transmit-energy model).
#pragma once

#include <cstdint>
#include <vector>

#include "net/loss_model.h"
#include "net/packet.h"

namespace pbpair::net {

struct ChannelStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t bytes_sent = 0;     // wire bytes offered to the channel
  std::uint64_t bytes_delivered = 0;

  double loss_rate() const {
    return packets_sent == 0
               ? 0.0
               : static_cast<double>(packets_dropped) / packets_sent;
  }
};

class Channel {
 public:
  /// `loss` must outlive the channel.
  explicit Channel(LossModel* loss);

  /// Transmits packets in order; returns those that survived.
  std::vector<Packet> transmit(const std::vector<Packet>& packets);

  const ChannelStats& stats() const { return stats_; }
  const LossModel& loss() const { return *loss_; }
  void reset();

 private:
  LossModel* loss_;
  ChannelStats stats_;
};

}  // namespace pbpair::net
