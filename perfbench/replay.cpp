#include "replay.h"

#include <set>
#include <stdexcept>
#include <utility>

#include "energy/energy_model.h"
#include "sim/scheme.h"
#include "video/metrics.h"

namespace perfbench {

namespace codec = pbpair::codec;
namespace net = pbpair::net;
namespace sim = pbpair::sim;

bool TimedPolicy::sample(Hook hook) const {
  static constexpr std::uint64_t kEvery[kHooks] = {1, 16, 16, 1, 1};
  return calls_[hook]++ % kEvery[hook] == 0;
}

void TimedPolicy::record(Hook hook, std::int64_t start_ns) const {
  timed_ns_[hook] +=
      static_cast<double>(now_ns() - start_ns) - clock_read_ns();
  ++timed_[hook];
}

bool TimedPolicy::want_intra_frame(int frame_index) {
  const bool timed = sample(kWantIntra);
  const std::int64_t t0 = timed ? now_ns() : 0;
  const bool intra = inner_->want_intra_frame(frame_index);
  if (timed) record(kWantIntra, t0);
  return intra;
}

bool TimedPolicy::force_intra_pre_me(int frame_index, int mb_x, int mb_y) {
  const bool timed = sample(kPreMe);
  const std::int64_t t0 = timed ? now_ns() : 0;
  const bool intra = inner_->force_intra_pre_me(frame_index, mb_x, mb_y);
  if (timed) record(kPreMe, t0);
  if (intra) ++pre_me_intra_;
  return intra;
}

std::int64_t TimedPolicy::me_penalty(int mb_x, int mb_y,
                                     codec::MotionVector mv) const {
  const bool timed = sample(kPenalty);
  const std::int64_t t0 = timed ? now_ns() : 0;
  const std::int64_t penalty = inner_->me_penalty(mb_x, mb_y, mv);
  if (timed) record(kPenalty, t0);
  return penalty;
}

void TimedPolicy::select_post_me(int frame_index,
                                 const std::vector<codec::MbMeInfo>& me_info,
                                 int mb_cols, int mb_rows,
                                 std::vector<std::uint8_t>* force_intra) {
  const bool timed = sample(kPostMe);
  const std::int64_t t0 = timed ? now_ns() : 0;
  inner_->select_post_me(frame_index, me_info, mb_cols, mb_rows, force_intra);
  if (timed) record(kPostMe, t0);
}

void TimedPolicy::on_frame_encoded(const codec::FrameEncodeInfo& info) {
  const bool timed = sample(kFrameEncoded);
  const std::int64_t t0 = timed ? now_ns() : 0;
  inner_->on_frame_encoded(info);
  if (timed) record(kFrameEncoded, t0);
}

double TimedPolicy::hook_ns() const {
  double total = 0.0;
  for (int hook = 0; hook < kHooks; ++hook) {
    if (timed_[hook] == 0) continue;
    total += timed_ns_[hook] / static_cast<double>(timed_[hook]) *
             static_cast<double>(calls_[hook]);
  }
  return total;
}

StreamReplay::StreamReplay(const StreamSpec& spec, Tracer* tracer,
                           std::uint64_t stream_id, bool time_policy)
    : scheme_(spec.scheme),
      config_(spec.config),
      clip_(spec.clip),
      first_frame_(spec.first_frame),
      tracer_(tracer),
      stream_id_(stream_id) {
  // Mirrors StreamSession::init() for the configurations the workloads
  // use; rate control is not one of them.
  if (config_.rate_control.has_value()) {
    throw std::invalid_argument("replay does not model rate control");
  }
  const int mb_cols = config_.encoder.width / 16;
  const int mb_rows = config_.encoder.height / 16;
  crc_on_ = config_.wire.has_value() && config_.wire->enabled();

  policy_ = sim::make_policy(scheme_, mb_cols, mb_rows);
  scheme_policy_ = policy_.get();
  if (time_policy) {
    auto timed = std::make_unique<TimedPolicy>(std::move(policy_));
    timed_policy_ = timed.get();
    policy_ = std::move(timed);
  }
  encoder_ = std::make_unique<codec::Encoder>(config_.encoder, policy_.get());
  decoder_ = std::make_unique<codec::Decoder>(codec::DecoderConfig{
      config_.encoder.width, config_.encoder.height, config_.concealment});
  arena_ = std::make_unique<net::BufferArena>();
  net::PacketizerConfig packetizer_config = config_.packetizer;
  packetizer_config.crc = crc_on_;
  packetizer_ =
      std::make_unique<net::Packetizer>(packetizer_config, arena_.get());
  if (spec.make_loss) loss_ = spec.make_loss();
  if (loss_ == nullptr) loss_ = std::make_unique<net::NoLoss>();
  channel_ = std::make_unique<net::Channel>(loss_.get());
  if (config_.fec.has_value() && config_.fec->enabled()) {
    fec_encoder_ =
        std::make_unique<net::FecEncoder>(*config_.fec, arena_.get());
    fec_decoder_ = std::make_unique<net::FecDecoder>(arena_.get(), crc_on_);
  }
  if (config_.faults.has_value() && config_.faults->enabled()) {
    net::FaultInjectorConfig faults = *config_.faults;
    faults.expect_crc = crc_on_;
    fault_injector_ = std::make_unique<net::FaultInjector>(faults);
  }
  if (config_.on_feedback) {
    plr_estimator_ = std::make_unique<net::PlrEstimator>();
    report_builder_ = std::make_unique<net::ReceiverReportBuilder>(
        config_.packetizer.ssrc + 1, config_.packetizer.ssrc);
    feedback_queue_ =
        std::make_unique<net::DelayedFeedback<net::ReceiverReport>>(
            config_.feedback_rtt_frames);
  }
  result_.frames.reserve(static_cast<std::size_t>(config_.frames));
}

void StreamReplay::deliver_due_feedback(int frame) {
  for (const net::ReceiverReport& report : feedback_queue_->take_due(frame)) {
    config_.on_feedback(frame, report, *scheme_policy_);
  }
}

void StreamReplay::observe_delivery(int frame,
                                    const std::vector<net::Packet>& delivered) {
  for (const net::Packet& packet : delivered) {
    if (packet.recovered || packet.is_fec_repair()) continue;
    plr_estimator_->on_packet_received(packet.header.sequence);
    highest_sequence_ = packet.header.sequence;
  }
  if ((frame + 1) % config_.feedback_interval_frames == 0) {
    const net::ReceiverReport report =
        report_builder_->build(*plr_estimator_, highest_sequence_,
                               crc_corrupted_interval_,
                               wire_stats_.crc_corrupted);
    crc_corrupted_interval_ = 0;
    net::ReceiverReport parsed;
    if (!net::parse_receiver_report(net::serialize_receiver_report(report),
                                    &parsed)) {
      throw std::runtime_error("receiver report failed to round-trip");
    }
    feedback_queue_->push(frame, parsed);
  }
}

const sim::FrameTrace& StreamReplay::step() {
  const int i = next_frame_;
  const std::uint64_t id = frame_trace_id(stream_id_, i);
  Tracer& t = *tracer_;
  Tracer::Scope frame_span(t, "frame", id);
  if (feedback_queue_ != nullptr) {
    Tracer::Scope span(t, "rtcp_feedback", id);
    deliver_due_feedback(i);
  }
  if (config_.pre_frame) config_.pre_frame(i, *scheme_policy_);

  const pbpair::video::YuvFrame& original =
      clip_frame(*clip_, first_frame_, i);
  sim::FrameTrace trace;
  codec::EncodedFrame encoded;
  {
    Tracer::Scope span(t, "encode", id);
    encoded = encoder_->encode_frame(original);
  }
  std::vector<net::Packet> packets;
  {
    Tracer::Scope span(t, "packetize", id);
    packets = packetizer_->packetize(encoded);
  }
  std::size_t media_sent = packets.size();
  if (fec_encoder_ != nullptr) {
    Tracer::Scope span(t, "fec_encode", id);
    trace.fec_repair_sent = fec_encoder_->protect(&packets);
  }
  std::vector<net::Packet> delivered;
  {
    Tracer::Scope span(t, "transmit", id);
    delivered = channel_->transmit(packets);
  }
  if (fault_injector_ != nullptr) {
    Tracer::Scope span(t, "inject_faults", id);
    delivered = fault_injector_->apply(std::move(delivered));
  }
  if (crc_on_) {
    Tracer::Scope span(t, "verify_integrity", id);
    std::vector<net::Packet> kept;
    kept.reserve(delivered.size());
    for (net::Packet& packet : delivered) {
      wire_stats_.packets_checked += 1;
      if (packet.crc_present && packet.crc_ok) {
        kept.push_back(std::move(packet));
        continue;
      }
      wire_stats_.crc_corrupted += 1;
      crc_corrupted_interval_ += 1;
      trace.crc_corrupted += 1;
    }
    delivered = std::move(kept);
  }
  if (fec_decoder_ != nullptr) {
    // Media packets still missing here are what FEC has to rebuild.
    std::set<std::uint16_t> media_seen;
    for (const net::Packet& packet : delivered) {
      if (!packet.is_fec_repair()) media_seen.insert(packet.header.sequence);
    }
    const std::size_t missing =
        media_sent > media_seen.size() ? media_sent - media_seen.size() : 0;
    Tracer::Scope span(t, "fec_decode", id);
    const net::FecDecoderStats before = fec_decoder_->stats();
    delivered = fec_decoder_->process(std::move(delivered));
    const net::FecDecoderStats& after = fec_decoder_->stats();
    trace.fec_recovered = static_cast<int>(after.packets_recovered -
                                           before.packets_recovered);
    trace.fec_unrecoverable_windows = static_cast<int>(
        after.windows_unrecoverable - before.windows_unrecoverable);
    counts_.media_lost += missing;
    counts_.media_recovered += static_cast<std::uint64_t>(trace.fec_recovered);
  }
  codec::ReceivedFrame received;
  {
    Tracer::Scope span(t, "depacketize", id);
    received = net::depacketize(delivered, i);
  }
  const pbpair::video::YuvFrame* output = nullptr;
  {
    Tracer::Scope span(t, "decode", id);
    output = &decoder_->decode_frame(received);
  }
  {
    Tracer::Scope span(t, "measure", id);
    trace.psnr_db = pbpair::video::psnr_luma(original, *output);
    trace.bad_pixels = pbpair::video::bad_pixel_count(
        original, *output, config_.bad_pixel_threshold);
  }
  trace.index = i;
  trace.qp = encoded.qp;
  trace.type = encoded.type;
  trace.bytes = encoded.size_bytes();
  trace.intra_mbs = encoded.intra_mb_count();
  for (const codec::MbEncodeRecord& record : encoded.mb_records) {
    if (record.pre_me_intra) ++trace.pre_me_intra_mbs;
  }
  trace.packets_sent = static_cast<int>(packets.size());
  trace.packets_delivered = static_cast<int>(delivered.size());
  trace.lost = delivered.size() != media_sent;
  if (feedback_queue_ != nullptr) {
    Tracer::Scope span(t, "rtcp_report", id);
    observe_delivery(i, delivered);
  }

  psnr_sum_ += trace.psnr_db;
  result_.total_bytes += trace.bytes;
  result_.total_bad_pixels += trace.bad_pixels;
  result_.total_intra_mbs += static_cast<std::uint64_t>(trace.intra_mbs);
  result_.frames.push_back(trace);
  next_frame_ = i + 1;
  return result_.frames.back();
}

sim::PipelineResult StreamReplay::finish() {
  result_.avg_psnr_db = psnr_sum_ / config_.frames;
  result_.encoder_ops = encoder_->ops();
  result_.encode_energy =
      pbpair::energy::encode_energy(encoder_->ops(), *config_.profile);
  result_.channel = channel_->stats();
  result_.tx_energy_j = pbpair::energy::tx_energy_j(
      channel_->stats().bytes_sent, *config_.profile);
  result_.concealed_mbs = decoder_->concealed_mbs();
  if (fec_encoder_ != nullptr) result_.fec_encode = fec_encoder_->stats();
  if (fec_decoder_ != nullptr) result_.fec_decode = fec_decoder_->stats();
  result_.wire = wire_stats_;
  return std::move(result_);
}

}  // namespace perfbench
