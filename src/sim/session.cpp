#include "sim/session.h"

#include <cstdio>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "net/loss_model.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pbpair::sim {
namespace {

// One FrameTrace as a JSONL row. Deterministic fields only: no clocks, no
// pointers — reruns with the same seed produce a byte-identical file. The
// FEC and wire fields appear only when the session has those stages, so a
// FEC-off, CRC-off run stays byte-identical to a build without either.
void append_frame_trace_jsonl(std::ofstream& out, const FrameTrace& trace,
                              bool fec, bool wire) {
  char psnr[32];
  std::snprintf(psnr, sizeof(psnr), "%.4f", trace.psnr_db);
  out << "{\"frame\":" << trace.index << ",\"type\":\""
      << (trace.type == codec::FrameType::kIntra ? "I" : "P")
      << "\",\"qp\":" << trace.qp << ",\"bytes\":" << trace.bytes
      << ",\"intra_mbs\":" << trace.intra_mbs
      << ",\"pre_me_intra_mbs\":" << trace.pre_me_intra_mbs
      << ",\"lost\":" << (trace.lost ? "true" : "false")
      << ",\"psnr_db\":" << psnr << ",\"bad_pixels\":" << trace.bad_pixels;
  if (fec) {
    out << ",\"fec_repair\":" << trace.fec_repair_sent
        << ",\"fec_recovered\":" << trace.fec_recovered
        << ",\"fec_unrecoverable\":" << trace.fec_unrecoverable_windows;
  }
  if (wire) {
    out << ",\"crc_corrupted\":" << trace.crc_corrupted;
  }
  out << "}\n";
}

// The per-session obs series, "session.<label>.<name>", in the order of
// StreamSession's handle arrays. Labeled sessions add to the counters
// every frame while obs is on; crc_corrupted, last, exists (even at zero)
// only while CRC framing is on, so the monitor shows a corrupted column
// for CRC sessions and a CRC-off run registers no such name. Health-on
// sessions set the gauges from the health snapshot, under the health
// label.
constexpr const char* kSessionCounterNames[] = {
    "frames",
    "bytes",
    "lost_frames",
    "packets_sent",
    "packets_delivered",
    "intra_mbs",
    "mbs",
    "energy_uj",
    "crc_corrupted",
};
constexpr const char* kHealthGaugeNames[] = {
    "health_state",
    "psnr_db",
    "psnr_ewma_db",
    "eff_plr",
    "intra_ratio",
    "j_per_frame",
    "battery_remaining_j",
    "projected_lifetime_s",
};

}  // namespace

StreamSession::StreamSession(FrameSource source, const SchemeSpec& scheme,
                             net::LossModel* loss,
                             const PipelineConfig& config, std::string label)
    : scheme_(scheme),
      config_(config),
      source_(std::move(source)),
      label_(std::move(label)) {
  if (loss == nullptr) {
    no_loss_ = std::make_unique<net::NoLoss>();
    loss = no_loss_.get();
  }
  channel_ = std::make_unique<net::Channel>(loss);
  init();
}

StreamSession::StreamSession(FrameSource source, const SchemeSpec& scheme,
                             std::unique_ptr<net::LossModel> loss,
                             const PipelineConfig& config, std::string label)
    : scheme_(scheme),
      config_(config),
      source_(std::move(source)),
      label_(std::move(label)),
      owned_loss_(std::move(loss)) {
  net::LossModel* model = owned_loss_.get();
  if (model == nullptr) {
    no_loss_ = std::make_unique<net::NoLoss>();
    model = no_loss_.get();
  }
  channel_ = std::make_unique<net::Channel>(model);
  init();
}

StreamSession::~StreamSession() {
  if (frame_trace_out_ != nullptr && frame_trace_out_->is_open()) {
    frame_trace_out_->flush();
    frame_trace_out_->close();
  }
}

void StreamSession::init() {
  PB_CHECK(config_.frames > 0);
  model_drops_name_ =
      std::string("net.packets_dropped.") + channel_->loss().name();
  const int mb_cols = config_.encoder.width / 16;
  const int mb_rows = config_.encoder.height / 16;
  mbs_per_frame_ = mb_cols * mb_rows;
  if (!label_.empty()) {
    flight_ = obs::FlightRegistry::global().create(label_);
  }
  if (config_.health.has_value()) {
    health_ = obs::HealthRegistry::global().create(
        label_.empty() ? "default" : label_, *config_.health);
  }

  policy_ = make_policy(scheme_, mb_cols, mb_rows);
  encoder_ = std::make_unique<codec::Encoder>(config_.encoder, policy_.get());
  decoder_ = std::make_unique<codec::Decoder>(codec::DecoderConfig{
      config_.encoder.width, config_.encoder.height, config_.concealment});
  crc_on_ = config_.wire.has_value() && config_.wire->enabled();
  // One arena per session: payload refs never cross sessions, so the
  // SessionManager's threads never contend on each other's slabs.
  arena_ = std::make_unique<net::BufferArena>();
  net::PacketizerConfig packetizer_config = config_.packetizer;
  packetizer_config.crc = crc_on_;
  packetizer_ =
      std::make_unique<net::Packetizer>(packetizer_config, arena_.get());
  if (config_.rate_control.has_value()) rate_.emplace(*config_.rate_control);

  // The optional stages run only when these exist (verify_integrity: when
  // crc_on_). With config_.fec, config_.faults and config_.wire unset (or
  // disabled) the session is byte-identical to a build without FEC,
  // faults or framing.
  if (config_.fec.has_value() && config_.fec->enabled()) {
    fec_encoder_ =
        std::make_unique<net::FecEncoder>(*config_.fec, arena_.get());
    fec_decoder_ = std::make_unique<net::FecDecoder>(arena_.get(), crc_on_);
  }
  if (config_.faults.has_value() && config_.faults->enabled()) {
    net::FaultInjectorConfig faults_config = *config_.faults;
    faults_config.expect_crc = crc_on_;  // parse-side only: same RNG draws
    fault_injector_ = std::make_unique<net::FaultInjector>(faults_config);
  }

  if (config_.on_feedback) {
    plr_estimator_ = std::make_unique<net::PlrEstimator>();
    report_builder_ = std::make_unique<net::ReceiverReportBuilder>(
        /*reporter_ssrc=*/config_.packetizer.ssrc + 1,
        /*reportee_ssrc=*/config_.packetizer.ssrc);
    feedback_queue_ =
        std::make_unique<net::DelayedFeedback<net::ReceiverReport>>(
            config_.feedback_rtt_frames);
    PB_CHECK(config_.feedback_interval_frames > 0);
  }

  result_.frames.reserve(static_cast<std::size_t>(config_.frames));

  if (!config_.frame_trace_path.empty()) {
    frame_trace_out_ = std::make_unique<std::ofstream>(
        config_.frame_trace_path, std::ios::out | std::ios::trunc);
    PB_CHECK(frame_trace_out_->is_open());
    write_frame_trace_header();
  }
}

void StreamSession::write_frame_trace_header() {
  std::ofstream& out = *frame_trace_out_;
  out << "{\"header\":{\"scheme\":\"" << scheme_.label()
      << "\",\"seed\":" << config_.frame_trace_seed
      << ",\"width\":" << config_.encoder.width
      << ",\"height\":" << config_.encoder.height
      << ",\"frames\":" << config_.frames;
  if (fec_encoder_ != nullptr) {
    out << ",\"fec\":{\"scheme\":"
        << static_cast<int>(config_.fec->scheme)
        << ",\"k\":" << config_.fec->k << ",\"m\":" << config_.fec->m << "}";
  }
  if (crc_on_) {
    out << ",\"wire\":{\"crc\":true}";
  }
  out << "}}\n";
}

void StreamSession::deliver_due_feedback(int frame) {
  for (const net::ReceiverReport& report : feedback_queue_->take_due(frame)) {
    if (flight_ != nullptr) {
      flight_->record(obs::FlightEvent::kPlrUpdate, frame,
                      report.fraction_lost, report.fraction_corrupted);
    }
    config_.on_feedback(frame, report, *policy_);
  }
}

void StreamSession::verify_integrity() {
  // The receiver first trusts the bytes here: after every source of wire
  // damage, and BEFORE fec_decode, so a corrupted packet becomes an
  // ERASURE the FEC can repair, never a poisoned equation in its solve.
  std::vector<net::Packet> kept;
  kept.reserve(frame_.delivered.size());
  for (net::Packet& packet : frame_.delivered) {
    wire_stats_.packets_checked += 1;
    if (packet.crc_present && packet.crc_ok) {
      kept.push_back(std::move(packet));
      continue;
    }
    wire_stats_.crc_corrupted += 1;
    crc_corrupted_interval_ += 1;
    frame_.trace.crc_corrupted += 1;
  }
  frame_.delivered = std::move(kept);
}

void StreamSession::fec_decode() {
  const net::FecDecoderStats before = fec_decoder_->stats();
  frame_.delivered = fec_decoder_->process(std::move(frame_.delivered));
  const net::FecDecoderStats& after = fec_decoder_->stats();
  FrameTrace& trace = frame_.trace;
  trace.fec_recovered = static_cast<int>(after.packets_recovered -
                                         before.packets_recovered);
  trace.fec_unrecoverable_windows = static_cast<int>(
      after.windows_unrecoverable - before.windows_unrecoverable);
}

void StreamSession::measure() {
  FrameContext& f = frame_;
  FrameTrace& trace = f.trace;
  trace.index = f.index;
  trace.qp = f.encoded.qp;
  trace.type = f.encoded.type;
  trace.bytes = f.encoded.size_bytes();
  trace.intra_mbs = f.encoded.intra_mb_count();
  for (const codec::MbEncodeRecord& record : f.encoded.mb_records) {
    if (record.pre_me_intra) ++trace.pre_me_intra_mbs;
  }
  trace.packets_sent = static_cast<int>(f.packets.size());
  trace.packets_delivered = static_cast<int>(f.delivered.size());
  // `delivered` is the media stream after FEC recovery (repair consumed,
  // reconstructions spliced in), so a frame is lost only if a MEDIA packet
  // is still missing. Without FEC, fec_repair_sent is 0.
  trace.lost =
      trace.packets_delivered != trace.packets_sent - trace.fec_repair_sent;
  trace.psnr_db = video::psnr_luma(f.original, *f.output);
  trace.bad_pixels = video::bad_pixel_count(f.original, *f.output,
                                            config_.bad_pixel_threshold);
}

void StreamSession::observe_delivery() {
  for (const net::Packet& packet : frame_.delivered) {
    // The feedback loop reports NETWORK loss: a packet the FEC decoder
    // reconstructed was still lost on the wire, so it must stay invisible
    // here (and repair packets live in their own sequence space). Without
    // FEC neither predicate ever fires.
    if (packet.recovered || packet.is_fec_repair()) continue;
    plr_estimator_->on_packet_received(packet.header.sequence);
    highest_sequence_ = packet.header.sequence;
  }
  if ((frame_.index + 1) % config_.feedback_interval_frames == 0) {
    // CRC-dropped packets are sequence gaps to the estimator, so
    // fraction_lost already covers them; the corruption split tells the
    // sender how much of that loss was verified corruption. Both args
    // are zero without the verify_integrity stage, which keeps the
    // serialized report byte-identical to the pre-CRC layout.
    net::ReceiverReport report =
        report_builder_->build(*plr_estimator_, highest_sequence_,
                               crc_corrupted_interval_,
                               wire_stats_.crc_corrupted);
    feedback_reports_ += 1;
    if (obs::enabled()) {
      // The sender-visible PLR estimate at the report.
      static obs::Gauge& plr = obs::gauge("net.feedback.plr");
      plr.set(plr_estimator_->estimate());
    }
    crc_corrupted_interval_ = 0;
    // Round-trip the RFC 3550 wire format so the loop exercises exactly
    // what a real receiver would put on the wire.
    net::ReceiverReport parsed;
    PB_CHECK(net::parse_receiver_report(net::serialize_receiver_report(report),
                                        &parsed));
    feedback_queue_->push(frame_.index, parsed);
  }
}

const FrameTrace& StreamSession::step() {
  PB_CHECK(!done());
  const int i = next_frame_;
  obs::ScopedSpan frame_span("pipeline.frame", i, "frame");
  // Only a frame that starts with obs on is published, so frames stepped
  // with obs off never reach the counters later.
  std::optional<CounterTotals> before;
  if (obs::enabled()) before = counter_totals(/*with_frame=*/false);
  if (feedback_queue_ != nullptr) deliver_due_feedback(i);
  if (config_.pre_frame) config_.pre_frame(i, *policy_);
  if (rate_) encoder_->set_qp(rate_->qp());

  // Drop the previous frame first, so its packets release their arena refs
  // before this frame allocates any.
  frame_ = FrameContext{};
  FrameContext& f = frame_;
  f.index = i;
  f.original = source_(i);
  {
    obs::ScopedSpan span("pipeline.encode", i, "frame");
    f.encoded = encoder_->encode_frame(f.original);
  }
  if (rate_) {
    rate_->on_frame_encoded(f.encoded.size_bytes(),
                            f.encoded.type == codec::FrameType::kIntra);
  }
  f.packets = packetizer_->packetize(f.encoded);
  // Repair packets ride the same lossy wire (and the same transmit-energy
  // meter) as the media they protect.
  if (fec_encoder_ != nullptr) {
    f.trace.fec_repair_sent = fec_encoder_->protect(&f.packets);
  }
  {
    obs::ScopedSpan span("pipeline.transmit", i, "frame");
    f.delivered = channel_->transmit(f.packets);
  }
  // Byte damage sits between the loss model and the receiver, exactly
  // where a hostile network sits.
  if (fault_injector_ != nullptr) {
    f.delivered = fault_injector_->apply(std::move(f.delivered));
  }
  if (crc_on_) verify_integrity();
  if (fec_decoder_ != nullptr) fec_decode();
  f.received = net::depacketize(f.delivered, i);
  {
    obs::ScopedSpan span("pipeline.decode", i, "frame");
    f.output = &decoder_->decode_frame(f.received);
  }
  measure();

  if (feedback_queue_ != nullptr) observe_delivery();
  accumulate(f.trace);
  if (before) publish_counters(*before);
  next_frame_ = i + 1;
  return result_.frames.back();
}

// Every counter's running total, in one fixed order. The facts of a single
// frame (its type and pre-ME intra MBs, whether any data arrived, the
// depacketizer's drops) read 0 unless `with_frame`: a snapshot taken
// before a frame then yields that frame's counts.
StreamSession::CounterTotals StreamSession::counter_totals(
    bool with_frame) const {
  const auto frame = [with_frame](std::uint64_t n) {
    return with_frame ? n : 0;
  };
  const codec::ReceivedFrame& received = frame_.received;
  const energy::OpCounters& e = encoder_->ops();
  const net::ChannelStats& ch = channel_->stats();
  const net::FecEncoderStats fe =
      fec_encoder_ != nullptr ? fec_encoder_->stats() : net::FecEncoderStats{};
  const net::FecDecoderStats fd =
      fec_decoder_ != nullptr ? fec_decoder_->stats() : net::FecDecoderStats{};
  const net::FaultStats fi =
      fault_injector_ != nullptr ? fault_injector_->stats() : net::FaultStats{};
  const net::WireStats& w = wire_stats_;
  return std::to_array<CounterTotal>({
      {"encoder.frames", kEncoder, e.frames},
      {"encoder.frames_intra", kEncoder,
       frame(frame_.encoded.type == codec::FrameType::kIntra)},
      {"encoder.mb_intra", kEncoder, e.intra_mbs},
      {"encoder.mb_inter", kEncoder, e.inter_mbs},
      {"encoder.mb_skip", kEncoder, e.skip_mbs},
      {"encoder.mb_me_skipped", kEncoder,
       frame(static_cast<std::uint64_t>(frame_.trace.pre_me_intra_mbs))},
      {"encoder.mb_me_searched", kEncoder, e.me_invocations},
      {"encoder.bits_written", kEncoder, e.bits_written},
      {"encoder.sad_calls", kSad, e.sad_calls},
      {"encoder.sad_early_exits", kSad, e.sad_early_exits},
      {"decoder.frames", kDecoder, decoder_->ops().frames},
      {"decoder.lost_frames", kDecoder, frame(!received.any_data)},
      {"decoder.concealed_mbs", kAlone, decoder_->concealed_mbs()},
      {"decoder.corrupt_gobs", kAlone, decoder_->corrupt_gobs()},
      {"decoder.truncated_gobs", kAlone, decoder_->truncated_gobs()},
      {"net.packets_sent", kChannel, ch.packets_sent},
      {"net.packets_dropped", kChannel, ch.packets_dropped},
      {"net.bytes_sent", kChannel, ch.bytes_sent},
      {model_drops_name_.c_str(), kAlone, ch.packets_dropped},
      {"net.dropped_bad_header", kAlone, frame(received.dropped_bad_header)},
      {"net.dropped_orphan_continuation", kAlone,
       frame(received.dropped_orphan_continuation)},
      {"net.dropped_stray_fec", kAlone, frame(received.dropped_stray_fec)},
      {"net.crc.ok", kCrc, w.packets_checked - w.crc_corrupted},
      {"net.crc.corrupted", kCrc, w.crc_corrupted},
      {"net.fec.windows_encoded", kAlone, fe.windows},
      {"net.fec.repair_packets_sent", kAlone, fe.repair_packets},
      {"net.fec.repair_invalid", kAlone, fd.repair_packets_invalid},
      {"net.fec.windows_unrecoverable", kAlone, fd.windows_unrecoverable},
      {"net.fec.recovered_unparseable", kAlone, fd.recovered_unparseable},
      {"net.fec.recovered_crc_failed", kAlone, fd.recovered_crc_failed},
      {"net.fec.packets_recovered", kAlone, fd.packets_recovered},
      {"net.fault.bits_flipped", kAlone, fi.bits_flipped},
      {"net.fault.headers_corrupted", kAlone, fi.headers_corrupted},
      {"net.fault.payloads_truncated", kAlone, fi.payloads_truncated},
      {"net.fault.dropped_unparseable", kAlone, fi.packets_dropped_unparseable},
      {"net.fault.packets_duplicated", kAlone, fi.packets_duplicated},
      {"net.fault.packets_reordered", kAlone, fi.packets_reordered},
      {"net.feedback.reports", kAlone, feedback_reports_},
  });
}

// The one place that publishes the layers' counts: adds the frame's change
// in each. A kAlone counter enters the registry on its first nonzero add; a
// group's counters enter together, zero values included, once any of them
// changes (kCrc: whenever the verify_integrity stage runs).
void StreamSession::publish_counters(const CounterTotals& before) {
  const CounterTotals now = counter_totals(/*with_frame=*/true);
  bool changed[kGroups] = {};
  changed[kCrc] = crc_on_;
  for (std::size_t i = 0; i < now.size(); ++i) {
    if (now[i].total != before[i].total) changed[now[i].group] = true;
  }
  for (std::size_t i = 0; i < now.size(); ++i) {
    const std::uint64_t n = now[i].total - before[i].total;
    if (n == 0 && (now[i].group == kAlone || !changed[now[i].group])) continue;
    if (published_[i] == nullptr) published_[i] = &obs::counter(now[i].name);
    if (n != 0) published_[i]->add(n);
  }
  // Last-frame intra ratio (the paper's Intra_Th lever in action).
  static obs::Gauge& intra_ratio = obs::gauge("encoder.intra_mb_ratio");
  intra_ratio.set(static_cast<double>(frame_.trace.intra_mbs) /
                  mbs_per_frame_);
}

void StreamSession::accumulate(const FrameTrace& trace) {
  psnr_sum_ += trace.psnr_db;
  result_.total_bytes += trace.bytes;
  result_.total_bad_pixels += trace.bad_pixels;
  result_.total_intra_mbs += static_cast<std::uint64_t>(trace.intra_mbs);
  if (frame_trace_out_ != nullptr && frame_trace_out_->is_open()) {
    append_frame_trace_jsonl(*frame_trace_out_, trace,
                             fec_encoder_ != nullptr, crc_on_);
  }
  result_.frames.push_back(trace);
  update_telemetry(trace);
}

void StreamSession::update_telemetry(const FrameTrace& trace) {
  // Repair packets are consumed by fec_decode, so packets_delivered counts
  // media only; loss figures compare it with the media packets sent.
  const int media_sent = trace.packets_sent - trace.fec_repair_sent;
  if (flight_ != nullptr) {
    // Always-on breadcrumbs (a few ns each, no clock, no allocation):
    // enough recent context to reconstruct WHY a session degraded from
    // the post-mortem dump alone.
    flight_->record(obs::FlightEvent::kFrameEncoded, trace.index,
                    static_cast<std::int64_t>(trace.bytes), trace.intra_mbs);
    flight_->record(obs::FlightEvent::kFrameDecoded, trace.index,
                    static_cast<std::int64_t>(trace.psnr_db * 1000.0),
                    static_cast<std::int64_t>(trace.bad_pixels));
    if (trace.lost) {
      flight_->record(obs::FlightEvent::kFrameLost, trace.index,
                      media_sent - trace.packets_delivered, media_sent);
    }
    if (trace.crc_corrupted > 0) {
      flight_->record(obs::FlightEvent::kCrcCorruption, trace.index,
                      trace.crc_corrupted, trace.packets_sent);
    }
    if (trace.fec_repair_sent > 0) {
      flight_->record(obs::FlightEvent::kFecDecision, trace.index,
                      trace.fec_repair_sent, media_sent);
    }
  }

  const bool want_counters = !label_.empty() && obs::enabled();
  if (!want_counters && health_ == nullptr) return;

  // Joules attributable to this frame: delta of the cumulative analytic
  // energy (encode ops + transmitted bytes). Reads only — the energy
  // model is a pure function of counters the codec updates anyway.
  const double energy_total_j =
      encode_energy(encoder_->ops(), *config_.profile).total_j() +
      energy::tx_energy_j(channel_->stats().bytes_sent, *config_.profile);
  const double frame_energy_j = energy_total_j - energy_reported_j_;
  energy_reported_j_ = energy_total_j;

  if (want_counters) {
    // Resolve the handles once per session (name build + map lookup),
    // then every frame is a handful of lock-free shard bumps.
    static_assert(std::size(kSessionCounterNames) == kSessionCounters);
    if (session_counters_[0] == nullptr) {
      const std::size_t n = crc_on_ ? kSessionCounters : kSessionCounters - 1;
      for (std::size_t i = 0; i < n; ++i) {
        session_counters_[i] = &obs::counter(
            obs::session_metric(label_, kSessionCounterNames[i]));
      }
    }
    // Energy as an integer microjoule counter (counters are uint64):
    // emit the delta of the rounded cumulative total so the counter
    // tracks it without accumulating rounding drift.
    const std::uint64_t total_uj =
        static_cast<std::uint64_t>(energy_total_j * 1e6);
    const std::uint64_t counts[kSessionCounters] = {
        1,
        trace.bytes,
        trace.lost ? 1u : 0u,
        static_cast<std::uint64_t>(media_sent),
        static_cast<std::uint64_t>(trace.packets_delivered),
        static_cast<std::uint64_t>(trace.intra_mbs),
        static_cast<std::uint64_t>(mbs_per_frame_),
        total_uj - energy_reported_uj_,
        static_cast<std::uint64_t>(trace.crc_corrupted),
    };
    energy_reported_uj_ = total_uj;
    for (std::size_t i = 0; i < kSessionCounters; ++i) {
      if (session_counters_[i] != nullptr) session_counters_[i]->add(counts[i]);
    }
  }

  if (health_ != nullptr) {
    obs::FrameHealthSample sample;
    sample.psnr_db = trace.psnr_db;
    sample.bytes = trace.bytes;
    sample.packets_sent = static_cast<std::uint32_t>(media_sent);
    sample.packets_delivered =
        static_cast<std::uint32_t>(trace.packets_delivered);
    sample.intra_mbs = static_cast<std::uint32_t>(trace.intra_mbs);
    sample.total_mbs = static_cast<std::uint32_t>(mbs_per_frame_);
    sample.energy_j = frame_energy_j;
    observe_health(sample);
  }
}

// Feeds one frame to health_ and reacts to what it returns: a state change
// is counted, recorded in the flight ring and, on CRITICAL with a dump dir
// set, dumps the ring right at the moment of failure; the gauges mirror
// the snapshot while obs is on. SessionHealth's lock is not held here.
void StreamSession::observe_health(const obs::FrameHealthSample& sample) {
  const obs::HealthSnapshot snap = health_->on_frame(sample);
  const std::string& label = health_->label();
  if (snap.state != health_state_) {
    const obs::HealthState from = health_state_;
    health_state_ = snap.state;
    if (obs::enabled()) {
      obs::counter(obs::session_metric(label, "health_transitions")).add(1);
      obs::counter("health.transitions").add(1);
    }
    if (flight_ != nullptr) {
      flight_->record(obs::FlightEvent::kHealthTransition,
                      static_cast<std::int32_t>(snap.frames),
                      static_cast<std::int64_t>(from),
                      static_cast<std::int64_t>(snap.state));
      const std::string dir = obs::FlightRegistry::global().dump_dir();
      if (snap.state == obs::HealthState::kCritical && !dir.empty()) {
        const std::string path = dir + "/flight_" + label + ".jsonl";
        if (flight_->dump_to_path(path)) {
          PB_LOG_WARN("session %s went CRITICAL; flight dump at %s",
                      label.c_str(), path.c_str());
        } else {
          PB_LOG_WARN("session %s went CRITICAL; flight dump to %s failed",
                      label.c_str(), path.c_str());
        }
      }
    }
  }
  if (!obs::enabled()) return;
  static_assert(std::size(kHealthGaugeNames) == kHealthGauges);
  if (health_gauges_[0] == nullptr) {
    for (std::size_t i = 0; i < kHealthGauges; ++i) {
      health_gauges_[i] =
          &obs::gauge(obs::session_metric(label, kHealthGaugeNames[i]));
    }
  }
  const double values[kHealthGauges] = {
      static_cast<double>(snap.state),
      snap.psnr_window_db,
      snap.psnr_ewma_db,
      snap.eff_plr,
      snap.intra_ratio,
      snap.energy_j_per_frame,
      snap.battery_remaining_j,
      snap.projected_lifetime_s,
  };
  for (std::size_t i = 0; i < kHealthGauges; ++i) {
    health_gauges_[i]->set(values[i]);
  }
}

void StreamSession::run_to_end() {
  while (!done()) step();
}

PipelineResult StreamSession::take_result() {
  PB_CHECK(done());
  if (!finalized_) {
    finalized_ = true;
    result_.avg_psnr_db = psnr_sum_ / config_.frames;
    result_.encoder_ops = encoder_->ops();
    result_.encode_energy = encode_energy(encoder_->ops(), *config_.profile);
    result_.channel = channel_->stats();
    result_.tx_energy_j =
        energy::tx_energy_j(channel_->stats().bytes_sent, *config_.profile);
    result_.concealed_mbs = decoder_->concealed_mbs();
    if (fec_encoder_ != nullptr) result_.fec_encode = fec_encoder_->stats();
    if (fec_decoder_ != nullptr) result_.fec_decode = fec_decoder_->stats();
    result_.wire = wire_stats_;
    if (frame_trace_out_ != nullptr && frame_trace_out_->is_open()) {
      frame_trace_out_->flush();
      frame_trace_out_->close();
    }
  }
  return std::move(result_);
}

}  // namespace pbpair::sim
