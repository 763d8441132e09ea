// StreamSession: the fixed stage sequence (DESIGN.md §9).
//
// The load-bearing tests here are the ShimMatches* tests: they run an
// independent reference loop (encoder -> packetizer -> channel ->
// depacketize -> decoder -> metrics, plus FEC, fault injection, CRC
// verification and the RTCP loop when the config asks for them) and assert
// the session reproduces it byte-for-byte: bitstream, every report field,
// and the energy joules. So the whole existing bench/test corpus doubles
// as a regression harness for the session.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/pbpair_policy.h"
#include "net/buffer.h"
#include "net/feedback.h"
#include "net/loss_model.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/pipeline.h"
#include "sim/session.h"

namespace pbpair::sim {
namespace {

PipelineConfig short_config(int frames = 20) {
  PipelineConfig config;
  config.frames = frames;
  return config;
}

core::PbpairConfig pbpair_config(double th, double plr) {
  core::PbpairConfig c;
  c.intra_th = th;
  c.plr = plr;
  return c;
}

// The pre-session pipeline loop, kept as the byte-identity reference. It
// runs the optional stages in the session's order when the config asks
// for them: fec_encode after packetize, then transmit, inject_faults,
// verify_integrity and fec_decode before depacketize, plus the RTCP
// receiver-report loop around each frame.
struct ReferenceRun {
  std::vector<std::uint8_t> bitstream;  // all encoded frames concatenated
  PipelineResult result;
};

ReferenceRun run_monolithic_reference(const video::SyntheticSequence& seq,
                                      const SchemeSpec& scheme,
                                      net::LossModel* loss,
                                      const PipelineConfig& config) {
  // Declared first so it is destroyed last: packets hold refs into it.
  net::BufferArena arena;
  const int mb_cols = config.encoder.width / 16;
  const int mb_rows = config.encoder.height / 16;
  std::unique_ptr<codec::RefreshPolicy> policy =
      make_policy(scheme, mb_cols, mb_rows);
  codec::Encoder encoder(config.encoder, policy.get());
  codec::Decoder decoder(codec::DecoderConfig{
      config.encoder.width, config.encoder.height, config.concealment});
  const bool crc_on = config.wire.has_value() && config.wire->enabled();
  net::PacketizerConfig packetizer_config = config.packetizer;
  packetizer_config.crc = crc_on;
  net::Packetizer packetizer(packetizer_config, &arena);
  net::NoLoss no_loss;
  net::Channel channel(loss != nullptr ? loss : &no_loss);
  std::optional<codec::RateController> rate;
  if (config.rate_control.has_value()) rate.emplace(*config.rate_control);
  std::optional<net::FecEncoder> fec_encoder;
  std::optional<net::FecDecoder> fec_decoder;
  if (config.fec.has_value() && config.fec->enabled()) {
    fec_encoder.emplace(*config.fec, &arena);
    fec_decoder.emplace(&arena, crc_on);
  }
  std::optional<net::FaultInjector> faults;
  if (config.faults.has_value() && config.faults->enabled()) {
    net::FaultInjectorConfig faults_config = *config.faults;
    faults_config.expect_crc = crc_on;
    faults.emplace(faults_config);
  }
  net::PlrEstimator plr_estimator;
  net::ReceiverReportBuilder report_builder(config.packetizer.ssrc + 1,
                                            config.packetizer.ssrc);
  net::DelayedFeedback<net::ReceiverReport> feedback(
      config.feedback_rtt_frames);
  std::uint16_t highest_sequence = 0;
  std::uint64_t crc_corrupted_interval = 0;

  ReferenceRun run;
  double psnr_sum = 0.0;
  for (int i = 0; i < config.frames; ++i) {
    if (config.on_feedback) {
      for (const net::ReceiverReport& report : feedback.take_due(i)) {
        config.on_feedback(i, report, *policy);
      }
    }
    if (config.pre_frame) config.pre_frame(i, *policy);
    if (rate) encoder.set_qp(rate->qp());
    video::YuvFrame original = seq.frame_at(i);
    codec::EncodedFrame encoded = encoder.encode_frame(original);
    if (rate) {
      rate->on_frame_encoded(encoded.size_bytes(),
                             encoded.type == codec::FrameType::kIntra);
    }
    run.bitstream.insert(run.bitstream.end(), encoded.bytes.begin(),
                         encoded.bytes.end());
    FrameTrace trace;
    std::vector<net::Packet> packets = packetizer.packetize(encoded);
    const std::size_t media_sent = packets.size();
    if (fec_encoder) trace.fec_repair_sent = fec_encoder->protect(&packets);
    std::vector<net::Packet> delivered = channel.transmit(packets);
    if (faults) delivered = faults->apply(std::move(delivered));
    if (crc_on) {
      auto corrupted = [](const net::Packet& packet) {
        return !packet.crc_present || !packet.crc_ok;
      };
      run.result.wire.packets_checked += delivered.size();
      const std::size_t dropped = std::erase_if(delivered, corrupted);
      trace.crc_corrupted = static_cast<int>(dropped);
      run.result.wire.crc_corrupted += dropped;
      crc_corrupted_interval += dropped;
    }
    if (fec_decoder) {
      const net::FecDecoderStats before = fec_decoder->stats();
      delivered = fec_decoder->process(std::move(delivered));
      const net::FecDecoderStats& after = fec_decoder->stats();
      trace.fec_recovered = static_cast<int>(after.packets_recovered -
                                             before.packets_recovered);
      trace.fec_unrecoverable_windows = static_cast<int>(
          after.windows_unrecoverable - before.windows_unrecoverable);
    }
    codec::ReceivedFrame received = net::depacketize(delivered, i);
    const video::YuvFrame& output = decoder.decode_frame(received);

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
    trace.psnr_db = video::psnr_luma(original, output);
    trace.bad_pixels =
        video::bad_pixel_count(original, output, config.bad_pixel_threshold);
    psnr_sum += trace.psnr_db;
    run.result.total_bytes += trace.bytes;
    run.result.total_bad_pixels += trace.bad_pixels;
    run.result.total_intra_mbs += static_cast<std::uint64_t>(trace.intra_mbs);
    run.result.frames.push_back(trace);

    if (config.on_feedback) {
      // Network loss only: FEC reconstructions and repair packets are not
      // wire arrivals of media sequence numbers.
      for (const net::Packet& packet : delivered) {
        if (packet.recovered || packet.is_fec_repair()) continue;
        plr_estimator.on_packet_received(packet.header.sequence);
        highest_sequence = packet.header.sequence;
      }
      if ((i + 1) % config.feedback_interval_frames == 0) {
        const net::ReceiverReport report =
            report_builder.build(plr_estimator, highest_sequence,
                                 crc_corrupted_interval,
                                 run.result.wire.crc_corrupted);
        crc_corrupted_interval = 0;
        const auto bytes = net::serialize_receiver_report(report);
        net::ReceiverReport parsed;
        EXPECT_TRUE(net::parse_receiver_report(bytes, &parsed));
        feedback.push(i, parsed);
      }
    }
  }
  run.result.avg_psnr_db = psnr_sum / config.frames;
  run.result.encoder_ops = encoder.ops();
  run.result.encode_energy = encode_energy(encoder.ops(), *config.profile);
  run.result.channel = channel.stats();
  run.result.tx_energy_j =
      energy::tx_energy_j(channel.stats().bytes_sent, *config.profile);
  run.result.concealed_mbs = decoder.concealed_mbs();
  if (fec_encoder) run.result.fec_encode = fec_encoder->stats();
  if (fec_decoder) run.result.fec_decode = fec_decoder->stats();
  return run;
}

void expect_results_identical(const PipelineResult& a,
                              const PipelineResult& b) {
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.total_bad_pixels, b.total_bad_pixels);
  EXPECT_EQ(a.total_intra_mbs, b.total_intra_mbs);
  EXPECT_EQ(a.concealed_mbs, b.concealed_mbs);
  EXPECT_DOUBLE_EQ(a.avg_psnr_db, b.avg_psnr_db);
  EXPECT_DOUBLE_EQ(a.encode_energy.total_j(), b.encode_energy.total_j());
  EXPECT_DOUBLE_EQ(a.tx_energy_j, b.tx_energy_j);
  EXPECT_EQ(a.channel.packets_sent, b.channel.packets_sent);
  EXPECT_EQ(a.channel.packets_dropped, b.channel.packets_dropped);
  EXPECT_EQ(a.channel.bytes_sent, b.channel.bytes_sent);
  EXPECT_EQ(a.encoder_ops.sad_pixel_ops, b.encoder_ops.sad_pixel_ops);
  EXPECT_EQ(a.encoder_ops.bits_written, b.encoder_ops.bits_written);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].bytes, b.frames[i].bytes);
    EXPECT_EQ(a.frames[i].intra_mbs, b.frames[i].intra_mbs);
    EXPECT_EQ(a.frames[i].lost, b.frames[i].lost);
    EXPECT_DOUBLE_EQ(a.frames[i].psnr_db, b.frames[i].psnr_db);
    EXPECT_EQ(a.frames[i].bad_pixels, b.frames[i].bad_pixels);
  }
}

// expect_results_identical plus every FrameTrace field and the FEC, wire
// and channel totals that only the optional stages move.
void expect_every_field_identical(const PipelineResult& a,
                                  const PipelineResult& b) {
  expect_results_identical(a, b);
  EXPECT_EQ(a.channel.bytes_delivered, b.channel.bytes_delivered);
  EXPECT_EQ(a.fec_encode.windows, b.fec_encode.windows);
  EXPECT_EQ(a.fec_encode.media_packets, b.fec_encode.media_packets);
  EXPECT_EQ(a.fec_encode.repair_packets, b.fec_encode.repair_packets);
  EXPECT_EQ(a.fec_encode.repair_bytes, b.fec_encode.repair_bytes);
  EXPECT_EQ(a.fec_decode.windows_seen, b.fec_decode.windows_seen);
  EXPECT_EQ(a.fec_decode.repair_packets_seen, b.fec_decode.repair_packets_seen);
  EXPECT_EQ(a.fec_decode.repair_packets_invalid,
            b.fec_decode.repair_packets_invalid);
  EXPECT_EQ(a.fec_decode.packets_recovered, b.fec_decode.packets_recovered);
  EXPECT_EQ(a.fec_decode.windows_unrecoverable,
            b.fec_decode.windows_unrecoverable);
  EXPECT_EQ(a.fec_decode.recovered_unparseable,
            b.fec_decode.recovered_unparseable);
  EXPECT_EQ(a.fec_decode.recovered_crc_failed,
            b.fec_decode.recovered_crc_failed);
  EXPECT_EQ(a.wire.packets_checked, b.wire.packets_checked);
  EXPECT_EQ(a.wire.crc_corrupted, b.wire.crc_corrupted);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    const FrameTrace& fa = a.frames[i];
    const FrameTrace& fb = b.frames[i];
    EXPECT_EQ(fa.index, fb.index) << "frame " << i;
    EXPECT_EQ(fa.qp, fb.qp) << "frame " << i;
    EXPECT_EQ(fa.type, fb.type) << "frame " << i;
    EXPECT_EQ(fa.pre_me_intra_mbs, fb.pre_me_intra_mbs) << "frame " << i;
    EXPECT_EQ(fa.packets_sent, fb.packets_sent) << "frame " << i;
    EXPECT_EQ(fa.packets_delivered, fb.packets_delivered) << "frame " << i;
    EXPECT_EQ(fa.fec_repair_sent, fb.fec_repair_sent) << "frame " << i;
    EXPECT_EQ(fa.fec_recovered, fb.fec_recovered) << "frame " << i;
    EXPECT_EQ(fa.fec_unrecoverable_windows, fb.fec_unrecoverable_windows)
        << "frame " << i;
    EXPECT_EQ(fa.crc_corrupted, fb.crc_corrupted) << "frame " << i;
  }
}

// Steps `session` to the end and returns its bitstream: every encoded
// frame, concatenated.
std::vector<std::uint8_t> run_collecting_bitstream(StreamSession& session) {
  std::vector<std::uint8_t> bitstream;
  while (!session.done()) {
    session.step();
    const std::vector<std::uint8_t>& bytes = session.frame().encoded.bytes;
    bitstream.insert(bitstream.end(), bytes.begin(), bytes.end());
  }
  return bitstream;
}

TEST(StreamSession, ShimMatchesMonolithicReferenceLoop) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  PipelineConfig config = short_config(25);
  SchemeSpec scheme = SchemeSpec::pbpair(pbpair_config(0.9, 0.10));

  net::UniformFrameLoss ref_loss(0.15, /*seed=*/2005);
  ReferenceRun reference =
      run_monolithic_reference(seq, scheme, &ref_loss, config);

  // Session side: same inputs, with the bitstream read from frame().
  net::UniformFrameLoss session_loss(0.15, /*seed=*/2005);
  StreamSession session([&seq](int i) { return seq.frame_at(i); }, scheme,
                        &session_loss, config);
  const std::vector<std::uint8_t> bitstream = run_collecting_bitstream(session);
  PipelineResult result = session.take_result();

  EXPECT_EQ(bitstream, reference.bitstream);  // bitstream byte-identical
  expect_results_identical(reference.result, result);

  // And run_pipeline (the public shim) agrees with both.
  net::UniformFrameLoss shim_loss(0.15, /*seed=*/2005);
  PipelineResult shim = run_pipeline(seq, scheme, &shim_loss, config);
  expect_results_identical(reference.result, shim);
}

TEST(StreamSession, ShimMatchesReferenceWithRateControlAndHooks) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  PipelineConfig config = short_config(15);
  codec::RateControlConfig rate;
  rate.target_kbps = 96.0;
  rate.initial_qp = 12;
  config.rate_control = rate;
  config.pre_frame = [](int index, codec::RefreshPolicy& policy) {
    if (auto* p = dynamic_cast<core::PbpairPolicy*>(&policy)) {
      p->set_intra_th(index < 8 ? 0.85 : 0.95);
    }
  };
  SchemeSpec scheme = SchemeSpec::pbpair(pbpair_config(0.85, 0.10));

  net::UniformFrameLoss ref_loss(0.10, /*seed=*/7);
  ReferenceRun reference =
      run_monolithic_reference(seq, scheme, &ref_loss, config);
  net::UniformFrameLoss shim_loss(0.10, /*seed=*/7);
  PipelineResult shim = run_pipeline(seq, scheme, &shim_loss, config);
  expect_results_identical(reference.result, shim);
}

// Every optional stage at once (FEC, CRC, fault injection, bursty loss and
// the RTCP loop) against the reference loop. A session that ran two of
// these stages in another order, or fed the loop a different count, drifts
// from the reference here.
TEST(StreamSession, ShimMatchesReferenceWithEveryOptionalStage) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  PipelineConfig config = short_config(30);
  config.packetizer.mtu = 96;
  net::FecConfig fec;
  fec.scheme = net::FecScheme::kReedSolomon;
  fec.k = 8;
  fec.m = 2;
  config.fec = fec;
  config.wire = net::WireConfig{};
  net::FaultInjectorConfig faults;
  faults.seed = 41;
  faults.p_bit_flip = 0.02;
  faults.p_truncate = 0.01;
  faults.p_header_corrupt = 0.01;
  faults.p_duplicate = 0.01;
  faults.p_reorder = 0.02;
  config.faults = faults;
  int reports = 0;
  config.feedback_rtt_frames = 2;
  config.on_feedback = [&reports](int, const net::ReceiverReport& report,
                                  codec::RefreshPolicy& policy) {
    ++reports;
    if (auto* p = dynamic_cast<core::PbpairPolicy*>(&policy)) {
      p->set_plr(report.fraction_lost_as_double());
    }
  };
  SchemeSpec scheme = SchemeSpec::pbpair(pbpair_config(0.9, 0.10));
  const net::GilbertElliottLoss::Params bursts;  // ~11% loss, 50% in a burst

  net::GilbertElliottLoss ref_loss(bursts, /*seed=*/2005);
  ReferenceRun reference =
      run_monolithic_reference(seq, scheme, &ref_loss, config);
  const int reference_reports = reports;
  reports = 0;

  net::GilbertElliottLoss session_loss(bursts, /*seed=*/2005);
  StreamSession session([&seq](int i) { return seq.frame_at(i); }, scheme,
                        &session_loss, config);
  const std::vector<std::uint8_t> bitstream = run_collecting_bitstream(session);
  PipelineResult result = session.take_result();

  EXPECT_EQ(bitstream, reference.bitstream);
  expect_every_field_identical(reference.result, result);
  EXPECT_EQ(reports, reference_reports);

  // Each optional stage did something, so the comparison above covers it.
  EXPECT_GT(result.fec_encode.repair_packets, 0u);
  EXPECT_GT(result.fec_decode.packets_recovered, 0u);
  EXPECT_GT(result.wire.crc_corrupted, 0u);
  EXPECT_GT(reports, 0);
}

TEST(StreamSession, StepAdvancesExactlyOneFrame) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::no_resilience(), nullptr,
                        short_config(5));
  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.frames_done(), 0);
  const FrameTrace& first = session.step();
  EXPECT_EQ(first.index, 0);
  EXPECT_EQ(session.frames_done(), 1);
  while (!session.done()) session.step();
  EXPECT_EQ(session.frames_done(), 5);
  PipelineResult result = session.take_result();
  EXPECT_EQ(result.frames.size(), 5u);
}

TEST(StreamSession, TotalLossChannelLosesEveryFrame) {
  // A channel that drops every frame: every frame is lost and the decoder
  // conceals what it never received.
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  net::UniformFrameLoss black_hole(1.0, /*seed=*/2005);
  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::no_resilience(), &black_hole,
                        short_config(6));
  session.run_to_end();
  PipelineResult result = session.take_result();
  EXPECT_GT(result.concealed_mbs, 0u);
  for (const FrameTrace& f : result.frames) EXPECT_TRUE(f.lost);
}

// Re-entrancy audit: interleaving two live sessions frame-by-frame must
// give exactly the results of running each alone — the codec keeps no
// hidden per-process coding state (the only process-wide pieces are the
// read-only kernel table and the obs registry, which never feeds back).
TEST(StreamSession, InterleavedSessionsMatchIsolatedRuns) {
  video::SyntheticSequence foreman =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::SyntheticSequence garden =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  PipelineConfig config = short_config(12);
  SchemeSpec scheme_a = SchemeSpec::pbpair(pbpair_config(0.9, 0.10));
  SchemeSpec scheme_b = SchemeSpec::gop(3);

  net::UniformFrameLoss loss_a1(0.2, 11), loss_b1(0.2, 22);
  StreamSession a([&foreman](int i) { return foreman.frame_at(i); }, scheme_a,
                  &loss_a1, config);
  StreamSession b([&garden](int i) { return garden.frame_at(i); }, scheme_b,
                  &loss_b1, config);
  while (!a.done() || !b.done()) {
    if (!a.done()) a.step();
    if (!b.done()) b.step();
  }
  PipelineResult interleaved_a = a.take_result();
  PipelineResult interleaved_b = b.take_result();

  net::UniformFrameLoss loss_a2(0.2, 11), loss_b2(0.2, 22);
  PipelineResult isolated_a = run_pipeline(foreman, scheme_a, &loss_a2, config);
  PipelineResult isolated_b = run_pipeline(garden, scheme_b, &loss_b2, config);
  expect_results_identical(isolated_a, interleaved_a);
  expect_results_identical(isolated_b, interleaved_b);
}

// --- The obs counters a session publishes ---

// Turns obs on for one test, with the global registry zeroed before and
// after it.
class ScopedObs {
 public:
  ScopedObs() : was_on_(obs::enabled()) {
    obs::Registry::global().reset_all();
    obs::set_enabled(true);
  }
  ~ScopedObs() {
    obs::set_enabled(was_on_);
    obs::Registry::global().reset_all();
  }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

 private:
  bool was_on_;
};

using Counts = std::map<std::string, std::uint64_t>;

// Counters whose names enter the registry together, zero values included,
// once any of them counts.
const std::vector<std::vector<std::string>>& counter_groups() {
  static const std::vector<std::vector<std::string>> groups = {
      {"encoder.frames", "encoder.frames_intra", "encoder.mb_intra",
       "encoder.mb_inter", "encoder.mb_skip", "encoder.mb_me_skipped",
       "encoder.mb_me_searched", "encoder.bits_written"},
      {"encoder.sad_calls", "encoder.sad_early_exits"},
      {"decoder.frames", "decoder.lost_frames"},
      {"net.packets_sent", "net.packets_dropped", "net.bytes_sent"},
      {"net.crc.ok", "net.crc.corrupted"}};
  return groups;
}

// Running totals of every counter a session publishes, read from what the
// session exposes: each layer's stats, plus the per-frame facts only
// frame() holds. Call after_step() after every step().
class SessionTally {
 public:
  explicit SessionTally(StreamSession& session) : session_(session) {}

  void after_step() {
    const FrameContext& f = session_.frame();
    per_frame_["encoder.frames_intra"] +=
        f.encoded.type == codec::FrameType::kIntra ? 1 : 0;
    per_frame_["encoder.mb_me_skipped"] +=
        static_cast<std::uint64_t>(f.trace.pre_me_intra_mbs);
    per_frame_["decoder.lost_frames"] += f.received.any_data ? 0 : 1;
    per_frame_["net.dropped_bad_header"] += f.received.dropped_bad_header;
    per_frame_["net.dropped_orphan_continuation"] +=
        f.received.dropped_orphan_continuation;
    per_frame_["net.dropped_stray_fec"] += f.received.dropped_stray_fec;
    const PipelineConfig& config = session_.config();
    if (config.on_feedback &&
        (f.index + 1) % config.feedback_interval_frames == 0) {
      per_frame_["net.feedback.reports"] += 1;
    }
  }

  Counts totals() const {
    Counts t = per_frame_;
    const energy::OpCounters& ops = session_.encoder().ops();
    t["encoder.frames"] = ops.frames;
    t["encoder.mb_intra"] = ops.intra_mbs;
    t["encoder.mb_inter"] = ops.inter_mbs;
    t["encoder.mb_skip"] = ops.skip_mbs;
    t["encoder.mb_me_searched"] = ops.me_invocations;
    t["encoder.bits_written"] = ops.bits_written;
    t["encoder.sad_calls"] = ops.sad_calls;
    t["encoder.sad_early_exits"] = ops.sad_early_exits;
    const codec::Decoder& decoder = session_.decoder();
    t["decoder.frames"] = decoder.ops().frames;
    t["decoder.concealed_mbs"] = decoder.concealed_mbs();
    t["decoder.corrupt_gobs"] = decoder.corrupt_gobs();
    t["decoder.truncated_gobs"] = decoder.truncated_gobs();
    const net::Channel& channel = session_.channel();
    t["net.packets_sent"] = channel.stats().packets_sent;
    t["net.packets_dropped"] = channel.stats().packets_dropped;
    t[std::string("net.packets_dropped.") + channel.loss().name()] =
        channel.stats().packets_dropped;
    t["net.bytes_sent"] = channel.stats().bytes_sent;
    if (session_.config().wire.has_value()) {
      const net::WireStats& wire = session_.wire_stats();
      t["net.crc.ok"] = wire.packets_checked - wire.crc_corrupted;
      t["net.crc.corrupted"] = wire.crc_corrupted;
    }
    if (const net::FecEncoder* fec = session_.fec_encoder()) {
      t["net.fec.windows_encoded"] = fec->stats().windows;
      t["net.fec.repair_packets_sent"] = fec->stats().repair_packets;
    }
    if (const net::FecDecoder* fec = session_.fec_decoder()) {
      const net::FecDecoderStats& stats = fec->stats();
      t["net.fec.repair_invalid"] = stats.repair_packets_invalid;
      t["net.fec.windows_unrecoverable"] = stats.windows_unrecoverable;
      t["net.fec.recovered_unparseable"] = stats.recovered_unparseable;
      t["net.fec.recovered_crc_failed"] = stats.recovered_crc_failed;
      t["net.fec.packets_recovered"] = stats.packets_recovered;
    }
    if (const net::FaultInjector* faults = session_.fault_injector()) {
      const net::FaultStats& stats = faults->stats();
      t["net.fault.bits_flipped"] = stats.bits_flipped;
      t["net.fault.headers_corrupted"] = stats.headers_corrupted;
      t["net.fault.payloads_truncated"] = stats.payloads_truncated;
      t["net.fault.dropped_unparseable"] = stats.packets_dropped_unparseable;
      t["net.fault.packets_duplicated"] = stats.packets_duplicated;
      t["net.fault.packets_reordered"] = stats.packets_reordered;
    }
    return t;
  }

 private:
  StreamSession& session_;
  Counts per_frame_;
};

// What publishing the frames between two tallies adds to the registry:
// each counter's nonzero change, plus a zero for every quiet member of a
// group that counted.
Counts published_between(const Counts& before, const Counts& after) {
  Counts out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t change = value - (it == before.end() ? 0 : it->second);
    if (change != 0) out[name] = change;
  }
  for (const std::vector<std::string>& group : counter_groups()) {
    bool counted = false;
    for (const std::string& name : group) counted |= out.count(name) > 0;
    if (!counted) continue;
    for (const std::string& name : group) out.emplace(name, 0);
  }
  return out;
}

// The registry's deterministic counters (no *_ns) that are nonzero or
// expected. A name an earlier test in the same process left registered at
// zero is not one this test published.
Counts registry_counters(const Counts& expected) {
  Counts out;
  for (const auto& [name, value] :
       obs::Registry::global().snapshot().counters) {
    if (name.ends_with("_ns")) continue;
    if (value != 0 || expected.count(name) > 0) out[name] = value;
  }
  return out;
}

// Every optional stage: FEC windows of 4 packets at MTU 96, so each frame
// spans several windows, CRC framing, all five fault kinds and the RTCP
// loop. Paired with bursty loss by every_stage_session().
PipelineConfig every_stage_config() {
  PipelineConfig config = short_config(30);
  config.packetizer.mtu = 96;
  net::FecConfig fec;
  fec.scheme = net::FecScheme::kReedSolomon;
  fec.k = 4;
  fec.m = 1;
  config.fec = fec;
  config.wire = net::WireConfig{};
  net::FaultInjectorConfig faults;
  faults.seed = 41;
  faults.p_bit_flip = 0.02;
  faults.p_truncate = 0.02;
  faults.p_header_corrupt = 0.02;
  faults.p_duplicate = 0.02;
  faults.p_reorder = 0.02;
  config.faults = faults;
  config.feedback_rtt_frames = 2;
  config.on_feedback = [](int, const net::ReceiverReport& report,
                          codec::RefreshPolicy& policy) {
    if (auto* p = dynamic_cast<core::PbpairPolicy*>(&policy)) {
      p->set_plr(report.fraction_lost_as_double());
    }
  };
  return config;
}

StreamSession every_stage_session(const video::SyntheticSequence& seq) {
  return StreamSession(
      [&seq](int i) { return seq.frame_at(i); },
      SchemeSpec::pbpair(pbpair_config(0.9, 0.10)),
      std::make_unique<net::GilbertElliottLoss>(
          net::GilbertElliottLoss::Params{}, /*seed=*/2005),
      every_stage_config());
}

void step_to_end(StreamSession& session, SessionTally& tally) {
  while (!session.done()) {
    session.step();
    tally.after_step();
  }
}

// The counters a session publishes are its layers' own stats, name for
// name: a missing, extra or miscounted name fails here.
TEST(StreamSession, PublishedCountersEqualTheLayersStats) {
  ScopedObs obs_on;
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  StreamSession session = every_stage_session(seq);
  SessionTally tally(session);
  step_to_end(session, tally);
  Counts expected = published_between({}, tally.totals());

  EXPECT_EQ(registry_counters(expected), expected);
  // Each layer counted something, so the comparison covers it; a frame
  // spans several FEC windows, so windows are not frames.
  EXPECT_GT(expected["net.fec.windows_encoded"], expected["encoder.frames"]);
  for (const char* name :
       {"encoder.sad_early_exits", "decoder.concealed_mbs",
        "net.packets_dropped", "net.crc.corrupted", "net.fec.packets_recovered",
        "net.fec.windows_unrecoverable", "net.fault.bits_flipped",
        "net.fault.packets_duplicated", "net.fault.packets_reordered",
        "net.feedback.reports"}) {
    EXPECT_GT(expected[name], 0u) << name;
  }
}

// Frames stepped while obs is off are never published, not even once obs
// is back on: the registry holds only the later frames' changes.
TEST(StreamSession, FramesSteppedWithObsOffAreNeverPublished) {
  ScopedObs obs_on;
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  StreamSession session = every_stage_session(seq);
  SessionTally tally(session);
  obs::set_enabled(false);
  for (int i = 0; i < 12; ++i) {
    session.step();
    tally.after_step();
  }
  obs::set_enabled(true);
  const Counts at_switch = tally.totals();
  step_to_end(session, tally);
  const Counts expected = published_between(at_switch, tally.totals());

  EXPECT_EQ(registry_counters(expected), expected);
  EXPECT_EQ(expected.at("encoder.frames"), 18u);
}

// Two sessions stepped in turn publish the sum of their changes.
TEST(StreamSession, InterleavedSessionsPublishTheirSum) {
  ScopedObs obs_on;
  video::SyntheticSequence foreman =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  video::SyntheticSequence garden =
      video::make_paper_sequence(video::SequenceKind::kGardenLike);
  StreamSession a = every_stage_session(foreman);
  net::UniformFrameLoss loss_b(0.2, /*seed=*/22);
  StreamSession b([&garden](int i) { return garden.frame_at(i); },
                  SchemeSpec::gop(3), &loss_b, short_config(12));
  SessionTally tally_a(a);
  SessionTally tally_b(b);
  while (!a.done() || !b.done()) {
    if (!a.done()) {
      a.step();
      tally_a.after_step();
    }
    if (!b.done()) {
      b.step();
      tally_b.after_step();
    }
  }
  Counts expected = published_between({}, tally_a.totals());
  for (const auto& [name, value] : published_between({}, tally_b.totals())) {
    expected[name] += value;
  }

  EXPECT_EQ(registry_counters(expected), expected);
  EXPECT_GT(expected["net.packets_dropped.uniform-frame"], 0u);
  EXPECT_GT(expected["net.packets_dropped.gilbert-elliott"], 0u);
}

// A health-on session sets its eight health gauges from the snapshot
// /healthz reads, and counts each state change once: in its own and the
// global transition counter, and as one flight-ring event.
TEST(StreamSession, PublishesHealthGaugesAndCountsEachTransitionOnce) {
  ScopedObs obs_on;
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  PipelineConfig config = short_config(40);
  config.health.emplace();
  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::pbpair(pbpair_config(0.9, 0.10)),
                        std::make_unique<net::UniformFrameLoss>(0.70, 2005),
                        config, "hgauge");
  session.run_to_end();

  std::shared_ptr<obs::SessionHealth> health;
  for (const auto& candidate : obs::HealthRegistry::global().sessions()) {
    if (candidate->label() == "hgauge") health = candidate;
  }
  ASSERT_NE(health, nullptr);
  const obs::HealthSnapshot snap = health->snapshot();
  ASSERT_GT(snap.transitions, 0u);

  const auto gauge = [](const char* name) {
    return obs::gauge(obs::session_metric("hgauge", name)).value();
  };
  EXPECT_EQ(gauge("health_state"), static_cast<double>(snap.state));
  EXPECT_EQ(gauge("psnr_db"), snap.psnr_window_db);
  EXPECT_EQ(gauge("psnr_ewma_db"), snap.psnr_ewma_db);
  EXPECT_EQ(gauge("eff_plr"), snap.eff_plr);
  EXPECT_EQ(gauge("intra_ratio"), snap.intra_ratio);
  EXPECT_EQ(gauge("j_per_frame"), snap.energy_j_per_frame);
  EXPECT_EQ(gauge("battery_remaining_j"), snap.battery_remaining_j);
  EXPECT_EQ(gauge("projected_lifetime_s"), snap.projected_lifetime_s);

  EXPECT_EQ(
      obs::counter(obs::session_metric("hgauge", "health_transitions")).value(),
      snap.transitions);
  EXPECT_EQ(obs::counter("health.transitions").value(), snap.transitions);
  const obs::FlightRecorder* ring =
      obs::FlightRegistry::global().find("hgauge");
  ASSERT_NE(ring, nullptr);
  std::uint64_t ring_transitions = 0;
  for (const obs::FlightRecord& record : ring->snapshot()) {
    if (record.event == obs::FlightEvent::kHealthTransition) {
      ++ring_transitions;
    }
  }
  EXPECT_EQ(ring_transitions, snap.transitions);
}

// fec_decode consumes the repair packets, so health and the session's
// packet counters compare the media delivered with the media sent: a
// lossless FEC stream reads HEALTHY with no effective loss.
TEST(StreamSession, FecRepairIsNotCountedAsLoss) {
  ScopedObs obs_on;
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  PipelineConfig config = short_config(48);
  net::FecConfig fec;
  fec.k = 4;
  fec.m = 1;
  config.fec = fec;
  config.health.emplace();
  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::pbpair(pbpair_config(0.9, 0.0)),
                        std::make_unique<net::NoLoss>(), config, "fecrepair");
  session.run_to_end();
  ASSERT_GT(session.fec_encoder()->stats().repair_packets, 0u);

  std::shared_ptr<obs::SessionHealth> health;
  for (const auto& candidate : obs::HealthRegistry::global().sessions()) {
    if (candidate->label() == "fecrepair") health = candidate;
  }
  ASSERT_NE(health, nullptr);
  const obs::HealthSnapshot snap = health->snapshot();
  EXPECT_EQ(snap.state, obs::HealthState::kHealthy);
  EXPECT_EQ(snap.eff_plr, 0.0);
  const auto count = [](const char* name) {
    return obs::counter(obs::session_metric("fecrepair", name)).value();
  };
  EXPECT_GT(count("packets_sent"), 0u);
  EXPECT_EQ(count("packets_sent"), count("packets_delivered"));
}

// --- Delayed feedback ---

TEST(DelayedFeedback, ZeroDelayDeliversSameFrame) {
  net::DelayedFeedback<double> queue(0);
  queue.push(3, 0.25);
  std::vector<double> due = queue.take_due(3);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_DOUBLE_EQ(due[0], 0.25);
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(DelayedFeedback, PositiveDelayHoldsUntilRtt) {
  net::DelayedFeedback<int> queue(4);
  queue.push(0, 100);
  queue.push(1, 101);
  EXPECT_TRUE(queue.take_due(3).empty());
  std::vector<int> due = queue.take_due(4);  // frame 0's payload is due
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 100);
  due = queue.take_due(10);  // everything else, FIFO
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 101);
}

TEST(StreamSession, FeedbackLoopSeesLossOnlyAfterRtt) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);

  // Drop frame 2 entirely; record when reports arrive and when the
  // reported loss first turns nonzero, at two RTTs.
  auto report_frames = [&seq](int rtt, int* first_report,
                              int* first_loss_report) {
    PipelineConfig config = short_config(14);
    config.feedback_rtt_frames = rtt;
    *first_report = -1;
    *first_loss_report = -1;
    config.on_feedback = [&](int frame, const net::ReceiverReport& report,
                             codec::RefreshPolicy&) {
      if (*first_report < 0) *first_report = frame;
      if (*first_loss_report < 0 && report.cumulative_lost > 0) {
        *first_loss_report = frame;
      }
    };
    net::ScriptedFrameLoss loss({2});
    StreamSession session([&seq](int i) { return seq.frame_at(i); },
                          SchemeSpec::pbpair(pbpair_config(0.9, 0.1)), &loss,
                          config);
    session.run_to_end();
  };

  int first_rtt0 = -1, first_loss_rtt0 = -1;
  report_frames(0, &first_rtt0, &first_loss_rtt0);
  EXPECT_EQ(first_rtt0, 1);  // frame 0's report lands before frame 1
  // The gap left by frame 2 is noticed when frame 3's packets arrive, so
  // the loss-bearing report is pushed at frame 3 and (RTT 0) delivered
  // before frame 4.
  EXPECT_EQ(first_loss_rtt0, 4);

  int first_rtt5 = -1, first_loss_rtt5 = -1;
  report_frames(5, &first_rtt5, &first_loss_rtt5);
  EXPECT_EQ(first_rtt5, 5);           // frame 0's report delayed by RTT
  EXPECT_EQ(first_loss_rtt5, 3 + 5);  // pushed at 3, due RTT frames later
}

TEST(StreamSession, FeedbackLoopDoesNotPerturbPipelineOutput) {
  // A feedback consumer that only observes must leave every output byte
  // unchanged (the estimator and queue live outside the coding loop).
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  PipelineConfig plain = short_config(10);
  SchemeSpec scheme = SchemeSpec::pbpair(pbpair_config(0.9, 0.1));
  net::UniformFrameLoss loss_a(0.2, 5);
  PipelineResult without = run_pipeline(seq, scheme, &loss_a, plain);

  PipelineConfig with_feedback = plain;
  with_feedback.feedback_rtt_frames = 2;
  int reports = 0;
  with_feedback.on_feedback = [&reports](int, const net::ReceiverReport&,
                                         codec::RefreshPolicy&) { ++reports; };
  net::UniformFrameLoss loss_b(0.2, 5);
  PipelineResult with = run_pipeline(seq, scheme, &loss_b, with_feedback);
  EXPECT_GT(reports, 0);
  expect_results_identical(without, with);
}

// --- frame-trace file (header + flush-on-close) ---

TEST(StreamSession, FrameTraceFlushedOnTakeResultWhileSessionLives) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kAkiyoLike);
  PipelineConfig config = short_config(4);
  const std::string path = "/tmp/pbpair_session_trace_test.jsonl";
  config.frame_trace_path = path;
  config.frame_trace_seed = 99;

  StreamSession session([&seq](int i) { return seq.frame_at(i); },
                        SchemeSpec::gop(2), nullptr, config);
  session.run_to_end();
  session.take_result();

  // The session object is still alive; the file must already be complete.
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"scheme\":\"GOP-2\""), std::string::npos);
  EXPECT_NE(line.find("\"seed\":99"), std::string::npos);
  EXPECT_NE(line.find("\"width\":176"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, config.frames);
  std::remove(path.c_str());
}

TEST(StreamSession, FrameTraceRerunsAreByteIdentical) {
  video::SyntheticSequence seq =
      video::make_paper_sequence(video::SequenceKind::kForemanLike);
  PipelineConfig config = short_config(6);
  const std::string path = "/tmp/pbpair_session_trace_rerun.jsonl";
  config.frame_trace_path = path;
  config.frame_trace_seed = 2005;

  auto run_once = [&] {
    net::UniformFrameLoss loss(0.2, /*seed=*/2005);
    run_pipeline(seq, SchemeSpec::pbpair(pbpair_config(0.9, 0.1)), &loss,
                 config);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    return content.str();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pbpair::sim
