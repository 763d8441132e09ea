#include "layers.h"

#include <algorithm>

#include "video/frame.h"

namespace perfbench {

namespace sim = pbpair::sim;

void OutputTotals::add(const sim::PipelineResult& r) {
  frames += r.frames.size();
  bytes += static_cast<double>(r.total_bytes);
  energy_j += r.total_energy_j();
  for (const sim::FrameTrace& trace : r.frames) psnr_sum_db += trace.psnr_db;
}

void OutputTotals::report(Report& report) const {
  const double n = frames > 0 ? static_cast<double>(frames) : 1.0;
  report.metric("mj_per_frame", energy_j * 1e3 / n, "mJ", frames);
  report.metric("psnr_db", psnr_sum_db / n, "dB", frames);
  report.metric("bytes_per_frame", bytes / n, "B", frames);
}

const std::vector<std::string>& layer_metrics() {
  static const std::vector<std::string> metrics = {
      "video.synth_ms_per_frame",
      "video.measure_us_per_frame",
      "codec.encode_us_per_frame",
      "codec.decode_us_per_frame",
      "codec.sad_ops_per_frame",
      "codec.me_searched_mb_pct",
      "codec.concealed_mbs_per_frame",
      "core.pbpair_policy_us_per_frame",
      "core.pre_me_intra_mb_pct",
      "core.me_penalty_calls_per_frame",
      "energy.me_mj_per_frame",
      "energy.transform_mj_per_frame",
      "energy.mc_mj_per_frame",
      "energy.vlc_mj_per_frame",
      "energy.overhead_mj_per_frame",
      "energy.tx_mj_per_frame",
      "net.packetize_us_per_frame",
      "net.transmit_us_per_frame",
      "net.depacketize_us_per_frame",
      "net.packets_per_frame",
      "net.repair_packets_per_frame",
      "net.loss_pct",
      "common.copied_bytes_per_frame",
      "sim.session_overhead_us_per_frame",
      "trace.overhead_us_per_frame",
      "trace.unaccounted_pct",
  };
  return metrics;
}

void report_result_layers(Report& report,
                          const std::vector<const sim::PipelineResult*>& results) {
  std::uint64_t frames = 0;
  pbpair::energy::OpCounters ops;
  pbpair::energy::EnergyBreakdown energy;
  double tx_j = 0.0;
  std::uint64_t concealed = 0;
  std::uint64_t packets = 0;
  std::uint64_t dropped = 0;
  std::uint64_t repair = 0;
  std::uint64_t checked = 0;
  std::uint64_t corrupted = 0;
  for (const sim::PipelineResult* r : results) {
    frames += r->frames.size();
    ops += r->encoder_ops;
    energy.me_j += r->encode_energy.me_j;
    energy.dct_j += r->encode_energy.dct_j;
    energy.idct_j += r->encode_energy.idct_j;
    energy.quant_j += r->encode_energy.quant_j;
    energy.mc_j += r->encode_energy.mc_j;
    energy.vlc_j += r->encode_energy.vlc_j;
    energy.overhead_j += r->encode_energy.overhead_j;
    tx_j += r->tx_energy_j;
    concealed += r->concealed_mbs;
    packets += r->channel.packets_sent;
    dropped += r->channel.packets_dropped;
    repair += r->fec_encode.repair_packets;
    checked += r->wire.packets_checked;
    corrupted += r->wire.crc_corrupted;
  }
  const double n = frames > 0 ? static_cast<double>(frames) : 1.0;
  auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole > 0 ? 100.0 * static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
  };
  report.metric("codec.sad_ops_per_frame",
                static_cast<double>(ops.sad_pixel_ops + ops.sad_halfpel_ops) /
                    n,
                "count", frames);
  report.metric("codec.me_searched_mb_pct",
                pct(ops.me_invocations, ops.total_mbs()), "%", frames);
  report.metric("codec.concealed_mbs_per_frame",
                static_cast<double>(concealed) / n, "count", frames);
  report.metric("energy.me_mj_per_frame", energy.me_j * 1e3 / n, "mJ", frames);
  report.metric("energy.transform_mj_per_frame",
                (energy.dct_j + energy.idct_j + energy.quant_j) * 1e3 / n, "mJ",
                frames);
  report.metric("energy.mc_mj_per_frame", energy.mc_j * 1e3 / n, "mJ", frames);
  report.metric("energy.vlc_mj_per_frame", energy.vlc_j * 1e3 / n, "mJ",
                frames);
  report.metric("energy.overhead_mj_per_frame", energy.overhead_j * 1e3 / n,
                "mJ", frames);
  report.metric("energy.tx_mj_per_frame", tx_j * 1e3 / n, "mJ", frames);
  report.metric("net.packets_per_frame", static_cast<double>(packets) / n,
                "count", frames);
  report.metric("net.repair_packets_per_frame",
                static_cast<double>(repair) / n, "count", frames);
  report.metric("net.loss_pct", pct(dropped, packets), "%", packets);
  if (checked > 0) {
    report.metric("net.crc_corrupted_pct", pct(corrupted, checked), "%",
                  checked);
  }
}

std::size_t Lockstep::add(const StreamSpec& spec, bool time_policy,
                          const std::string& label) {
  Stream stream;
  stream.kind = spec.scheme.kind;
  stream.session = std::make_unique<sim::StreamSession>(
      clip_source(spec.clip, spec.first_frame), spec.scheme,
      spec.make_loss ? spec.make_loss() : nullptr, spec.config, label);
  stream.replay = std::make_unique<StreamReplay>(
      spec, time_policy ? &policy_tracer_ : tracer_, streams_.size(),
      time_policy);
  streams_.push_back(std::move(stream));
  return streams_.size() - 1;
}

bool Lockstep::mismatch(const std::string& what) {
  if (mismatches_++ == 0) first_mismatch_ = what;
  return false;
}

bool Lockstep::done(std::size_t stream) const {
  return streams_[stream].session == nullptr ||
         streams_[stream].session->done();
}

bool Lockstep::step(std::size_t index) {
  Stream& stream = streams_[index];
  const int frame = stream.session->frames_done();
  // Alternate which side runs first, so neither always finds the other's
  // input frame warm in cache.
  const sim::FrameTrace* replayed = nullptr;
  if (frame % 2 == 1) replayed = &stream.replay->step();
  const std::int64_t t0 = now_ns();
  const sim::FrameTrace& stepped = stream.session->step();
  if (stream.replay->timed_policy() == nullptr) {
    session_ns_ += static_cast<double>(now_ns() - t0);
    ++session_steps_;
  }
  if (replayed == nullptr) replayed = &stream.replay->step();
  ++frames_;
  if (!same_frame(stepped, *replayed)) {
    return mismatch("stream " + std::to_string(index) + " frame " +
                    std::to_string(frame));
  }
  return true;
}

bool Lockstep::finish(std::size_t index) {
  Stream& stream = streams_[index];
  const sim::PipelineResult session = stream.session->take_result();
  stream.replay_result = stream.replay->finish();
  const TimedPolicy* policy = stream.replay->timed_policy();
  PolicyTotals* totals = nullptr;
  if (stream.kind == sim::SchemeKind::kPbpair) {
    totals = &pbpair_;
  } else if (stream.kind != sim::SchemeKind::kNoResilience) {
    totals = &resilience_;
  }
  if (policy != nullptr && totals != nullptr) {
    totals->hook_ns += policy->hook_ns();
    totals->frames += stream.replay_result.frames.size();
    totals->pre_me_intra += policy->pre_me_intra();
    totals->penalty_calls += policy->penalty_calls();
  }
  media_lost_ += stream.replay->counts().media_lost;
  media_recovered_ += stream.replay->counts().media_recovered;
  stream.session.reset();
  stream.replay.reset();
  ++finished_;
  std::string why;
  if (!same_result(session, stream.replay_result, &why)) {
    return mismatch("stream " + std::to_string(index) + " totals: " + why);
  }
  return true;
}

void Lockstep::run_sequential(double deadline_s, std::size_t at_least) {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (finished_ >= at_least && now_s() >= deadline_s) break;
    while (!done(i)) step(i);
    finish(i);
  }
}

void report_replay_layers(Report& report, const Tracer& tracer,
                          const Lockstep& lockstep,
                          std::uint64_t copied_bytes) {
  const std::map<std::string, Tracer::Layer> layers = tracer.layers();
  auto layer = [&layers](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? Tracer::Layer{} : it->second;
  };
  const Tracer::Layer frame = layer("frame");
  const std::uint64_t frames = frame.count;
  const double n = frames > 0 ? static_cast<double>(frames) : 1.0;
  // A stage the workload's sessions do not have records no span and gets
  // no metric.
  auto us_per_frame = [&](const char* metric, const char* span) {
    if (layers.count(span) == 0) return;
    report.metric(metric, layer(span).total_ns / n / 1e3, "us", frames);
  };
  us_per_frame("video.measure_us_per_frame", "measure");
  us_per_frame("codec.encode_us_per_frame", "encode");
  us_per_frame("codec.decode_us_per_frame", "decode");
  us_per_frame("net.packetize_us_per_frame", "packetize");
  us_per_frame("net.fec_encode_us_per_frame", "fec_encode");
  us_per_frame("net.transmit_us_per_frame", "transmit");
  us_per_frame("net.faults_us_per_frame", "inject_faults");
  us_per_frame("net.verify_us_per_frame", "verify_integrity");
  us_per_frame("net.fec_decode_us_per_frame", "fec_decode");
  us_per_frame("net.depacketize_us_per_frame", "depacketize");

  const Lockstep::PolicyTotals& pb = lockstep.pbpair_policy();
  const double pb_frames = pb.frames > 0 ? static_cast<double>(pb.frames) : 1.0;
  const double mbs_per_frame = (pbpair::video::kQcifWidth / 16) *
                               (pbpair::video::kQcifHeight / 16);
  report.metric("core.pbpair_policy_us_per_frame", pb.hook_ns / pb_frames / 1e3,
                "us", pb.frames);
  report.metric("core.pre_me_intra_mb_pct",
                100.0 * static_cast<double>(pb.pre_me_intra) /
                    (pb_frames * mbs_per_frame),
                "%", pb.frames);
  report.metric("core.me_penalty_calls_per_frame",
                static_cast<double>(pb.penalty_calls) / pb_frames, "count",
                pb.frames);
  const Lockstep::PolicyTotals& res = lockstep.resilience_policy();
  if (res.frames > 0) {
    report.metric("resilience.policy_us_per_frame",
                  res.hook_ns / static_cast<double>(res.frames) / 1e3, "us",
                  res.frames);
  }
  if (layers.count("fec_decode") > 0) {
    report.metric("net.fec_recovered_pct",
                  lockstep.media_lost() > 0
                      ? 100.0 *
                            static_cast<double>(lockstep.media_recovered()) /
                            static_cast<double>(lockstep.media_lost())
                      : 0.0,
                  "%", lockstep.media_lost());
  }
  report.metric("common.copied_bytes_per_frame",
                static_cast<double>(copied_bytes) /
                    (2.0 * static_cast<double>(std::max<std::uint64_t>(
                               1, lockstep.frames()))),
                "B", lockstep.frames());

  // Layer time is what the frame span's children cover, less the clock
  // read each of those spans adds; the rest of a replayed frame is the
  // tracer's unaccounted share.
  std::uint64_t child_spans = 0;
  for (const auto& [name, totals] : layers) {
    if (name != "frame") child_spans += totals.count;
  }
  const double instrumented_ns =
      static_cast<double>(child_spans) * clock_read_ns();
  const double session_us = lockstep.session_step_ns() / n / 1e3;
  const double layers_us =
      (frame.total_ns - frame.self_ns - instrumented_ns) / n / 1e3;
  report.metric("sim.session_overhead_us_per_frame", session_us - layers_us,
                "us", frames);
  report.metric("trace.overhead_us_per_frame",
                frame.total_ns / n / 1e3 - session_us, "us", frames);
  report.metric("trace.unaccounted_pct",
                frame.total_ns > 0 ? 100.0 * frame.self_ns / frame.total_ns
                                   : 0.0,
                "%", frames);
}

}  // namespace perfbench
