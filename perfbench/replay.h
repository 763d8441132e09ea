// Layer-by-layer replay of one sim::StreamSession, for the traced runs.
//
// StreamReplay builds the same components a StreamSession builds from the
// same spec and steps each frame through the layers' public calls in the
// session's default stage order (encode, packetize, fec_encode, transmit,
// inject_faults, verify_integrity, fec_decode, depacketize, decode,
// measure) plus the RTCP feedback path, with one span around each call.
// Its frame traces and joules must equal the session's exactly; the
// workloads check that frame by frame.
//
// TimedPolicy sits between the encoder and the real refresh policy, so
// the time and the decisions of core/ and resilience/ policies are seen
// per hook without touching the policies themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "codec/decoder.h"
#include "codec/encoder.h"
#include "codec/refresh_policy.h"
#include "harness.h"
#include "net/buffer.h"
#include "net/channel.h"
#include "net/fault_injector.h"
#include "net/fec.h"
#include "net/feedback.h"
#include "net/loss_model.h"
#include "net/packetizer.h"
#include "net/rtcp.h"
#include "sim/pipeline.h"
#include "tracer.h"

namespace perfbench {

/// Everything a StreamSession is built from; the same value builds the
/// untraced session and its replay.
struct StreamSpec {
  pbpair::sim::SchemeSpec scheme;
  pbpair::sim::PipelineConfig config;
  std::shared_ptr<const Clip> clip;
  int first_frame = 0;  // stream frame i is clip frame first_frame + i
  std::function<std::unique_ptr<pbpair::net::LossModel>()> make_loss;
};

/// Forwards every hook to the wrapped policy, counts every call and times
/// a sample of them. The per-MB and per-candidate hooks run hundreds to
/// thousands of times a frame, so only every 16th call of those is timed
/// (the clock would otherwise cost more than the hook); once-a-frame hooks
/// are timed on every call. Each hook's time is its sampled mean, net of
/// the clock read, times its call count.
class TimedPolicy final : public pbpair::codec::RefreshPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<pbpair::codec::RefreshPolicy> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  bool want_intra_frame(int frame_index) override;
  bool force_intra_pre_me(int frame_index, int mb_x, int mb_y) override;
  std::int64_t me_penalty(int mb_x, int mb_y,
                          pbpair::codec::MotionVector mv) const override;
  bool has_me_penalty() const override { return inner_->has_me_penalty(); }
  void select_post_me(int frame_index,
                      const std::vector<pbpair::codec::MbMeInfo>& me_info,
                      int mb_cols, int mb_rows,
                      std::vector<std::uint8_t>* force_intra) override;
  void on_frame_encoded(const pbpair::codec::FrameEncodeInfo& info) override;
  void reset() override { inner_->reset(); }

  /// Estimated time inside the wrapped policy's hooks.
  double hook_ns() const;
  std::uint64_t pre_me_intra() const { return pre_me_intra_; }
  std::uint64_t penalty_calls() const { return calls_[kPenalty]; }

 private:
  enum Hook { kWantIntra, kPreMe, kPenalty, kPostMe, kFrameEncoded, kHooks };
  /// True when this call of `hook` is to be timed; counts the call.
  bool sample(Hook hook) const;
  void record(Hook hook, std::int64_t start_ns) const;

  std::unique_ptr<pbpair::codec::RefreshPolicy> inner_;
  std::uint64_t pre_me_intra_ = 0;
  // me_penalty is const, so its bookkeeping is too.
  mutable std::uint64_t calls_[kHooks] = {};
  mutable std::uint64_t timed_[kHooks] = {};
  mutable double timed_ns_[kHooks] = {};
};

/// Per-replay counts that no span or program statistic carries.
struct ReplayCounts {
  std::uint64_t media_lost = 0;       // media packets missing before FEC
  std::uint64_t media_recovered = 0;  // of those, rebuilt by fec_decode
};

class StreamReplay {
 public:
  /// `tracer` (not owned) receives this stream's spans, which carry
  /// frame_trace_id(stream_id, frame). With `time_policy` the encoder
  /// calls the policy through a TimedPolicy; forwarding thousands of
  /// motion-candidate calls a frame then inflates the encode span, so a
  /// stream either times its policy or its layers, not both.
  StreamReplay(const StreamSpec& spec, Tracer* tracer, std::uint64_t stream_id,
               bool time_policy);

  /// Replays the next frame and returns its trace.
  const pbpair::sim::FrameTrace& step();

  /// Totals in the layout of StreamSession::take_result(). Valid once
  /// every frame was stepped.
  pbpair::sim::PipelineResult finish();

  /// The hook timings; null unless built with `time_policy`.
  const TimedPolicy* timed_policy() const { return timed_policy_; }
  const ReplayCounts& counts() const { return counts_; }

 private:
  void deliver_due_feedback(int frame);
  void observe_delivery(int frame,
                        const std::vector<pbpair::net::Packet>& delivered);

  pbpair::sim::SchemeSpec scheme_;
  pbpair::sim::PipelineConfig config_;
  std::shared_ptr<const Clip> clip_;
  int first_frame_;
  Tracer* tracer_;
  std::uint64_t stream_id_;
  bool crc_on_ = false;

  // Declared first so it is destroyed last: packets hold refs into it.
  std::unique_ptr<pbpair::net::BufferArena> arena_;
  std::unique_ptr<pbpair::codec::RefreshPolicy> policy_;  // the encoder's
  TimedPolicy* timed_policy_ = nullptr;  // policy_, when timing hooks
  pbpair::codec::RefreshPolicy* scheme_policy_ = nullptr;  // the real one
  std::unique_ptr<pbpair::codec::Encoder> encoder_;
  std::unique_ptr<pbpair::codec::Decoder> decoder_;
  std::unique_ptr<pbpair::net::Packetizer> packetizer_;
  std::unique_ptr<pbpair::net::LossModel> loss_;
  std::unique_ptr<pbpair::net::Channel> channel_;
  std::unique_ptr<pbpair::net::FaultInjector> fault_injector_;
  std::unique_ptr<pbpair::net::FecEncoder> fec_encoder_;
  std::unique_ptr<pbpair::net::FecDecoder> fec_decoder_;

  std::unique_ptr<pbpair::net::PlrEstimator> plr_estimator_;
  std::unique_ptr<pbpair::net::ReceiverReportBuilder> report_builder_;
  std::unique_ptr<pbpair::net::DelayedFeedback<pbpair::net::ReceiverReport>>
      feedback_queue_;
  std::uint16_t highest_sequence_ = 0;
  pbpair::net::WireStats wire_stats_;
  std::uint64_t crc_corrupted_interval_ = 0;

  ReplayCounts counts_;
  int next_frame_ = 0;
  double psnr_sum_ = 0.0;
  pbpair::sim::PipelineResult result_;
};

}  // namespace perfbench
