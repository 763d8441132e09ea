// One video-communication stream as a steppable value object.
//
// StreamSession owns everything one stream of the paper's Fig. 1 pipeline
// needs — refresh policy, encoder, rate controller, packetizer, channel
// (with optional owned loss model), decoder, feedback loop, and metrics —
// and advances exactly one frame per step() through one fixed stage
// sequence:
//
//   encode -> packetize -> fec_encode -> transmit -> inject_faults
//   -> verify_integrity -> fec_decode -> depacketize -> decode -> measure
//
// init() decides once which optional stages run: fec_encode/fec_decode
// with PipelineConfig::fec, inject_faults with ::faults, verify_integrity
// with ::wire. frame() exposes the last stepped frame read-only.
// run_pipeline() (sim/pipeline.h) is a thin shim over one session and
// stays byte-identical to the historical monolithic loop.
//
// The layers count into their own stats structs only. While obs is on,
// step() publishes each frame's change in those stats to the global
// encoder.* / decoder.* / net.* counters (DESIGN.md §8).
//
// Sessions are self-contained: no shared mutable state between instances
// (the codec's only process-wide state is the read-only kernel dispatch
// table and the obs registry, which reads but never perturbs), so many
// sessions can run concurrently — see sim/session_manager.h.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include <fstream>
#include <optional>

#include "net/feedback.h"
#include "sim/pipeline.h"

namespace pbpair::obs {
class Counter;
class FlightRecorder;
class Gauge;
}

namespace pbpair::sim {

/// One frame's state as it crosses the stages: each stage fills the fields
/// the next one consumes. StreamSession::frame() exposes the last one.
struct FrameContext {
  int index = 0;
  video::YuvFrame original;              // from the frame source
  codec::EncodedFrame encoded;           // after encode
  std::vector<net::Packet> packets;      // after packetize (+FEC repair)
  std::vector<net::Packet> delivered;    // after transmit .. fec_decode
  codec::ReceivedFrame received;         // after depacketize
  const video::YuvFrame* output = nullptr;  // after decode
  FrameTrace trace;                      // filled by measure
};

class StreamSession {
 public:
  /// Builds a session. `loss` is not owned and may be null (lossless
  /// channel); it must outlive the session.
  /// `label`, when non-empty, namespaces this session's obs counters as
  /// "session.<label>.*" (obs::session_metric).
  StreamSession(FrameSource source, const SchemeSpec& scheme,
                net::LossModel* loss, const PipelineConfig& config,
                std::string label = {});

  /// As above, but the session owns the loss model (per-session seeded
  /// models in multi-session runs).
  StreamSession(FrameSource source, const SchemeSpec& scheme,
                std::unique_ptr<net::LossModel> loss,
                const PipelineConfig& config, std::string label = {});

  // Movable by construction only: move-assigning would destroy the
  // target's arena while its frame_ still holds refs into it.
  StreamSession(StreamSession&&) = default;
  StreamSession& operator=(StreamSession&&) = delete;

  ~StreamSession();

  /// Advances one frame through the stage sequence; returns its trace.
  /// Must not be called once done().
  const FrameTrace& step();

  /// The last stepped frame, valid until the next step().
  const FrameContext& frame() const { return frame_; }

  /// Steps until done().
  void run_to_end();

  bool done() const { return next_frame_ >= config_.frames; }
  int frames_done() const { return next_frame_; }
  int total_frames() const { return config_.frames; }

  /// Finalized result (averages, energies). Valid once done(); the frame
  /// trace file, if any, is flushed and closed on first call.
  PipelineResult take_result();

  // --- component access (experiment hooks use these) ---------------------
  codec::Encoder& encoder() { return *encoder_; }
  codec::Decoder& decoder() { return *decoder_; }
  codec::RefreshPolicy& policy() { return *policy_; }
  net::Packetizer& packetizer() { return *packetizer_; }
  net::Channel& channel() { return *channel_; }
  /// Non-null only when config().faults is set and enabled.
  net::FaultInjector* fault_injector() { return fault_injector_.get(); }
  /// Non-null only when config().fec is set and enabled. The encoder's
  /// set_m() is the joint adaptation loop's FEC-rate actuator.
  net::FecEncoder* fec_encoder() { return fec_encoder_.get(); }
  net::FecDecoder* fec_decoder() { return fec_decoder_.get(); }
  /// Running CRC verification totals (all zero unless config().wire is
  /// set with crc on — the verify_integrity stage is the only writer).
  const net::WireStats& wire_stats() const { return wire_stats_; }
  const PipelineConfig& config() const { return config_; }
  const SchemeSpec& scheme() const { return scheme_; }
  const std::string& label() const { return label_; }

 private:
  void init();
  void write_frame_trace_header();
  void deliver_due_feedback(int frame);
  void observe_delivery();
  // The stages with more than one call's worth of work; each reads and
  // writes frame_.
  void verify_integrity();
  void fec_decode();
  void measure();
  void accumulate(const FrameTrace& trace);
  void update_telemetry(const FrameTrace& trace);
  void observe_health(const obs::FrameHealthSample& sample);

  // One global obs counter as the session publishes it: its name, how the
  // name enters the registry (alone, on its first nonzero add, or with its
  // group), and the running count the layer keeps.
  enum Group { kAlone, kEncoder, kSad, kDecoder, kChannel, kCrc, kGroups };
  struct CounterTotal {
    const char* name;
    Group group;
    std::uint64_t total;
  };
  static constexpr std::size_t kPublishedCounters = 38;
  using CounterTotals = std::array<CounterTotal, kPublishedCounters>;
  CounterTotals counter_totals(bool with_frame) const;
  void publish_counters(const CounterTotals& before);

  SchemeSpec scheme_;
  PipelineConfig config_;
  FrameSource source_;
  std::string label_;

  // Backs every payload BufferRef this session creates — packetizer
  // slices, FEC repair symbols, recovered-packet slabs. Declared FIRST so
  // it is destroyed LAST: the components below may still hold refs into
  // it (the arena's destructor checks live_allocations() == 0).
  std::unique_ptr<net::BufferArena> arena_;

  std::unique_ptr<codec::RefreshPolicy> policy_;
  std::unique_ptr<codec::Encoder> encoder_;
  std::unique_ptr<codec::Decoder> decoder_;
  std::unique_ptr<net::Packetizer> packetizer_;
  std::unique_ptr<net::LossModel> owned_loss_;
  std::unique_ptr<net::NoLoss> no_loss_;
  std::unique_ptr<net::Channel> channel_;
  std::unique_ptr<net::FaultInjector> fault_injector_;
  std::unique_ptr<net::FecEncoder> fec_encoder_;
  std::unique_ptr<net::FecDecoder> fec_decoder_;
  std::optional<codec::RateController> rate_;

  // Receiver-side feedback loop (active only when config_.on_feedback).
  std::unique_ptr<net::PlrEstimator> plr_estimator_;
  std::unique_ptr<net::ReceiverReportBuilder> report_builder_;
  std::unique_ptr<net::DelayedFeedback<net::ReceiverReport>> feedback_queue_;
  std::uint16_t highest_sequence_ = 0;
  std::uint64_t feedback_reports_ = 0;  // receiver reports built

  // CRC framing and the verify_integrity stage (config_.wire, fixed at
  // init()). The totals feed the result; the interval count resets every
  // receiver report and feeds its corruption split.
  bool crc_on_ = false;
  net::WireStats wire_stats_;
  std::uint64_t crc_corrupted_interval_ = 0;

  // The last stepped frame. Its packets hold refs into arena_, which is
  // declared above it and so outlives it.
  FrameContext frame_;
  std::unique_ptr<std::ofstream> frame_trace_out_;

  // Live telemetry (config_.health / per-session obs counters). The
  // energy trackers attribute each frame's analytic joules incrementally
  // — pure reads of encoder ops and channel stats, never a perturbation.
  // health_state_ is the state the last frame left health_ in; the
  // session reacts when a frame changes it.
  std::shared_ptr<obs::SessionHealth> health_;
  obs::HealthState health_state_ = obs::HealthState::kHealthy;
  double energy_reported_j_ = 0.0;
  std::uint64_t energy_reported_uj_ = 0;
  int mbs_per_frame_ = 0;

  // Always-on post-mortem ring (obs/flight_recorder.h), created for
  // labeled sessions only: an unlabeled session has no stable identity to
  // dump under (and parallel unlabeled sessions would share one ring).
  // Registry-owned, so the pointer stays valid across session moves and
  // outlives the session for post-mortem reads.
  obs::FlightRecorder* flight_ = nullptr;

  // Cached handles for the per-frame "session.<label>.*" series, in the
  // order of session.cpp's name tables: one name build + map lookup per
  // session instead of per frame; counter add()s land on the stepping
  // thread's shard. (Registry-owned, move-safe.)
  static constexpr std::size_t kSessionCounters = 9;
  static constexpr std::size_t kHealthGauges = 8;
  std::array<obs::Counter*, kSessionCounters> session_counters_{};
  std::array<obs::Gauge*, kHealthGauges> health_gauges_{};

  // The global counters publish_counters() adds to, in counter_totals()
  // order, each resolved when its name enters the registry.
  std::array<obs::Counter*, kPublishedCounters> published_{};
  std::string model_drops_name_;  // "net.packets_dropped.<loss model>"

  int next_frame_ = 0;
  double psnr_sum_ = 0.0;
  PipelineResult result_;
  bool finalized_ = false;
};

}  // namespace pbpair::sim
